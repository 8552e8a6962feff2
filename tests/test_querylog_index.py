"""Indexed query-log lookups must be invisible to callers.

:class:`QueryLog` answers every query through its incremental by-qname /
by-suffix indexes.  These tests drive it with a randomized entry stream
and require the answers a plain full scan over the recorded entries gives
(:class:`FullScan`, list comprehensions and nothing else) for every
filter combination — plus regression coverage for ``count`` forwarding
*all* of ``entries``'s filters (``src_ip`` and ``predicate`` used to be
silently dropped), and a work count that pins the index actually
narrowing exact-name lookups.
"""

from __future__ import annotations

import random

import pytest

from repro.dns.name import DnsName, name
from repro.dns.rrtype import RRType
from repro.server.querylog import LogEntry, QueryLog

QNAMES = [name(text) for text in (
    "a.example.", "b.example.", "deep.a.example.", "deeper.deep.a.example.",
    "other.test.", "_dmarc.b.example.",
)]
QTYPES = [RRType.A, RRType.TXT, RRType.MX]
SOURCES = ["10.0.0.1", "10.0.0.2", "192.0.2.9"]


def _random_entries(count: int, seed: int = 42,
                    monotonic: bool = True) -> list[LogEntry]:
    rng = random.Random(seed)
    entries = []
    clock = 0.0
    for index in range(count):
        clock = clock + rng.random() if monotonic else rng.random() * count
        entries.append(LogEntry(
            timestamp=clock,
            src_ip=rng.choice(SOURCES),
            qname=rng.choice(QNAMES),
            qtype=rng.choice(QTYPES),
            msg_id=rng.randrange(4),
        ))
    return entries


class FullScan:
    """The oracle: every query answered by a scan of the recorded entries."""

    def __init__(self, entries: list[LogEntry]):
        self.log = entries

    def entries(self, qname=None, qtype=None, src_ip=None, since=None,
                predicate=None):
        return [e for e in self.log
                if (qname is None or e.qname == qname)
                and (qtype is None or e.qtype == qtype)
                and (src_ip is None or e.src_ip == src_ip)
                and (since is None or e.timestamp >= since)
                and (predicate is None or predicate(e))]

    def count(self, **kwargs):
        return len(self.entries(**kwargs))

    def entries_under(self, suffix, since=None):
        return [e for e in self.entries(since=since)
                if e.qname.is_subdomain_of(suffix)]

    def count_under(self, suffix, since=None, dedupe=True):
        matching = self.entries_under(suffix, since=since)
        if not dedupe:
            return len(matching)
        return len({(e.src_ip, e.msg_id, e.qname, e.qtype) for e in matching})

    def entries_for_any(self, qnames, since=None, under=False):
        return [e for e in self.entries(since=since)
                if any(e.qname.is_subdomain_of(q) if under else e.qname == q
                       for q in qnames)]

    def sources(self, qname=None, suffix=None, since=None):
        return {e.src_ip for e in self.entries(qname=qname, since=since)
                if suffix is None or e.qname.is_subdomain_of(suffix)}

    def count_transactions(self, qname=None, qtype=None, since=None):
        return len({(e.src_ip, e.msg_id, e.qname, e.qtype)
                    for e in self.entries(qname=qname, qtype=qtype,
                                          since=since)})


def _pair(count: int = 200, **kwargs) -> tuple[QueryLog, FullScan]:
    log = QueryLog()
    entries = _random_entries(count, **kwargs)
    for entry in entries:
        log.record(entry)
    return log, FullScan(entries)


MID_TS = 50.0


class TestIndexedMatchesFullScan:
    @pytest.mark.parametrize("kwargs", [
        dict(),
        dict(qname=QNAMES[0]),
        dict(qname=QNAMES[2], qtype=RRType.A),
        dict(qname=QNAMES[0], src_ip=SOURCES[1]),
        dict(qname=QNAMES[1], since=MID_TS),
        dict(since=MID_TS),
        dict(qtype=RRType.TXT, src_ip=SOURCES[0]),
        dict(qname=QNAMES[3], qtype=RRType.MX, src_ip=SOURCES[2],
             since=MID_TS),
        dict(qname=name("never-queried.example.")),
    ])
    def test_entries_and_count(self, kwargs):
        indexed, scan = _pair()
        assert indexed.entries(**kwargs) == scan.entries(**kwargs)
        assert indexed.count(**kwargs) == scan.count(**kwargs)

    def test_entries_with_predicate(self):
        indexed, scan = _pair()
        predicate = lambda entry: entry.msg_id % 2 == 0  # noqa: E731
        for kwargs in (dict(predicate=predicate),
                       dict(qname=QNAMES[0], predicate=predicate),
                       dict(since=MID_TS, predicate=predicate)):
            assert indexed.entries(**kwargs) == scan.entries(**kwargs)

    @pytest.mark.parametrize("suffix", [
        name("example."), name("a.example."), name("deep.a.example."),
        name("nowhere.test."), DnsName.root(),
    ])
    @pytest.mark.parametrize("since", [None, MID_TS])
    def test_entries_under_and_count_under(self, suffix, since):
        indexed, scan = _pair()
        assert indexed.entries_under(suffix, since=since) == \
            scan.entries_under(suffix, since=since)
        for dedupe in (True, False):
            assert indexed.count_under(suffix, since=since,
                                       dedupe=dedupe) == \
                scan.count_under(suffix, since=since, dedupe=dedupe)

    @pytest.mark.parametrize("under", [False, True])
    @pytest.mark.parametrize("since", [None, MID_TS])
    def test_entries_for_any(self, under, since):
        indexed, scan = _pair()
        targets = [QNAMES[0], QNAMES[1], name("missing.example.")]
        assert indexed.entries_for_any(targets, since=since, under=under) == \
            scan.entries_for_any(targets, since=since, under=under)

    def test_sources(self):
        indexed, scan = _pair()
        for kwargs in (dict(), dict(qname=QNAMES[0]),
                       dict(suffix=name("example.")),
                       dict(suffix=name("a.example."), qname=QNAMES[2]),
                       dict(qname=QNAMES[1], since=MID_TS)):
            assert indexed.sources(**kwargs) == scan.sources(**kwargs)

    def test_count_transactions(self):
        indexed, scan = _pair()
        for kwargs in (dict(), dict(qname=QNAMES[0]),
                       dict(qtype=RRType.A, since=MID_TS)):
            assert indexed.count_transactions(**kwargs) == \
                scan.count_transactions(**kwargs)

    def test_since_at_a_recorded_timestamp_is_inclusive(self):
        indexed, scan = _pair()
        for entry in scan.log[::25]:
            since = entry.timestamp
            assert indexed.entries(since=since) == scan.entries(since=since)
            assert indexed.entries(qname=entry.qname, since=since) == \
                scan.entries(qname=entry.qname, since=since)
            assert indexed.entries_under(name("example."), since=since) == \
                scan.entries_under(name("example."), since=since)
            assert indexed.entries_for_any(QNAMES[:2], since=since) == \
                scan.entries_for_any(QNAMES[:2], since=since)

    def test_out_of_order_timestamps_fall_back_correctly(self):
        indexed, scan = _pair(monotonic=False)
        assert not indexed._monotonic
        mid = 100.0
        assert indexed.entries(since=mid) == scan.entries(since=mid)
        assert indexed.entries(qname=QNAMES[0], since=mid) == \
            scan.entries(qname=QNAMES[0], since=mid)
        assert indexed.entries_under(name("example."), since=mid) == \
            scan.entries_under(name("example."), since=mid)


class _CountingName(DnsName):
    """A name that counts the equality tests made against it."""

    __slots__ = ()
    comparisons = 0

    def __eq__(self, other: object) -> bool:
        _CountingName.comparisons += 1
        return super().__eq__(other)

    __hash__ = DnsName.__hash__


class TestLookupWorkIsPerName:
    """Exact-name lookups touch that name's entries, never the whole log."""

    N_NAMES = 300
    PER_NAME = 12

    def _log(self) -> tuple[QueryLog, list[DnsName]]:
        names = [_CountingName(("p%d" % index, "cde", "example"))
                 for index in range(self.N_NAMES)]
        log = QueryLog()
        clock = 0.0
        for _ in range(self.PER_NAME):
            for qname in names:
                clock += 0.5
                log.record(LogEntry(clock, SOURCES[0], qname, RRType.A))
        return log, names

    def test_predicate_runs_once_per_entry_of_the_name(self):
        log, names = self._log()
        assert len(log) == self.N_NAMES * self.PER_NAME
        for qname in names[::37]:
            calls = []
            _CountingName.comparisons = 0
            found = log.entries(qname=qname,
                                predicate=lambda entry: calls.append(entry)
                                or True)
            assert len(calls) == self.PER_NAME
            assert found == calls
            assert all(entry.qname is qname for entry in calls)
            # No scan compares the other names' entries against qname.
            assert _CountingName.comparisons < self.PER_NAME


class TestCountForwardsAllFilters:
    """Regression: ``count`` used to ignore ``src_ip`` and ``predicate``."""

    def test_src_ip_filter_is_applied(self):
        log = QueryLog()
        for entry in _random_entries(60):
            log.record(entry)
        total = log.count()
        per_source = [log.count(src_ip=src) for src in SOURCES]
        assert all(n < total for n in per_source)
        assert sum(per_source) == total

    def test_predicate_filter_is_applied(self):
        log = QueryLog()
        for entry in _random_entries(60):
            log.record(entry)
        odd = log.count(predicate=lambda entry: entry.msg_id % 2 == 1)
        assert 0 < odd < log.count()
        assert odd == len([e for e in log if e.msg_id % 2 == 1])

    def test_combined_filters(self):
        log = QueryLog()
        for entry in _random_entries(120):
            log.record(entry)
        expected = len([
            e for e in log
            if e.qname == QNAMES[0] and e.qtype == RRType.A
            and e.src_ip == SOURCES[0] and e.timestamp >= MID_TS
        ])
        assert log.count(qname=QNAMES[0], qtype=RRType.A,
                         src_ip=SOURCES[0], since=MID_TS) == expected


class TestLifecycle:
    def test_clear_resets_indexes(self):
        log = QueryLog()
        for entry in _random_entries(30):
            log.record(entry)
        log.mark("checkpoint")
        log.clear()
        assert len(log) == 0
        assert log.entries(qname=QNAMES[0]) == []
        assert log.entries_under(name("example.")) == []
        assert log.since_mark("checkpoint") == []
        log.record(LogEntry(timestamp=1.0, src_ip="10.9.9.9",
                            qname=QNAMES[0], qtype=RRType.A))
        assert log.count(qname=QNAMES[0]) == 1

    def test_marks_unaffected_by_indexing(self):
        indexed, scan = _pair(count=40)
        indexed.mark("m")
        extra = []
        for entry in _random_entries(10, seed=7):
            entry = LogEntry(timestamp=entry.timestamp + 1000.0,
                             src_ip=entry.src_ip, qname=entry.qname,
                             qtype=entry.qtype, msg_id=entry.msg_id)
            indexed.record(entry)
            extra.append(entry)
        assert indexed.since_mark("m") == extra
        assert list(indexed) == scan.log + extra
