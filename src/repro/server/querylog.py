"""Nameserver query logs.

The entire measurement methodology of the paper consumes exactly one data
source: the queries arriving at the CDE-controlled nameservers.  "Our study
proceeds by observing and counting the number of queries arriving at our
nameservers" (§IV-A).  :class:`QueryLog` records each arrival and offers the
counting/grouping primitives the enumeration and mapping techniques need.

Counting is the measurement hot path: a population sweep interrogates the
log a handful of times per platform, and with one shared log the naive
full-scan implementation turns sweeps quadratic.  The log therefore keeps
two incremental indexes (built as entries are recorded):

* **by qname** — exact-name lookups (``entries(qname=...)``, ``count``,
  ``count_transactions``, ``sources(qname=...)``) touch only that name's
  entries;
* **by suffix** — every entry is indexed under each ancestor of its qname,
  so ``count_under``/``sources(suffix=...)`` touch only the subtree.

Within any index bucket (and the log itself) timestamps are nondecreasing
— the simulated clock never runs backwards — so ``since`` filters bisect
instead of scanning.  Should an out-of-order timestamp ever be recorded,
the log detects it and falls back to linear ``since`` filtering.

**Retirement** (:meth:`QueryLog.retire`) keeps a long census bounded: it
forgets every entry recorded so far.  Positions are *global* — they keep
counting past retired entries — so marks stay valid, and every query that
touches only later entries answers exactly as an unretired log would.
The engine's lanes retire the logs after each platform's row: a lane
measures one platform at a time under never-reused probe names, so no
later query looks back across a retirement.  Suffix buckets handed out by
:meth:`QueryLog.hold_suffix` (the engine's inlined ``record()`` appends to
them directly) are emptied in place, never dropped.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from ..dns.name import DnsName
from ..dns.rrtype import RRType


@dataclass(frozen=True)
class LogEntry:
    timestamp: float
    src_ip: str
    qname: DnsName
    qtype: RRType
    msg_id: int = 0


class QueryLog:
    """Append-only log with counting helpers and exact retirement."""

    def __init__(self) -> None:
        self._entries: list[LogEntry] = []
        self._marks: dict[str, int] = {}
        #: Entry positions per exact qname / per qname ancestor (incl. self).
        #: Positions are global: they never shift when the log retires.
        self._by_qname: dict[DnsName, list[int]] = {}
        self._by_suffix: dict[DnsName, list[int]] = {}
        #: Suffix buckets that outlive retirement by identity.
        self._held: dict[DnsName, list[int]] = {}
        #: Timestamps parallel to ``_entries`` (for ``since`` bisection).
        self._timestamps: list[float] = []
        self._monotonic = True
        #: Global position of ``_entries[0]`` (== entries retired so far).
        self._origin = 0

    def record(self, entry: LogEntry) -> None:
        position = self._origin + len(self._entries)
        if self._timestamps and entry.timestamp < self._timestamps[-1]:
            self._monotonic = False
        self._timestamps.append(entry.timestamp)
        self._by_qname.setdefault(entry.qname, []).append(position)
        for ancestor in entry.qname.ancestors(include_self=True):
            self._by_suffix.setdefault(ancestor, []).append(position)
        self._entries.append(entry)

    # -- retirement -----------------------------------------------------------

    @property
    def total_recorded(self) -> int:
        """Entries ever recorded, retired ones included."""
        return self._origin + len(self._entries)

    @property
    def evicted(self) -> int:
        """Entries forgotten by :meth:`retire`."""
        return self._origin

    def hold_suffix(self, suffix: DnsName) -> list[int]:
        """The suffix bucket of ``suffix``, kept by identity for good.

        For callers that append positions to the bucket themselves (the
        engine's inlined ``record()``): :meth:`retire` empties a held
        bucket in place instead of dropping it.
        """
        bucket = self._by_suffix.setdefault(suffix, [])
        self._held[suffix] = bucket
        return bucket

    def retire(self) -> None:
        """Forget every entry recorded so far; positions stay global.

        Exact for any later query that touches no retired entry.
        """
        self._origin += len(self._entries)
        self._entries.clear()
        self._timestamps.clear()
        self._by_qname.clear()
        self._by_suffix.clear()
        for suffix, bucket in self._held.items():
            bucket.clear()
            self._by_suffix[suffix] = bucket

    # -- marks: named positions for incremental reads -----------------------

    def mark(self, label: str) -> None:
        """Remember the current end of the log under ``label``."""
        self._marks[label] = self._origin + len(self._entries)

    def since_mark(self, label: str) -> list[LogEntry]:
        start = max(self._marks.get(label, 0) - self._origin, 0)
        return self._entries[start:]

    # -- index plumbing -----------------------------------------------------

    def _positions_since(self, positions: list[int],
                         since: Optional[float]) -> Iterable[int]:
        """The subset of ``positions`` at/after ``since``.

        Positions inside an index bucket are in record order, hence their
        timestamps are nondecreasing while the clock is monotonic — the
        ``since`` cutoff is a bisection, not a scan.
        """
        if since is None:
            return positions
        origin = self._origin
        if not self._monotonic:
            return (p for p in positions
                    if self._entries[p - origin].timestamp >= since)
        cut = bisect_left(positions, since,
                          key=lambda p: self._timestamps[p - origin])
        return positions[cut:]

    def _candidates(self, qname: Optional[DnsName],
                    since: Optional[float]) -> Iterable[LogEntry]:
        """Entries of ``qname`` (or of the whole log) at/after ``since``."""
        if qname is not None:
            positions = self._by_qname.get(qname)
            if positions is None:
                return ()
            origin = self._origin
            return (self._entries[p - origin]
                    for p in self._positions_since(positions, since))
        if since is None:
            return self._entries
        if not self._monotonic:
            return (entry for entry in self._entries
                    if entry.timestamp >= since)
        return self._entries[bisect_left(self._timestamps, since):]

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    def entries(self, qname: Optional[DnsName] = None,
                qtype: Optional[RRType] = None,
                src_ip: Optional[str] = None,
                since: Optional[float] = None,
                predicate: Optional[Callable[[LogEntry], bool]] = None
                ) -> list[LogEntry]:
        """Filtered view of the log; all filters are conjunctive."""
        result = []
        for entry in self._candidates(qname, since):
            if qtype is not None and entry.qtype != qtype:
                continue
            if src_ip is not None and entry.src_ip != src_ip:
                continue
            if predicate is not None and not predicate(entry):
                continue
            result.append(entry)
        return result

    def entries_under(self, suffix: DnsName,
                      since: Optional[float] = None) -> list[LogEntry]:
        """Entries whose qname falls at or under ``suffix``."""
        positions = self._by_suffix.get(suffix)
        if positions is None:
            return []
        origin = self._origin
        return [self._entries[p - origin]
                for p in self._positions_since(positions, since)]

    def entries_for_any(self, qnames: Iterable[DnsName],
                        since: Optional[float] = None,
                        under: bool = False) -> list[LogEntry]:
        """Entries matching *any* of ``qnames``, in log order.

        With ``under=True`` a qname matches its whole subtree (the probe
        names of the indirect techniques pick up ``_dmarc.<name>``-style
        descendants).  This is the egress-census primitive: one indexed
        union instead of a full-log predicate scan per probe batch.
        """
        index = self._by_suffix if under else self._by_qname
        positions: set[int] = set()
        for qname in qnames:
            bucket = index.get(qname)
            if bucket:
                positions.update(self._positions_since(bucket, since))
        origin = self._origin
        return [self._entries[p - origin] for p in sorted(positions)]

    def count(self, qname: Optional[DnsName] = None,
              qtype: Optional[RRType] = None,
              src_ip: Optional[str] = None,
              since: Optional[float] = None,
              predicate: Optional[Callable[[LogEntry], bool]] = None) -> int:
        """Number of entries passing the same filters as :meth:`entries`."""
        return len(self.entries(qname=qname, qtype=qtype, src_ip=src_ip,
                                since=since, predicate=predicate))

    def count_transactions(self, qname: Optional[DnsName] = None,
                           qtype: Optional[RRType] = None,
                           since: Optional[float] = None) -> int:
        """Entries deduplicated by (source, message id, question).

        A resolver that loses our response retransmits the *same* DNS
        message, so raw arrival counts inflate under packet loss; distinct
        transactions are the quantity the enumeration techniques need.
        """
        seen = {
            (entry.src_ip, entry.msg_id, entry.qname, entry.qtype)
            for entry in self.entries(qname=qname, qtype=qtype, since=since)
        }
        return len(seen)

    def count_under(self, suffix: DnsName, since: Optional[float] = None,
                    dedupe: bool = True) -> int:
        """Queries whose qname falls at or under ``suffix``.

        Deduplicates retransmissions (same source, message id and question)
        by default — see :meth:`count_transactions`.
        """
        matching = self.entries_under(suffix, since=since)
        if not dedupe:
            return len(matching)
        return len({(entry.src_ip, entry.msg_id, entry.qname, entry.qtype)
                    for entry in matching})

    def sources(self, qname: Optional[DnsName] = None,
                suffix: Optional[DnsName] = None,
                since: Optional[float] = None) -> set[str]:
        """Distinct source IPs seen — the paper's egress-IP census input."""
        if suffix is not None:
            matching: Iterable[LogEntry] = self.entries_under(suffix,
                                                              since=since)
            if qname is not None:
                matching = (entry for entry in matching
                            if entry.qname == qname)
            return {entry.src_ip for entry in matching}
        return {entry.src_ip
                for entry in self.entries(qname=qname, since=since)}

    def qtype_histogram(self, since: Optional[float] = None) -> dict[RRType, int]:
        histogram: dict[RRType, int] = {}
        for entry in self.entries(since=since):
            histogram[entry.qtype] = histogram.get(entry.qtype, 0) + 1
        return histogram

    def clear(self) -> None:
        self.retire()
        self._marks.clear()
        self._monotonic = True
        self._origin = 0
