"""Stateful property tests: the cache under arbitrary operation sequences.

A hypothesis rule-based state machine drives a :class:`DnsCache` with
interleaved inserts, lookups, negative inserts, removals and time jumps,
checking after every step the invariants everything upstream depends on:

* an entry is never served at or beyond its expiry;
* a served TTL never exceeds what is left of the clamped insert TTL,
  and never grows between re-inserts;
* the live-entry count never exceeds capacity;
* NXDOMAIN answers any qtype at the name, NODATA only its own qtype.
"""

from __future__ import annotations

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.cache import DnsCache, EntryKind
from repro.dns import RRSet, RRType, a_record, name

NAMES = [f"host-{index}.state.example" for index in range(8)]
CAPACITY = 6


class CacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cache = DnsCache(capacity=CAPACITY, min_ttl=0, max_ttl=500)
        self.now = 0.0
        #: Our model of what must still be alive: key -> (expires_at, kind).
        self.model: dict[tuple[str, RRType], tuple[float, EntryKind]] = {}
        #: Last TTL served per owner since its most recent positive insert.
        self.served_ttl: dict[str, int] = {}

    # -- operations ------------------------------------------------------

    @rule(index=st.integers(0, len(NAMES) - 1), ttl=st.integers(1, 1000))
    def put_positive(self, index, ttl):
        owner = NAMES[index]
        rrset = RRSet.from_records([a_record(name(owner), "1.2.3.4",
                                             ttl=ttl)])
        self.cache.put_rrset(rrset, now=self.now)
        clamped = self.cache.clamp_ttl(ttl)
        self.model[(owner, RRType.A)] = (self.now + clamped,
                                         EntryKind.POSITIVE)
        self.served_ttl.pop(owner, None)

    @rule(index=st.integers(0, len(NAMES) - 1))
    def put_nxdomain(self, index):
        owner = NAMES[index]
        entry = self.cache.put_nxdomain(name(owner), now=self.now)
        self.model[(owner, RRType.ANY)] = (entry.expires_at,
                                           EntryKind.NXDOMAIN)
        # NXDOMAIN replaces nothing else in the real cache; positive
        # entries at the name keep their own lifetime.

    @rule(index=st.integers(0, len(NAMES) - 1),
          qtype=st.sampled_from([RRType.TXT, RRType.MX]))
    def put_nodata(self, index, qtype):
        owner = NAMES[index]
        entry = self.cache.put_nodata(name(owner), qtype, now=self.now)
        self.model[(owner, qtype)] = (entry.expires_at, EntryKind.NODATA)

    @rule(index=st.integers(0, len(NAMES) - 1))
    def remove(self, index):
        owner = NAMES[index]
        self.cache.remove(name(owner), RRType.A)
        self.model.pop((owner, RRType.A), None)
        self.served_ttl.pop(owner, None)

    @rule(delta=st.floats(0.0, 400.0))
    def advance_time(self, delta):
        self.now += delta

    @rule(index=st.integers(0, len(NAMES) - 1),
          qtype=st.sampled_from([RRType.A, RRType.TXT]))
    def lookup(self, index, qtype):
        owner = NAMES[index]
        entry = self.cache.get(name(owner), qtype, self.now)
        if entry is None:
            return
        # Whatever is served must not be expired.
        assert not entry.is_expired(self.now)
        if entry.kind == EntryKind.POSITIVE:
            aged = entry.aged_rrset(self.now)
            assert aged is not None
            assert 0 <= aged.ttl <= self.cache.max_ttl
            # Must match our model's lifetime if the model still has it
            # (eviction may have dropped and re-added; served expiry must
            # never exceed the most recent insert's).
            modelled = self.model.get((owner, RRType.A))
            if modelled is not None:
                expires_at, _ = modelled
                assert entry.expires_at <= expires_at + 1e-6
                # The served TTL is what is left of the clamped insert TTL:
                # never more than the modelled lifetime remaining...
                assert aged.ttl <= math.ceil(expires_at - self.now)
                # ...and it only counts down until the next re-insert.
                previous = self.served_ttl.get(owner)
                assert previous is None or aged.ttl <= previous
                self.served_ttl[owner] = aged.ttl
        elif entry.kind == EntryKind.NXDOMAIN:
            # An NXDOMAIN may answer any qtype at its name.
            modelled = self.model.get((owner, RRType.ANY))
            assert modelled is not None
            assert self.now < modelled[0]

    # -- invariants ------------------------------------------------------

    @invariant()
    def capacity_respected(self):
        assert len(self.cache) <= CAPACITY

    @invariant()
    def no_expired_entry_peekable(self):
        for owner in NAMES:
            entry = self.cache.peek(name(owner), RRType.A, self.now)
            if entry is not None:
                assert entry.expires_at > self.now


TestCacheStateMachine = CacheMachine.TestCase
TestCacheStateMachine.settings = settings(max_examples=40,
                                          stateful_step_count=40,
                                          deadline=None)
