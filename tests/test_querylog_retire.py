"""Query-log retirement: exact forgetting with global positions.

An engine lane retires its query logs once each platform's row is out
(:meth:`~repro.study.internet.SimulatedInternet.retire_platform`), so a
long census holds one platform's entries, not every platform's.  These
tests pin the two contracts that makes safe:

* **Exactness** — for any interleaving of ``record`` and ``retire``,
  every query that touches only entries recorded since the last
  retirement answers as an unretired log does, positions stay global and
  held suffix buckets keep their identity.
* **Real traffic** — a lane's logs count every arrival an unretired
  world counts, end empty, and keep the fused corridor on across
  retirements.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.dns.name import name
from repro.dns.rrtype import RRType
from repro.server.querylog import LogEntry, QueryLog
from repro.study import (
    MeasurementBudget,
    SimulatedInternet,
    WorldConfig,
    generate_population,
    measure_population,
    plan_shards,
)
from repro.study.engine import ShardLane, _FastPlan

SEED = 9
CAPS = dict(max_ingress=2, max_caches=2, max_egress=2)
BUDGET = MeasurementBudget(confidence=0.9, max_enumeration_queries=48,
                           egress_probe_factor=2.0, min_egress_probes=8,
                           max_egress_probes=16)

#: The ancestor every recorded name shares (the engine holds such buckets).
SHARED = name("example.")
LEAVES = ("a", "b", "deep.a", "_dmarc.b")
QTYPES = [RRType.A, RRType.TXT, RRType.MX]
SOURCES = ["10.0.0.1", "10.0.0.2", "192.0.2.9"]

#: ``None`` retires; a tuple records (leaf, qtype, source, clock step,
#: message id).  Negative steps make the log non-monotonic.
OPS = st.lists(st.one_of(
    st.none(),
    st.tuples(st.integers(0, len(LEAVES) - 1), st.sampled_from(QTYPES),
              st.sampled_from(SOURCES), st.floats(-0.5, 1.0),
              st.integers(0, 2))), max_size=80)


def _epoch_names(epoch: int):
    """Names are never reused across a retirement, as probe names are."""
    return (name(f"e{epoch}.example."),
            [name(f"{leaf}.e{epoch}.example.") for leaf in LEAVES])


class TestRetireProperty:
    @given(ops=OPS)
    @settings(max_examples=60, deadline=None)
    def test_post_retire_queries_match_unretired_log(self, ops):
        log, reference = QueryLog(), QueryLog()
        held = log.hold_suffix(SHARED)
        epoch, clock = 0, 0.0
        retired_at = None           # latest timestamp retirement forgot
        live: list[LogEntry] = []
        for op in ops:
            if op is None:
                log.retire()
                for each in (log, reference):
                    each.mark("retired")
                for entry in live:
                    if retired_at is None or entry.timestamp > retired_at:
                        retired_at = entry.timestamp
                epoch += 1
                live = []
                continue
            leaf, qtype, source, step, msg_id = op
            clock += step
            entry = LogEntry(clock, source, _epoch_names(epoch)[1][leaf],
                             qtype, msg_id)
            log.record(entry)
            reference.record(entry)
            live.append(entry)

        assert list(log) == live
        assert len(log) == len(live)
        assert log.total_recorded == reference.total_recorded
        assert log.evicted == reference.total_recorded - len(live)
        assert reference.evicted == 0
        if epoch:
            assert log.since_mark("retired") == \
                reference.since_mark("retired") == live

        suffix, names = _epoch_names(epoch)
        cutoffs = [None] + [entry.timestamp for entry in live[:3]]
        for since in cutoffs:
            for qname in names:
                assert log.count(qname=qname, since=since) == \
                    reference.count(qname=qname, since=since)
                assert log.count_transactions(qname=qname, since=since) == \
                    reference.count_transactions(qname=qname, since=since)
            assert log.count_under(suffix, since=since) == \
                reference.count_under(suffix, since=since)
            assert log.sources(suffix=suffix, since=since) == \
                reference.sources(suffix=suffix, since=since)
            for under in (False, True):
                assert log.entries_for_any(names[:2], since=since,
                                           under=under) == \
                    reference.entries_for_any(names[:2], since=since,
                                              under=under)
        # A cutoff past every retired entry isolates the live ones even
        # under the shared ancestor.
        cut = None if retired_at is None else retired_at + 1e-9
        assert log.count_under(SHARED, since=cut) == \
            reference.count_under(SHARED, since=cut)

        assert log._by_suffix[SHARED] is held
        assert log.hold_suffix(SHARED) is held
        assert held == [position
                        for position in reference._by_suffix.get(SHARED, [])
                        if position >= log.evicted]

    def test_clear_restarts_positions_and_keeps_held_buckets(self):
        log = QueryLog()
        held = log.hold_suffix(SHARED)
        log.record(LogEntry(1.0, SOURCES[0], SHARED.prepend("x"), RRType.A))
        log.mark("m")
        log.clear()
        assert (len(log), log.total_recorded, log.evicted) == (0, 0, 0)
        assert log._by_suffix == {SHARED: held} and held == []
        log.record(LogEntry(2.0, SOURCES[0], SHARED.prepend("y"), RRType.A))
        assert held == [0]
        assert log.count_under(SHARED) == 1


# ---------------------------------------------------------------------------
# real lane traffic
# ---------------------------------------------------------------------------

def _specs(count: int = 5) -> list:
    return generate_population("open-resolvers", count, seed=SEED, **CAPS)


def _logs(world: SimulatedInternet) -> list[QueryLog]:
    return ([server.query_log for server in world.hierarchy.servers()]
            + world.cde.all_query_logs())


class TestRetirementUnderLaneTraffic:
    def _lane_and_reference(self) -> tuple[ShardLane, SimulatedInternet]:
        task = plan_shards(_specs(), base_seed=SEED, n_shards=1,
                           budget=BUDGET)[0]
        lane = ShardLane(task)
        lane.run_to_completion()
        reference = SimulatedInternet(task.config)
        measure_population(reference, list(task.specs), task.budget)
        return lane, reference

    def test_lane_retires_every_log_and_accounts(self):
        lane, _ = self._lane_and_reference()
        world = lane.world
        assert world.platforms == []
        for log in _logs(world):
            assert len(log) == 0
            assert log.evicted == log.total_recorded
        assert world.cde.server.query_log.total_recorded > 0
        # Released streams and addresses: only world-level state is left.
        assert not any(stream.startswith("platform/")
                       for stream in world.rng_factory._streams)
        assert not any(ip.startswith("10.")
                       for ip in world.network._endpoints)

    def test_total_recorded_matches_reference(self):
        lane, reference = self._lane_and_reference()
        retired = [log.total_recorded for log in _logs(lane.world)]
        assert retired == [log.total_recorded for log in _logs(reference)]
        assert [log.evicted for log in _logs(reference)] == \
            [0] * len(retired)


class TestCorridorAcrossRetirement:
    def test_default_world_is_fuse_eligible(self):
        world = SimulatedInternet(WorldConfig(seed=SEED))
        hosted = world.add_platform_from_spec(_specs(1)[0])
        assert _FastPlan.build(world, hosted) is not None

    def test_corridor_stays_on_across_retirement(self):
        task = plan_shards(_specs(), base_seed=SEED, n_shards=1,
                           budget=BUDGET)[0]
        lane = ShardLane(task)
        outcome = lane.run_to_completion()
        assert len(outcome.rows) == 5
        assert lane.fused_probes > 0
        assert lane.fallback_probes == 0
