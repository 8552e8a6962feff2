"""The fused corridor leaves exactly the world the structured path leaves.

The direct technique counts caches from arrivals at the CDE nameserver,
so the engine's fused corridor (``repro.study.engine``) must reproduce
the prober → network → resolver → authoritative path's every side
effect.  These tests pin that at runtime with twin worlds: build two
worlds the same way, drive one through the corridor and the other
through the real objects, and compare a fingerprint of everything either
path can touch (:func:`world_state`).

* **Population differential** — a census population through
  :class:`~repro.study.engine.ShardLane`, once fused and once with the
  corridor switched off.  A lane retires each platform's world state once
  its row is out, so the worlds are fingerprinted at every retirement and
  compared platform by platform.
* **Crafted twins** — single-platform worlds shaped to reach the rare
  corridor branches, compared after every probe.
* **Coverage** — a line tracer proves the two together run every
  executable line of the corridor functions, so no branch escapes the
  comparison.
* **Sensitivity** — a planted drift on the structured side, and an entry
  whose fields differ only in order, are both told apart.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from random import Random
from typing import Any, Callable, Iterator, Optional

import pytest

from repro.cache.entry import CacheEntry
from repro.dns.name import DnsName
from repro.dns.record import RRSet, a_record
from repro.dns.rrtype import RRType
from repro.dns.zone import WILDCARD_LABEL
from repro.net.latency import ConstantLatency
from repro.net.loss import BernoulliLoss, NoLoss
from repro.net.network import LinkProfile
from repro.resolver.platform import ResolutionPlatform
from repro.server.authoritative import AuthoritativeServer
from repro.server.querylog import LogEntry
from repro.study import (
    MeasurementBudget,
    SimulatedInternet,
    build_world,
    generate_population,
    plan_shards,
)
from repro.study import engine
from repro.study.engine import ShardLane, _FastPlan, _fused_probe_flat
from repro.study.internet import HostedPlatform

SEED = 11
BUDGET = MeasurementBudget(confidence=0.9, max_enumeration_queries=96,
                           egress_probe_factor=2.0, min_egress_probes=8,
                           max_egress_probes=32)
CAPS = dict(max_ingress=6, max_caches=4, max_egress=6)

#: The corridor functions whose every executable line must run.
CORRIDOR = (engine._leg, engine._fused_probe_flat, engine._fused_resolve_flat,
            engine._fused_upstream, engine._fused_upstream_cold,
            engine._fused_cde_transaction)


# ---------------------------------------------------------------------------
# the world fingerprint
# ---------------------------------------------------------------------------

def _value(value: Any) -> Any:
    return value.getstate() if isinstance(value, Random) else value


def _items(obj: Any) -> list[tuple[str, Any]]:
    """``__dict__`` items in order, RNGs replaced by their state."""
    return [(key, _value(value)) for key, value in vars(obj).items()]


def _entry_state(entry: CacheEntry) -> list[tuple[str, Any]]:
    state = []
    for key, value in entry.__dict__.items():
        if key == "rrset" and value is not None:
            value = [(rkey, [list(record.__dict__.items()) for record in rval]
                      if rkey == "records" else rval)
                     for rkey, rval in value.__dict__.items()]
        state.append((key, value))
    return state


def _servers(world: SimulatedInternet) -> Iterator[AuthoritativeServer]:
    seen: set[int] = set()
    for registration in world.network._endpoints.values():
        server = registration.endpoint
        if isinstance(server, AuthoritativeServer) and id(server) not in seen:
            seen.add(id(server))
            yield server


def world_state(world: SimulatedInternet) -> dict[str, Any]:
    """Everything the fused and structured probe paths can mutate.

    Orders are kept wherever the real objects keep one (streams, cache
    entries, entry fields, log entries); the index buckets compare as
    maps without their empty lists, which the corridor pre-creates, and
    are copied, since retirement empties held buckets in place.
    """
    platforms = []
    for hosted in world.platforms:
        platform = hosted.platform
        caches = [(_items(cache.stats), cache._next_expiry,
                   [(key, _entry_state(entry))
                    for key, entry in cache._entries.items()])
                  for cache in platform.caches]
        platforms.append((platform.config.name, platform.rng.getstate(),
                          _items(platform.egress_selector),
                          _items(platform.cache_selector),
                          _items(platform.stats), platform._sequence, caches))
    logs = []
    for server in _servers(world):
        log = server.query_log
        logs.append((server.server_id,
                     [list(entry.__dict__.items()) for entry in log._entries],
                     list(log._timestamps), log._monotonic,
                     {key: list(value)
                      for key, value in log._by_qname.items() if value},
                     {key: list(value)
                      for key, value in log._by_suffix.items() if value}))
    return {
        "clock": world.clock._now,
        "network": _items(world.network.stats),
        "streams": [(name, rng.getstate())
                    for name, rng in world.rng_factory._streams.items()],
        "prober": world.prober.queries_sent,
        "platforms": platforms,
        "logs": logs,
    }


# ---------------------------------------------------------------------------
# line coverage of the corridor
# ---------------------------------------------------------------------------

class LineTracer:
    """``sys.settrace`` collector of the lines run in the corridor."""

    def __init__(self, functions: tuple[Callable[..., Any], ...]):
        self.ran: dict[Any, set[int]] = {
            function.__code__: set() for function in functions}

    def __enter__(self) -> "LineTracer":
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc: object) -> None:
        sys.settrace(self._previous)

    def _call(self, frame: Any, event: str, arg: Any) -> Any:
        lines = self.ran.get(frame.f_code)
        if lines is None:
            return None

        def line(frame: Any, event: str, arg: Any) -> Any:
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    def unrun(self) -> dict[str, list[int]]:
        """Executable lines never run, per function."""
        missing = {}
        for code, lines in self.ran.items():
            executable = {line for _, _, line in code.co_lines()
                          if line is not None} - {code.co_firstlineno}
            if executable - lines:
                missing[code.co_name] = sorted(executable - lines)
        return missing


# ---------------------------------------------------------------------------
# population differential
# ---------------------------------------------------------------------------

def _run_lanes(specs: list, tracer: Optional[LineTracer] = None
               ) -> tuple[list[dict[str, Any]], int, int]:
    """Run the lanes; fingerprint each world as a platform retires."""
    states: list[dict[str, Any]] = []
    retire_platform = SimulatedInternet.retire_platform

    def fingerprinted(world: SimulatedInternet,
                      hosted: HostedPlatform) -> None:
        states.append(world_state(world))
        retire_platform(world, hosted)

    fused, fallback = 0, 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimulatedInternet, "retire_platform", fingerprinted)
        for task in plan_shards(specs, base_seed=SEED, n_shards=3,
                                budget=BUDGET):
            lane = ShardLane(task)
            with tracer or nullcontext():
                lane.run_to_completion()
            fused += lane.fused_probes
            fallback += lane.fallback_probes
    assert len(states) == len(specs)
    return states, fused, fallback


def _population() -> list:
    return generate_population("open-resolvers", 60, seed=SEED, **CAPS)


def _differing(fused: dict[str, Any], structured: dict[str, Any]) -> list[str]:
    return [key for key in fused if fused[key] != structured[key]]


def test_population_twins_leave_identical_worlds(monkeypatch):
    fused, n_fused, n_fallback = _run_lanes(_population())
    # A failed import check would make both runs structured and the
    # comparison vacuous.
    assert n_fused > 0
    assert n_fallback == 0
    monkeypatch.setattr(engine, "_FULL_FAST", False)
    structured, n_fused_off, n_fallback_off = _run_lanes(_population())
    assert n_fused_off == 0
    assert n_fallback_off == n_fused
    for index, (ours, theirs) in enumerate(zip(fused, structured)):
        assert _differing(ours, theirs) == [], f"retirement {index}"


# ---------------------------------------------------------------------------
# crafted twin worlds
# ---------------------------------------------------------------------------

CONSTANT = LinkProfile(latency=ConstantLatency(0.005), loss=NoLoss())
#: A lost request on a one-draw leg flips which leg draws a fresh
#: Box-Muller pair and which consumes the spare.
CONSTANT_LOSSY = LinkProfile(latency=ConstantLatency(0.005),
                             loss=BernoulliLoss(0.3))


def _lossy_wan(world: SimulatedInternet, ip: str, rate: float) -> LinkProfile:
    profile = world.network.profile_of(ip)
    assert profile is not None
    return LinkProfile(latency=profile.latency, loss=BernoulliLoss(rate))


def _link_ips(world: SimulatedInternet, hosted: HostedPlatform,
              role: str) -> list[str]:
    if role == "prober":
        return [world.prober_ip]
    if role == "ingress":
        return hosted.platform.ingress_ips
    if role == "egress":
        return hosted.platform.egress_ips
    if role == "cde":
        return [world.cde.ns_ip]
    assert role == "referral"       # the root and TLD servers
    return [ip for ip, registration in world.network._endpoints.items()
            if isinstance(registration.endpoint, AuthoritativeServer)
            and registration.endpoint is not world.cde.server]


def _repeat_and_fresh(world: SimulatedInternet, advance: float,
                      probes: int = 48) -> Iterator[DnsName]:
    """Alternate one reused name (an enumeration) with fresh names."""
    repeated = world.cde.unique_name("enum")
    for index in range(probes):
        world.clock.advance(advance)
        yield repeated if index % 2 else world.cde.unique_name("egress")


def _world_changes(world: SimulatedInternet) -> Iterator[DnsName]:
    """Round-robin over four caches while the world changes under them."""
    cde = world.cde
    tld = world.hierarchy.tld_server("example")
    assert tld is not None
    yield cde.unique_name()             # cache 0: cold replay
    # Future-dated entries make the next recorded arrival non-monotonic.
    stray = cde.base_domain.prepend("stray")
    for server in (tld, cde.server):
        server.query_log.record(LogEntry(world.clock.now + 3600.0,
                                         "192.0.2.99", stray, RRType.A))
    yield cde.unique_name()             # cache 1: cold replay
    # Grow the wildcard RRset in place: the captured template is stale.
    cde.add_a_record(cde.base_domain.prepend(WILDCARD_LABEL), "203.0.113.101")
    yield cde.unique_name()             # cache 2: cold, stale template
    # A referral server goes away: the chain can no longer be captured.
    tld.online = False
    yield cde.unique_name()             # cache 3: cold, no chain
    for _ in range(8):
        yield cde.unique_name()         # every cache again, now warm


#: Twin-world shapes that reach the corridor branches a census population
#: leaves unrun.  Each names its platform, its relinked roles and its
#: probe script.
SHAPES: dict[str, dict[str, Any]] = {
    "source-ip-hash, constant lossy ingress": dict(
        selector="source-ip-hash", links={"ingress": CONSTANT_LOSSY}),
    "max_ttl=2, probes 1.5 s apart": dict(max_ttl=2, advance=1.5),
    "lossy CDE link": dict(links={"cde": 0.6}),
    "constant prober, CDE and referral links": dict(
        links={"prober": CONSTANT, "cde": CONSTANT, "referral": CONSTANT}),
    "constant egress, lossy prober link": dict(
        links={"egress": CONSTANT, "prober": 0.8}),
    "lossy referral links": dict(links={"referral": 0.7}),
    "world changes between probes": dict(
        selector="round-robin", n_caches=4, script=_world_changes),
}


def _twin(shape: dict[str, Any]) -> tuple[SimulatedInternet, HostedPlatform,
                                          Iterator[DnsName]]:
    world = build_world(seed=SEED, lossy_platforms=False)
    hosted = world.add_platform(n_caches=shape.get("n_caches", 3), n_egress=3,
                                selector=shape.get("selector",
                                                   "uniform-random"),
                                max_ttl=shape.get("max_ttl"))
    for role, link in shape.get("links", {}).items():
        for ip in _link_ips(world, hosted, role):
            profile = (link if isinstance(link, LinkProfile)
                       else _lossy_wan(world, ip, link))
            world.network.register(ip, world.network.endpoint_at(ip), profile)
    script = shape.get("script")
    steps = (script(world) if script is not None
             else _repeat_and_fresh(world, shape.get("advance", 0.0)))
    return world, hosted, steps


def _drive_twins(shape: dict[str, Any],
                 tracer: Optional[LineTracer] = None) -> int:
    """Probe fused vs structured twins; compare after every probe."""
    fused_world, fused_hosted, fused_steps = _twin(shape)
    real_world, real_hosted, real_steps = _twin(shape)
    plan = _FastPlan.build(fused_world, fused_hosted)
    assert plan is not None
    ingress = real_hosted.platform.ingress_ips[0]
    probes = 0
    for fused_name, real_name in zip(fused_steps, real_steps):
        with tracer or nullcontext():
            delivered = _fused_probe_flat(plan, fused_name, RRType.A)
        real = real_world.prober.probe(ingress, real_name, RRType.A)
        assert delivered == real.delivered, f"probe {probes}"
        assert _differing(world_state(fused_world),
                          world_state(real_world)) == [], f"probe {probes}"
        probes += 1
    return probes


@pytest.mark.parametrize("shape", SHAPES)
def test_crafted_twins_match_after_every_probe(shape):
    assert _drive_twins(SHAPES[shape]) >= 12


def test_population_and_crafted_twins_run_every_corridor_line():
    tracer = LineTracer(CORRIDOR)
    _run_lanes(_population(), tracer)
    for shape in SHAPES.values():
        _drive_twins(shape, tracer)
    assert tracer.unrun() == {}


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------

def test_population_differential_sees_a_dropped_query_count(monkeypatch):
    fused, _, _ = _run_lanes(_population())
    resolve_for_client = ResolutionPlatform.resolve_for_client

    def drifted(self, query, src_ip):
        response = resolve_for_client(self, query, src_ip)
        self.stats.queries -= 1         # the structured side drifts
        return response

    monkeypatch.setattr(ResolutionPlatform, "resolve_for_client", drifted)
    monkeypatch.setattr(engine, "_FULL_FAST", False)
    structured, _, _ = _run_lanes(_population())
    for ours, theirs in zip(fused, structured):
        assert _differing(ours, theirs) == ["platforms"]


def test_world_state_tells_entry_field_order_apart():
    states, entries = [], []
    for swap in (False, True):
        world = build_world(seed=SEED)
        cache = world.add_platform().platform.caches[0]
        name = world.cde.unique_name()
        entry = cache.put_rrset(
            RRSet.from_records([a_record(name, "192.0.2.1")]), 1.0)
        if swap:                # same values, stored_at/expires_at swapped
            fields = entry.__dict__
            entry.__dict__ = {key: fields[key] for key in (
                "name", "rtype", "kind", "expires_at", "stored_at", "rrset",
                "soa", "hits", "last_used")}
        entries.append(entry)
        states.append(world_state(world))
    assert entries[0] == entries[1]
    assert list(vars(entries[0])) != list(vars(entries[1]))
    assert _differing(states[0], states[1]) == ["platforms"]
