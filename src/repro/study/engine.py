"""Pipelined single-process measurement engine.

The sequential sweep in :func:`~repro.study.measurement.measure_population`
walks one platform at a time; :func:`~repro.study.parallel.run_shard` used
to call it directly.  This module replaces that inner loop with an
event-driven scheduler:

* Each shard becomes a :class:`ShardLane` — one independent world whose
  platforms advance through probe *turns* (a turn is a batch of
  :data:`BATCH_PROBES` probes, or one indirect measurement).  A lane is
  strictly sequential *inside*: its platforms share one clock, one RNG
  factory and one address allocator, so their order is part of the seeded
  determinism and must not change.
* :class:`PipelinedEngine` round-robins turns *across* lanes, whose worlds
  are fully independent — so no lane blocks the pipeline and per-turn work
  stays cache-hot, without perturbing any lane's internal sequence.
* The direct-probe hot loop runs through a **fused corridor**
  (:func:`_fused_probe_flat` → :func:`_fused_resolve_flat`): for the
  prober → open platform → CDE nameserver path it replicates the exact
  mutation sequence of the real object-per-message code — every RNG draw,
  every clock advance, every stats/log update — while skipping all
  ``DnsMessage`` construction, response assembly and truncation checks.

The corridor rests on one structural fact the engine controls: corridor
probe names come from ``cde.unique_name``/``unique_names`` *immediately*
before probing, so they are fresh children of the CDE base domain that no
cache, zone or log has ever seen.  Every cache lookup at such a name is a
provable miss, the zone answer is pure wildcard synthesis, and the query
log's suffix buckets above the name are fixed.

There is one tier and one gate.  :meth:`_FastPlan.build` returns a plan
only when the import-time replica checks passed (:data:`_FULL_FAST`) and
every link uses a gated latency/loss model; otherwise every probe of the
platform takes the structured path and counts as a fallback probe.
Inside the corridor, the shapes it replicates are the warm corridor (a
per-cache memo of the cached base-domain NS and nameserver A entries) and
the cold referral chain into an empty cache (:class:`_ColdChain`).  Every
rarer shape — an entry or alias already at the name, an expired memo, a
cache that is neither empty nor memoized — runs the real resolver code
from exactly the point the real path would reach it.

Equivalence is checked at runtime, not by a static proof: a fused run
and a structured run of twin worlds must leave identical world state —
clock, network and RNG stream state, every counter, every cache entry
and every query-log entry and index, in order.
``tests/test_fused_equivalence.py`` pins that over a census population
and over crafted twin worlds that drive every line of the corridor.  The
three import-time ``_check_*`` probes and :meth:`_FastPlan.build` stay
the guard in a running census: any drift they can see declines the
corridor rather than change a row.

A lane holds O(1) platforms, not O(platforms): once a platform's row is
out, :meth:`SimulatedInternet.retire_platform` drops its addresses, RNG
stream and resolver state and retires the root, TLD and CDE query logs.
The corridor's held suffix buckets survive retirement by identity (see
:meth:`QueryLog.hold_suffix`) and its inlined ``record()`` writes global
positions, so it stays on across retirements.

Determinism is the contract: driving a :class:`ShardLane` to completion
produces rows byte-identical to
``measure_population(SimulatedInternet(task.config), list(task.specs),
task.budget)`` — the unretired reference — and interleaving lanes cannot
change any lane's rows.  ``tests/test_study_parallel.py`` and
``tests/test_faults_deterministic.py`` pin this across worker counts and
fault profiles.
"""

from __future__ import annotations

import time
from collections import deque
from math import cos as _cos
from math import exp
from math import log as _log
from math import pi as _pi
from math import sin as _sin
from math import sqrt as _sqrt
from random import Random
from typing import Any, Callable, Generator, Optional

from ..cache.cache import DnsCache
from ..cache.entry import CacheEntry, EntryKind
from ..core.analysis import (
    CacheCountEstimate,
    estimate_from_occupancy,
    queries_for_confidence,
)
from ..core.resilient import RetryBudget
from ..dns.edns import maybe_truncate
from ..dns.errors import ResolutionError
from ..dns.message import DnsMessage
from ..dns.name import ROOT, DnsName
from ..dns.record import NsRdata, ResourceRecord, RRSet, group_rrsets
from ..dns.rrtype import RCode, RRType
from ..dns.wire import wire_cache_counters
from ..dns.zone import WILDCARD_LABEL, Zone
from ..net.latency import ConstantLatency, LogNormalLatency
from ..net.loss import BernoulliLoss, NoLoss
from ..net.network import LinkProfile, Network
from ..net.perf import ShardPerf, snapshot_stats, stats_delta
from ..resolver.platform import ResolutionPlatform
from ..resolver.selection import (
    QnameHashSelector,
    QueryContext,
    RandomEgressSelector,
    RoundRobinSelector,
    SourceIpHashSelector,
    UniformRandomSelector,
    _stable_hash,
)
from ..server.authoritative import AuthoritativeServer
from ..server.querylog import LogEntry, QueryLog
from .internet import HostedPlatform, SimulatedInternet
from .measurement import (
    MEASURES,
    MeasurementBudget,
    PlatformMeasurement,
    _egress_probe_budget,
)
from .parallel import ShardOutcome, ShardTask

#: Probes per scheduler turn.  Large enough that turn bookkeeping is noise,
#: small enough that a giant platform cannot starve the other lanes.
BATCH_PROBES = 32

_DEFAULT_TIMEOUT = Network.DEFAULT_TIMEOUT
_DEFAULT_RETRIES = Network.DEFAULT_RETRIES

#: (lognormal?, median-or-delay, sigma, loss rate) for one link direction.
_LegParams = tuple[bool, float, float, float]
#: Warm-corridor memo: the cached (base, NS) and (ns, A) entries.
_CorridorMemo = tuple[CacheEntry, CacheEntry]
#: Wildcard template: (rrsets key, RRSet, record count, records, min TTL).
_Template = tuple[tuple[DnsName, RRType], RRSet, int,
                  tuple[ResourceRecord, ...], int]
#: One referral hop of the cold-resolution chain:
#: (server, zone-name for the error message, dst link params, RRsets its
#: referral response makes the resolver cache, the server's indexed query
#: log, and the held suffix buckets of the base domain's ancestor chain in
#: that log, for the inlined record()).
_ColdLevel = tuple[AuthoritativeServer, DnsName, _LegParams,
                   tuple[RRSet, ...], QueryLog, list[list[int]]]
#: Zone-shape token guarding a captured chain: (server, zone, zone count,
#: rrset count).  Any mismatch forces a re-capture before the next replay.
_ColdToken = tuple[AuthoritativeServer, Zone, int, int]


def _link_params(profile: Optional[LinkProfile]) -> Optional[_LegParams]:
    """Flattened sampling parameters for the inlined traversal.

    Only the models whose draw sequence the inline replicates exactly are
    eligible; anything else (or no profile at all) keeps the platform off
    the corridor.
    """
    if profile is None:
        return None
    latency = profile.latency
    if type(latency) is LogNormalLatency:
        lognormal, median, sigma = True, latency.median, latency.sigma
    elif type(latency) is ConstantLatency:
        lognormal, median, sigma = False, latency.delay, 0.0
    else:
        return None
    loss = profile.loss
    if type(loss) is NoLoss:
        rate = 0.0
    elif type(loss) is BernoulliLoss:
        rate = loss.rate
    else:
        return None
    return (lognormal, median, sigma, rate)


_TWOPI = 2.0 * _pi
_obj_new = object.__new__
#: Bypasses the frozen-dataclass ``__setattr__`` (which rejects even
#: ``__dict__`` assignment) — exactly what dataclass ``__init__`` does.
_obj_setattr = object.__setattr__
_POSITIVE = EntryKind.POSITIVE
_ANY = RRType.ANY
_CNAME = RRType.CNAME
_NS = RRType.NS


def _check_dataclass_layout() -> bool:
    """True when the hot loop may build records/entries by ``__dict__``.

    The fused corridor constructs :class:`LogEntry`, :class:`QueryContext`,
    :class:`ResourceRecord`, :class:`RRSet` and :class:`CacheEntry` via
    ``object.__new__`` plus a ``__dict__`` literal, skipping dataclass
    ``__init__``/``__post_init__`` overhead.  That is only sound while the
    field layout, defaults and post-init effects are exactly the ones the
    literals replicate — so this probe builds each replica the same way
    the hot loop does and compares it field-for-field against the real
    constructor's product.  Any mismatch (renamed field, new default,
    ``__slots__``, new post-init behaviour) sends every probe down the
    structured path.
    """
    try:
        name = ROOT.prepend("layout-check")
        rdata = NsRdata(name)
        record = ResourceRecord(name, RRType.A, 5, rdata)
        fast_record = _obj_new(ResourceRecord)
        _obj_setattr(fast_record, "__dict__",
                     {"name": name, "rtype": RRType.A, "ttl": 5,
                      "rdata": rdata, "rclass": record.rclass})
        rrset = RRSet(name, RRType.A)
        rrset.records = [record]
        fast_rrset = _obj_new(RRSet)
        fast_rrset.__dict__ = {"name": name, "rtype": RRType.A,
                               "rclass": rrset.rclass, "records": [record]}
        entry = CacheEntry(name=name, rtype=RRType.A, kind=_POSITIVE,
                           stored_at=1.5, expires_at=6.5, rrset=rrset)
        fast_entry = _obj_new(CacheEntry)
        fast_entry.__dict__ = {"name": name, "rtype": RRType.A,
                               "kind": _POSITIVE, "stored_at": 1.5,
                               "expires_at": 6.5, "rrset": rrset,
                               "soa": None, "hits": 0, "last_used": 1.5}
        log_entry = LogEntry(timestamp=2.0, src_ip="src", qname=name,
                             qtype=RRType.A, msg_id=7)
        fast_log = _obj_new(LogEntry)
        _obj_setattr(fast_log, "__dict__",
                     {"timestamp": 2.0, "src_ip": "src", "qname": name,
                      "qtype": RRType.A, "msg_id": 7})
        context = QueryContext(qname=name, qtype=RRType.A, src_ip="src",
                               sequence=3)
        fast_context = _obj_new(QueryContext)
        _obj_setattr(fast_context, "__dict__",
                     {"qname": name, "qtype": RRType.A, "src_ip": "src",
                      "sequence": 3})
        return (
            list(record.__dict__) == list(fast_record.__dict__)
            and record.__dict__ == fast_record.__dict__
            and record == fast_record
            and list(rrset.__dict__) == list(fast_rrset.__dict__)
            and rrset.__dict__ == fast_rrset.__dict__
            and list(entry.__dict__) == list(fast_entry.__dict__)
            and entry.__dict__ == fast_entry.__dict__
            and list(log_entry.__dict__) == list(fast_log.__dict__)
            and log_entry.__dict__ == fast_log.__dict__
            and log_entry == fast_log
            and list(context.__dict__) == list(fast_context.__dict__)
            and context.__dict__ == fast_context.__dict__
            and context == fast_context
        )
    except (AttributeError, TypeError):
        return False


def _check_inline_gauss() -> bool:
    """True when the inlined Box–Muller replica matches ``Random.gauss``.

    The replica (see :func:`_leg`) hand-manages the ``gauss_next`` spare
    so latency sampling skips a method call per draw.  Verified against
    the real implementation — including internal state — so a future
    stdlib algorithm change sends probes down the structured path instead
    of silently changing the seeded draw stream.
    """
    try:
        real, mine = Random(987654321), Random(987654321)
        for sigma in (1.25, 0.5, 2.0, 0.75, 1.0):
            z = mine.gauss_next
            mine.gauss_next = None
            if z is None:
                x2pi = mine.random() * _TWOPI
                g2rad = _sqrt(-2.0 * _log(1.0 - mine.random()))
                z = _cos(x2pi) * g2rad
                mine.gauss_next = _sin(x2pi) * g2rad
            if real.gauss(0.0, sigma) != z * sigma or \
                    real.getstate() != mine.getstate():
                return False
        return True
    except (AttributeError, TypeError):
        return False


def _check_inline_randbelow() -> bool:
    """True when the inlined ``randrange(n)`` replica is draw-exact.

    ``Random.randrange(n)`` bottoms out in ``_randbelow_with_getrandbits``:
    draw ``n.bit_length()`` bits, redraw while the value is >= ``n``.  The
    corridor replays that loop directly on the bound ``getrandbits`` to
    skip two stdlib call frames per message id / egress pick; verified
    here against the real method on a cloned RNG so an implementation
    change falls back instead of shifting the seeded stream.
    """
    try:
        real, mine = Random(246813579), Random(246813579)
        for bound in (1 << 16, 3, 7, 1, 12):
            k = bound.bit_length()
            getrandbits = mine.getrandbits
            value = getrandbits(k)
            while value >= bound:
                value = getrandbits(k)
            if real.randrange(bound) != value or \
                    real.getstate() != mine.getstate():
                return False
        return True
    except (AttributeError, TypeError):
        return False


#: All three replicas verified → the fused corridor is safe.  When any
#: check fails, :meth:`_FastPlan.build` declines every platform.
_FULL_FAST = (_check_dataclass_layout() and _check_inline_gauss()
              and _check_inline_randbelow())


class _ColdChain:
    """Captured referral chain from the root hints down to the CDE server.

    The chain is world-level state (root hints, endpoint map, shared
    zones), so one capture serves every platform plan in a lane with the
    same root hints; :meth:`valid` revalidates the zone-shape tokens before
    each cold replay and re-captures when population construction grew a
    shared zone.

    ``AuthoritativeServer.respond`` is pure, so the chain can be probed
    offline with a synthetic corridor name.  The capture label is the
    longest legal one: every real probe name is no longer, so a response
    that fits the truncation limit here proves every real response fits
    too.  Referral sections do not depend on the probed name (only the
    question does, which ingest ignores), so the captured RRsets replay
    verbatim for any corridor name.  On any structural surprise — multiple
    roots or candidate servers, glueless delegations, truncation, a
    non-wildcard answer, a hop whose link model is not gated — the capture
    declines and cold resolutions stay on the real path.
    """

    __slots__ = ("network", "server", "ns_ip", "base_domain", "root_key",
                 "zone", "template", "a_key", "levels", "tokens")

    def __init__(self, world: SimulatedInternet,
                 root_key: tuple[str, ...]) -> None:
        self.network: Network = world.network
        self.server: AuthoritativeServer = world.cde.server
        self.ns_ip: str = world.cde.ns_ip
        self.base_domain: DnsName = world.cde.base_domain
        self.root_key = root_key
        self.zone: Optional[Zone] = None
        self.template: Optional[_Template] = None
        self.a_key: Optional[tuple[DnsName, RRType]] = None
        self.levels: Optional[list[_ColdLevel]] = None
        self.tokens: list[_ColdToken] = []
        self.capture()

    def capture(self) -> None:
        self.levels = None
        self.tokens = []
        if len(self.root_key) != 1:
            return
        probe = self.base_domain.prepend("z" * 63)
        levels: list[_ColdLevel] = []
        tokens: list[_ColdToken] = []
        server_ip = self.root_key[0]
        zone_name = ROOT
        for _ in range(4):
            endpoint = self.network.endpoint_at(server_ip)
            if not isinstance(endpoint, AuthoritativeServer):
                return
            if not endpoint.online or endpoint.rrl_rate is not None:
                return
            params = _link_params(self.network.profile_of(server_ip))
            if params is None:
                return
            zone = endpoint.zone_for(probe)
            if zone is None:
                return
            query = DnsMessage.make_query(probe, RRType.A, msg_id=0,
                                          recursion_desired=False)
            response = endpoint.respond(query)
            if maybe_truncate(query, response,
                              endpoint.edns_payload_size) is not response:
                return
            tokens.append((endpoint, zone, len(endpoint.zones()),
                           len(zone._rrsets)))
            if endpoint is self.server and server_ip == self.ns_ip:
                # Final hop: the answer must be pure wildcard synthesis.
                if response.rcode != RCode.NOERROR or not response.answers:
                    return
                wkey = (self.base_domain.prepend(WILDCARD_LABEL), RRType.A)
                wset = zone._rrsets.get(wkey)
                if wset is None or not wset.records:
                    return
                if response.answers != [
                        ResourceRecord(probe, record.rtype, record.ttl,
                                       record.rdata, record.rclass)
                        for record in wset.records]:
                    return
                self.zone = zone
                self.template = (wkey, wset, len(wset.records),
                                 tuple(wset.records),
                                 min(record.ttl for record in wset.records))
                self.levels = levels
                self.tokens = tokens
                return
            if response.rcode != RCode.NOERROR or response.answers:
                return
            if not response.is_referral():
                return
            ns_sets = response.authority_of_type(RRType.NS)
            if not ns_sets:
                return
            new_zone = ns_sets[0].name
            if not new_zone.is_strict_subdomain_of(zone_name):
                return
            ingest = [rrset for rrset in group_rrsets(response.authority)
                      if rrset.rtype == RRType.NS]
            ingest.extend(rrset for rrset in group_rrsets(response.additional)
                          if rrset.rtype in (RRType.A, RRType.AAAA))
            glue = {record.name: record for record in response.additional
                    if record.rtype == RRType.A}
            next_ips: list[str] = []
            for record in response.authority_of_type(RRType.NS):
                if not isinstance(record.rdata, NsRdata):
                    return
                glue_record = glue.get(record.rdata.nsdname)
                if glue_record is None:
                    return          # glueless hop: real path only
                next_ips.append(glue_record.rdata.address)  # type: ignore[attr-defined]
            if len(next_ips) != 1:
                return
            if new_zone == self.base_domain:
                # The hop that teaches the corridor: remember its keys.
                if len(ns_sets) != 1 or len(ingest) != 2:
                    return
                first = ns_sets[0]
                assert isinstance(first.rdata, NsRdata)
                self.a_key = (first.rdata.nsdname, RRType.A)
            level_log = endpoint.query_log
            tails = [
                level_log.hold_suffix(ancestor)
                for ancestor in self.base_domain.ancestors(include_self=True)
            ]
            levels.append((endpoint, zone_name, params, tuple(ingest),
                           level_log, tails))
            zone_name = new_zone
            server_ip = next_ips[0]
        return

    def valid(self) -> bool:
        """Cheap per-resolve check that no captured zone changed shape.

        Population construction can add delegations to the shared root/TLD
        zones between platforms; growth shows up as a new zone or RRset
        count and triggers a re-capture.
        """
        if self.levels is None:
            return False
        for server, zone, n_zones, n_rrsets in self.tokens:
            if not server.online or len(server.zones()) != n_zones or \
                    len(zone._rrsets) != n_rrsets:
                self.capture()
                return self.levels is not None
        return True


class _FastPlan:
    """Precomputed context for the fused prober → platform → CDE corridor.

    :meth:`build` is the corridor's single gate: it returns ``None`` unless
    every structural precondition holds for this platform, and the engine
    then runs the real per-message path for all of its probes.  The
    preconditions are exactly the cases where the real path takes no
    other branch, so the fused frames below can reproduce its mutation
    sequence verbatim without re-checking any of them per probe.
    """

    __slots__ = (
        "clock", "stats", "prober", "prober_ip", "timeout", "retries",
        "platform", "caches", "n_caches", "cache_selector", "egress_ips",
        "n_egress", "query_log",
        # fast-path state
        "network_rng", "rng_random",
        "prober_getrandbits", "platform_getrandbits", "egress_getrandbits",
        "egress_bits", "probe_src", "probe_dst", "server_dst", "egress_src",
        "sel_kind", "sel_state", "sel_bits",
        "suffix_tails", "zone", "template", "ns_key", "a_key",
        "corridor", "cold", "cold_walk_misses",
    )

    def __init__(self, world: SimulatedInternet, platform: ResolutionPlatform,
                 probe_src: _LegParams, probe_dst: _LegParams,
                 server_dst: _LegParams, egress_src: list[_LegParams],
                 cold: Optional[_ColdChain]):
        network = world.network
        self.clock = network.clock
        self.stats = network.stats
        self.prober = world.prober
        self.prober_ip: str = world.prober.prober_ip
        self.timeout: float = world.prober.timeout
        self.retries: int = world.prober.retries
        self.platform = platform
        self.caches: list[DnsCache] = platform.caches
        self.n_caches: int = len(platform.caches)
        self.cache_selector = platform.cache_selector
        self.egress_ips: list[str] = platform.config.egress_ips
        self.n_egress: int = len(platform.config.egress_ips)
        self.query_log: QueryLog = world.cde.server.query_log

        # -- fast-path precomputation -----------------------------------
        base_domain = world.cde.base_domain
        rng = network._rng
        self.network_rng: Random = rng
        self.rng_random: Callable[[], float] = rng.random
        # _check_inline_randbelow proved the getrandbits replay draw-exact;
        # build() gated the egress selector type, so ``_rng`` is its only
        # state.
        self.prober_getrandbits: Callable[[int], int] = \
            self.prober.rng.getrandbits
        self.platform_getrandbits: Callable[[int], int] = \
            platform.rng.getrandbits
        self.egress_getrandbits: Callable[[int], int] = \
            platform.egress_selector._rng.getrandbits
        self.egress_bits: int = self.n_egress.bit_length()
        self.probe_src = probe_src
        self.probe_dst = probe_dst
        self.server_dst = server_dst
        self.egress_src = egress_src
        # Type-gated cache-selector fast path: every stock selector's
        # ``select`` reduces to a cheap expression of state the corridor
        # holds (corridor queries always arrive from the prober's address).
        # 0 = generic call, 1 = round-robin, 2 = uniform-random (inline
        # randbelow), 3 = qname-hash (per-name memo), 4 = source-ip-hash
        # (one fixed index).
        selector = platform.cache_selector
        selector_type = type(selector)
        self.sel_kind: int = 0
        self.sel_state: Any = None
        self.sel_bits: int = 0
        if selector_type is RoundRobinSelector:
            self.sel_kind = 1
            self.sel_state = selector
        elif selector_type is UniformRandomSelector:
            self.sel_kind = 2
            self.sel_state = selector._rng.getrandbits
            self.sel_bits = self.n_caches.bit_length()
        elif selector_type is QnameHashSelector:
            self.sel_kind = 3
            self.sel_state = (selector._salt, {})
        elif selector_type is SourceIpHashSelector:
            self.sel_kind = 4
            self.sel_state = _stable_hash(
                selector._salt, self.prober_ip) % self.n_caches
        # The suffix buckets above any corridor name are those of the base
        # domain's own ancestor chain — held list objects, resolved once.
        log = self.query_log
        self.suffix_tails: list[list[int]] = [
            log.hold_suffix(ancestor)
            for ancestor in base_domain.ancestors(include_self=True)
        ]
        # Seeded from the lane-shared cold chain; the corridor memo of a
        # cache is set by its cold replay.
        self.zone: Optional[Zone] = None
        self.template: Optional[_Template] = None
        self.ns_key: tuple[DnsName, RRType] = (base_domain, RRType.NS)
        self.a_key: Optional[tuple[DnsName, RRType]] = None
        self.corridor: list[Optional[_CorridorMemo]] = [None] * self.n_caches
        self.cold = cold
        # A cold cache misses _from_cache twice, then once per ancestor in
        # the authority walk; corridor names all have the same depth.
        self.cold_walk_misses: int = 2 + sum(
            1 for _ in base_domain.prepend("x").ancestors(
                include_self=True))
        if cold is not None and cold.valid():
            self.zone = cold.zone
            self.template = cold.template
            self.a_key = cold.a_key

    @classmethod
    def build(cls, world: SimulatedInternet, hosted: HostedPlatform,
              cold_chains: Optional[dict[tuple[str, ...], _ColdChain]] = None,
              ) -> Optional["_FastPlan"]:
        if not _FULL_FAST:
            return None           # an inline replica failed its import check
        network = world.network
        prober = world.prober
        platform = hosted.platform
        config = platform.config
        server = world.cde.server
        if network.injector is not None:
            return None           # faults branch per attempt
        if prober.policy is not None:
            return None           # policy owns the retry loop
        if network.wire_fidelity:
            return None           # every hop must round-trip the codec
        if config.open_to is not None:
            return None           # closed resolver: access check branch
        if config.frontend_dedup_window > 0:
            return None           # dedup table branch in resolve_for_client
        if config.prefetch_horizon > 0:
            return None           # cache hits may trigger upstream refreshes
        if platform._offline_caches:
            return None           # failover branch in _pick_cache
        if type(platform.egress_selector) is not RandomEgressSelector:
            return None           # exactly one rng draw per send call
        if not server.online or server.rrl_rate is not None:
            return None
        ns_ip = world.cde.ns_ip
        if network.endpoint_at(ns_ip) is not server:
            return None
        if network.endpoint_at(config.ingress_ips[0]) is not platform:
            return None
        probe_src = _link_params(network.profile_of(prober.prober_ip))
        probe_dst = _link_params(network.profile_of(config.ingress_ips[0]))
        server_dst = _link_params(network.profile_of(ns_ip))
        egress_src: list[_LegParams] = []
        for ip in config.egress_ips:
            params = _link_params(network.profile_of(ip))
            if params is None:
                return None
            egress_src.append(params)
        if probe_src is None or probe_dst is None or server_dst is None:
            return None           # a link model the inline legs don't draw
        # The chain from the root hints to the CDE is world state, so one
        # capture is shared by every plan in the lane (keyed by root hints
        # in case specs ever diverge on them).
        root_key = tuple(platform.engine.root_hint_ips)
        cold: Optional[_ColdChain] = None
        if cold_chains is not None:
            cold = cold_chains.get(root_key)
        if cold is None:
            cold = _ColdChain(world, root_key)
            if cold_chains is not None:
                cold_chains[root_key] = cold
        return cls(world, platform, probe_src, probe_dst, server_dst,
                   egress_src, cold)


def _leg(plan: _FastPlan, src: _LegParams, dst: _LegParams
         ) -> tuple[bool, float]:
    """``Network._traverse`` inlined for the gated link models.

    Same draws, same order, same short-circuit: destination latency,
    destination loss, source latency, then source loss only when the
    message was not already lost.  The log-normal draw opens up
    ``Random.gauss`` too (Box–Muller with a spare), manually managing the
    ``gauss_next`` state on the network RNG — :func:`_check_inline_gauss`
    proved the replica state-exact at import time.  Used by the cold
    referral hops; the per-probe frames inline the same draws.
    """
    rng = plan.network_rng
    lognormal, median, sigma, rate = dst
    if lognormal:
        z = rng.gauss_next
        rng.gauss_next = None
        if z is None:
            x2pi = rng.random() * _TWOPI
            g2rad = _sqrt(-2.0 * _log(1.0 - rng.random()))
            z = _cos(x2pi) * g2rad
            rng.gauss_next = _sin(x2pi) * g2rad
        latency = median * exp(z * sigma)
    else:
        latency = median
    lost = rate > 0.0 and plan.rng_random() < rate
    lognormal, median, sigma, rate = src
    if lognormal:
        z = rng.gauss_next
        rng.gauss_next = None
        if z is None:
            x2pi = rng.random() * _TWOPI
            g2rad = _sqrt(-2.0 * _log(1.0 - rng.random()))
            z = _cos(x2pi) * g2rad
            rng.gauss_next = _sin(x2pi) * g2rad
        latency += median * exp(z * sigma)
    else:
        latency += median
    if not lost:
        lost = rate > 0.0 and plan.rng_random() < rate
    return lost, latency


def _fused_probe_flat(plan: _FastPlan, qname: DnsName, qtype: RRType) -> bool:
    """One direct probe through the fused corridor.

    Replicates ``DirectProber.probe`` → ``Network.query`` →
    ``ResolutionPlatform.resolve_for_client`` for a gated platform,
    preserving every RNG draw, clock advance and counter mutation, while
    building no messages.  Returns the delivery status — the only probe
    field the direct techniques consume.  The link-model draws run as the
    proven inline replicas of :func:`_leg` with the leg parameters
    unpacked once before the attempt loop (no per-leg call, no tuple
    packing).
    """
    clock = plan.clock
    stats = plan.stats
    rng = plan.network_rng
    rng_random = rng.random
    plan.prober.queries_sent += 1
    # The outer query's message id is drawn but observed by no one (the
    # platform does not log client ids); the draw itself must still happen
    # to keep the "prober" stream aligned with the real path.
    getrandbits = plan.prober_getrandbits
    while getrandbits(17) >= 65536:
        pass
    timeout = plan.timeout
    dst_ln, dst_med, dst_sig, dst_rate = plan.probe_dst
    src_ln, src_med, src_sig, src_rate = plan.probe_src
    retries = plan.retries
    attempts = 0
    while attempts <= retries:
        attempts += 1
        if attempts > 1:
            stats.retransmissions += 1
        sent_at = clock._now
        stats.messages_sent += 1
        # Request leg: destination draw first, then source (as _traverse).
        if dst_ln:
            z = rng.gauss_next
            rng.gauss_next = None
            if z is None:
                x2pi = rng_random() * _TWOPI
                g2rad = _sqrt(-2.0 * _log(1.0 - rng_random()))
                z = _cos(x2pi) * g2rad
                rng.gauss_next = _sin(x2pi) * g2rad
            latency = dst_med * exp(z * dst_sig)
        else:
            latency = dst_med
        lost = dst_rate > 0.0 and rng_random() < dst_rate
        if src_ln:
            z = rng.gauss_next
            rng.gauss_next = None
            if z is None:
                x2pi = rng_random() * _TWOPI
                g2rad = _sqrt(-2.0 * _log(1.0 - rng_random()))
                z = _cos(x2pi) * g2rad
                rng.gauss_next = _sin(x2pi) * g2rad
            latency += src_med * exp(z * src_sig)
        else:
            latency += src_med
        if not lost:
            lost = src_rate > 0.0 and rng_random() < src_rate
        if lost:
            stats.requests_lost += 1
            clock._now = sent_at + timeout      # advance_to, never backward
            continue
        clock._now = sent_at + latency
        # The platform answers every eligible query (a SERVFAIL is still a
        # response), so the silent-drop branch cannot trigger here.
        _fused_resolve_flat(plan, qname, qtype)
        # Response leg: same draw order.
        if dst_ln:
            z = rng.gauss_next
            rng.gauss_next = None
            if z is None:
                x2pi = rng_random() * _TWOPI
                g2rad = _sqrt(-2.0 * _log(1.0 - rng_random()))
                z = _cos(x2pi) * g2rad
                rng.gauss_next = _sin(x2pi) * g2rad
            latency = dst_med * exp(z * dst_sig)
        else:
            latency = dst_med
        lost = dst_rate > 0.0 and rng_random() < dst_rate
        if src_ln:
            z = rng.gauss_next
            rng.gauss_next = None
            if z is None:
                x2pi = rng_random() * _TWOPI
                g2rad = _sqrt(-2.0 * _log(1.0 - rng_random()))
                z = _cos(x2pi) * g2rad
                rng.gauss_next = _sin(x2pi) * g2rad
            latency += src_med * exp(z * src_sig)
        else:
            latency += src_med
        if not lost:
            lost = src_rate > 0.0 and rng_random() < src_rate
        if lost:
            stats.responses_lost += 1
            deadline = sent_at + timeout
            if deadline > clock._now:           # max(now, deadline)
                clock._now = deadline
            continue
        clock._now += latency
        stats.messages_delivered += 1
        return True
    stats.timeouts += 1
    return False


def _fused_resolve_flat(plan: _FastPlan, qname: DnsName,
                        qtype: RRType) -> None:
    """``resolve_for_client`` for a corridor probe, minus the response.

    Selector dispatch, the live hit at the probe name, the fresh-name miss
    and the warm-corridor stat replay run in this frame; the CDE
    transaction is :func:`_fused_cde_transaction` and the cold referral
    chain :func:`_fused_upstream`.  Every rarer shape — an expired entry,
    an alias or negative entry at the name, a cache that is neither empty
    nor warm — calls the real resolver code from exactly the point the
    real path would reach it.  Nobody reads the response, and building it
    is pure, so skipping it changes nothing.
    """
    platform = plan.platform
    pstats = platform.stats
    pstats.queries += 1
    platform._sequence += 1
    sel_kind = plan.sel_kind
    if sel_kind == 2:       # uniform-random: inline randbelow on its rng
        sel_rand = plan.sel_state
        n_caches = plan.n_caches
        sel_bits = plan.sel_bits
        cache_index = sel_rand(sel_bits)
        while cache_index >= n_caches:
            cache_index = sel_rand(sel_bits)
    elif sel_kind == 4:     # source-ip-hash: the prober is the only client
        cache_index = plan.sel_state
    elif sel_kind == 1:     # round-robin: arrival counter
        selector = plan.sel_state
        cache_index = selector._next % plan.n_caches
        selector._next += 1
    elif sel_kind == 3:     # qname-hash: one digest per distinct name
        salt, memo = plan.sel_state
        cache_index = memo.get(qname)
        if cache_index is None:
            memo[qname] = cache_index = _stable_hash(
                salt, str(qname).lower()) % plan.n_caches
    else:
        # Layout-checked __dict__ construction (see _check_dataclass_layout).
        context = _obj_new(QueryContext)
        _obj_setattr(context, "__dict__",
                     {"qname": qname, "qtype": qtype,
                      "src_ip": plan.prober_ip,
                      "sequence": platform._sequence})
        cache_index = plan.cache_selector.select(context, plan.n_caches)
    cache = plan.caches[cache_index]
    clock = plan.clock
    clock._now += 0.0002        # intra-platform hop, as in resolve_for_client
    now = clock._now
    centries = cache._entries
    entry = centries.get((qname, qtype))
    if entry is not None and now < entry.expires_at:
        # Live entry at the exact key: _answer_from's first get hits
        # (any kind ends the chain) — touch + both hit counters.
        entry.hits += 1
        entry.last_used = now
        cache.stats.hits += 1
        pstats.cache_hits += 1
        return
    try:
        if (entry is not None or (qname, _ANY) in centries
                or (qname, _CNAME) in centries or (qname, _NS) in centries):
            # Not a fresh name in this cache: the real chain walk.
            platform._answer_from(cache, qname, qtype)
            return
        # Corridor names are freshly minted, so _answer_from's chain get
        # and CNAME alias get (when qtype != CNAME) are provable misses;
        # the absent keys above cover the RFC 2308 NXDOMAIN check too.
        cstats = cache.stats
        cstats.misses += 2 if qtype is not _CNAME else 1
        pstats.cache_misses += 1
        template = plan.template
        memo2 = plan.corridor[cache_index]
        if memo2 is not None and template is not None and qtype is RRType.A:
            ns_entry, a_entry = memo2
            a_key = plan.a_key
            zone = plan.zone
            # The memo stands while both corridor entries are the very
            # objects cached before and still live; the template while the
            # wildcard RRset object is unchanged.
            if (a_key is not None and zone is not None
                    and centries.get(plan.ns_key) is ns_entry
                    and now < ns_entry.expires_at
                    and centries.get(a_key) is a_entry
                    and now < a_entry.expires_at
                    and zone._rrsets.get(template[0]) is template[1]
                    and len(template[1].records) == template[2]):
                # The warm corridor: replay the stat/recency mutations of
                # _from_cache (two misses at the fresh name) and
                # _closest_known_authority (a miss at the name's own NS
                # key, then hits on the memoized (base, NS) and (ns, A)
                # entries) without the dictionary walks.
                cstats.misses += 3
                ns_entry.hits += 1
                ns_entry.last_used = now
                a_entry.hits += 1
                a_entry.last_used = now
                cstats.hits += 2
                _fused_cde_transaction(plan, cache, qname, qtype, template)
                return
        if not _fused_upstream(plan, cache, cache_index, qname, qtype):
            platform._resolve_upstream(cache, qname, qtype)
    except ResolutionError:
        pstats.failures += 1


def _fused_upstream(plan: _FastPlan, cache: DnsCache, cache_index: int,
                    qname: DnsName, qtype: RRType) -> bool:
    """Cold ``_resolve_upstream``: replay the captured referral chain.

    Returns ``False`` — having mutated nothing — unless the cache is empty
    and the lane's cold chain still matches the world; the caller then
    runs the real ``_resolve_upstream``.  Raises
    :class:`ResolutionError` (like the real path) when every attempt to
    reach a server is lost.
    """
    if cache._entries or qtype is not RRType.A:
        return False
    chain = plan.cold
    if chain is None or not chain.valid():
        return False
    # A re-capture inside valid() may have refreshed the chain; re-sync
    # the plan's view before replaying.
    template = chain.template
    zone = chain.zone
    if (template is None or zone is None
            or zone._rrsets.get(template[0]) is not template[1]
            or len(template[1].records) != template[2]):
        return False
    plan.zone = zone
    plan.template = template
    plan.a_key = chain.a_key
    _fused_upstream_cold(plan, cache, cache_index, qname, qtype, template)
    return True


def _fused_upstream_cold(plan: _FastPlan, cache: DnsCache, cache_index: int,
                         qname: DnsName, qtype: RRType,
                         template: _Template) -> None:
    """Replay the captured referral chain into an empty cache.

    Every cache lookup on an empty cache is a miss, so the _from_cache and
    authority-walk gets collapse to one counter bump; the per-hop draws,
    clock advances, server-log records and referral-RRset puts then replay
    the real iterative descent exactly (glue answers every hop, so no
    intermediate cache reads happen).  The referral puts create the
    cache's corridor entries, which become its warm-corridor memo.
    """
    cache.stats.misses += plan.cold_walk_misses
    clock = plan.clock
    stats = plan.stats
    chain = plan.cold
    assert chain is not None and chain.levels is not None
    for (server, zone_name, dst_params, ingest, level_log,
         tails) in chain.levels:
        getrandbits = plan.platform_getrandbits
        msg_id = getrandbits(17)
        while msg_id >= 65536:
            msg_id = getrandbits(17)
        getrandbits = plan.egress_getrandbits
        egress_index = getrandbits(plan.egress_bits)
        while egress_index >= plan.n_egress:
            egress_index = getrandbits(plan.egress_bits)
        egress_ip = plan.egress_ips[egress_index]
        src_params = plan.egress_src[egress_index]
        delivered = False
        attempts = 0
        while attempts <= _DEFAULT_RETRIES:
            attempts += 1
            if attempts > 1:
                stats.retransmissions += 1
            sent_at = clock._now
            stats.messages_sent += 1
            lost, latency = _leg(plan, src_params, dst_params)
            if lost:
                stats.requests_lost += 1
                clock._now = sent_at + _DEFAULT_TIMEOUT
                continue
            clock._now = sent_at + latency
            # Inlined QueryLog.record against this level's indexed log;
            # the suffix buckets above the fresh qname are the tail lists
            # captured with the chain.
            timestamp = clock._now
            entry = _obj_new(LogEntry)
            _obj_setattr(entry, "__dict__",
                         {"timestamp": timestamp, "src_ip": egress_ip,
                          "qname": qname, "qtype": qtype, "msg_id": msg_id})
            position = level_log._origin + len(level_log._entries)
            timestamps = level_log._timestamps
            if timestamps and timestamp < timestamps[-1]:
                level_log._monotonic = False
            timestamps.append(timestamp)
            bucket = level_log._by_qname.get(qname)
            if bucket is None:
                level_log._by_qname[qname] = bucket = []
            bucket.append(position)
            own = level_log._by_suffix.get(qname)
            if own is None:
                level_log._by_suffix[qname] = own = []
            own.append(position)
            for tail in tails:
                tail.append(position)
            level_log._entries.append(entry)
            lost, latency = _leg(plan, src_params, dst_params)
            if lost:
                stats.responses_lost += 1
                deadline = sent_at + _DEFAULT_TIMEOUT
                if deadline > clock._now:
                    clock._now = deadline
                continue
            clock._now += latency
            stats.messages_delivered += 1
            delivered = True
            break
        if not delivered:
            stats.timeouts += 1
            raise ResolutionError(
                f"no authority for {qname} responded (zone {zone_name})")
        plan.platform.stats.upstream_queries += 1
        ingested_at = clock._now
        for rrset in ingest:
            # put_rrset, layout-checked: clamp, re-own the records at the
            # clamped TTL (with_ttl keeps each record's own name) and
            # insert the positive entry.  DnsCache enforces
            # 0 <= min_ttl <= max_ttl, so the clamped TTL is never negative.
            clamped = cache.clamp_ttl(rrset.ttl)
            records = []
            for record in rrset.records:
                owned = _obj_new(ResourceRecord)
                _obj_setattr(owned, "__dict__",
                             {"name": record.name, "rtype": record.rtype,
                              "ttl": clamped, "rdata": record.rdata,
                              "rclass": record.rclass})
                records.append(owned)
            clone = _obj_new(RRSet)
            clone.__dict__ = {"name": rrset.name, "rtype": rrset.rtype,
                              "rclass": rrset.rclass, "records": records}
            centry = _obj_new(CacheEntry)
            centry.__dict__ = {"name": rrset.name, "rtype": rrset.rtype,
                               "kind": _POSITIVE,
                               "stored_at": ingested_at,
                               "expires_at": ingested_at + clamped,
                               "rrset": clone, "soa": None, "hits": 0,
                               "last_used": ingested_at}
            cache._insert(centry, ingested_at)
    _fused_cde_transaction(plan, cache, qname, qtype, template)
    # The referral puts above created this cache's corridor entries.
    ns_entry = cache._entries.get(plan.ns_key)
    a_key = plan.a_key
    if ns_entry is not None and a_key is not None:
        a_entry = cache._entries.get(a_key)
        if a_entry is not None:
            plan.corridor[cache_index] = (ns_entry, a_entry)


def _fused_cde_transaction(plan: _FastPlan, cache: DnsCache, qname: DnsName,
                           qtype: RRType, template: _Template) -> None:
    """One egress transaction to the CDE nameserver plus the answer put.

    The link-model draws are :func:`_leg`'s, inlined.  Raises
    :class:`ResolutionError` (like the real path) when every attempt is
    lost.
    """
    # _try_servers: shuffling the one-candidate list draws nothing; the
    # query-id draw and the per-send egress draw happen in this order, once
    # per send call (retransmissions reuse both).
    pget = plan.platform_getrandbits
    msg_id = pget(17)
    while msg_id >= 65536:
        msg_id = pget(17)
    eget = plan.egress_getrandbits
    n_egress = plan.n_egress
    egress_bits = plan.egress_bits
    egress_index = eget(egress_bits)
    while egress_index >= n_egress:
        egress_index = eget(egress_bits)
    egress_ip = plan.egress_ips[egress_index]
    clock = plan.clock
    stats = plan.stats
    log = plan.query_log
    rng = plan.network_rng
    rng_random = rng.random
    s_ln, s_med, s_sig, s_rate = plan.server_dst
    e_ln, e_med, e_sig, e_rate = plan.egress_src[egress_index]
    delivered = False
    attempts = 0
    while attempts <= _DEFAULT_RETRIES:
        attempts += 1
        if attempts > 1:
            stats.retransmissions += 1
        sent_at = clock._now
        stats.messages_sent += 1
        # Request leg: server-destination draw first, then egress source.
        if s_ln:
            z = rng.gauss_next
            rng.gauss_next = None
            if z is None:
                x2pi = rng_random() * _TWOPI
                g2rad = _sqrt(-2.0 * _log(1.0 - rng_random()))
                z = _cos(x2pi) * g2rad
                rng.gauss_next = _sin(x2pi) * g2rad
            latency = s_med * exp(z * s_sig)
        else:
            latency = s_med
        lost = s_rate > 0.0 and rng_random() < s_rate
        if e_ln:
            z = rng.gauss_next
            rng.gauss_next = None
            if z is None:
                x2pi = rng_random() * _TWOPI
                g2rad = _sqrt(-2.0 * _log(1.0 - rng_random()))
                z = _cos(x2pi) * g2rad
                rng.gauss_next = _sin(x2pi) * g2rad
            latency += e_med * exp(z * e_sig)
        else:
            latency += e_med
        if not lost:
            lost = e_rate > 0.0 and rng_random() < e_rate
        if lost:
            stats.requests_lost += 1
            clock._now = sent_at + _DEFAULT_TIMEOUT
            continue
        clock._now = sent_at + latency
        # AuthoritativeServer.handle_message logs every attempt whose
        # request leg survived — including those whose response is then
        # lost.  Inlined QueryLog.record: the suffix buckets above the
        # fresh qname are the precomputed base-domain tail lists.
        timestamp = clock._now
        entry = _obj_new(LogEntry)
        _obj_setattr(entry, "__dict__",
                     {"timestamp": timestamp, "src_ip": egress_ip,
                      "qname": qname, "qtype": qtype, "msg_id": msg_id})
        position = log._origin + len(log._entries)
        timestamps = log._timestamps
        if timestamps and timestamp < timestamps[-1]:
            log._monotonic = False
        timestamps.append(timestamp)
        bucket = log._by_qname.get(qname)
        if bucket is None:
            log._by_qname[qname] = bucket = []
        bucket.append(position)
        own = log._by_suffix.get(qname)
        if own is None:
            log._by_suffix[qname] = own = []
        own.append(position)
        for tail in plan.suffix_tails:
            tail.append(position)
        log._entries.append(entry)
        # Response leg.
        if s_ln:
            z = rng.gauss_next
            rng.gauss_next = None
            if z is None:
                x2pi = rng_random() * _TWOPI
                g2rad = _sqrt(-2.0 * _log(1.0 - rng_random()))
                z = _cos(x2pi) * g2rad
                rng.gauss_next = _sin(x2pi) * g2rad
            latency = s_med * exp(z * s_sig)
        else:
            latency = s_med
        lost = s_rate > 0.0 and rng_random() < s_rate
        if e_ln:
            z = rng.gauss_next
            rng.gauss_next = None
            if z is None:
                x2pi = rng_random() * _TWOPI
                g2rad = _sqrt(-2.0 * _log(1.0 - rng_random()))
                z = _cos(x2pi) * g2rad
                rng.gauss_next = _sin(x2pi) * g2rad
            latency += e_med * exp(z * e_sig)
        else:
            latency += e_med
        if not lost:
            lost = e_rate > 0.0 and rng_random() < e_rate
        if lost:
            stats.responses_lost += 1
            deadline = sent_at + _DEFAULT_TIMEOUT
            if deadline > clock._now:           # max(now, deadline)
                clock._now = deadline
            continue
        clock._now += latency
        stats.messages_delivered += 1
        delivered = True
        break
    if not delivered:
        stats.timeouts += 1
        zone = plan.zone
        assert zone is not None
        raise ResolutionError(
            f"no authority for {qname} responded (zone {zone.origin})")
    plan.platform.stats.upstream_queries += 1
    # _ingest_response + put_rrset, collapsed: synthesize the wildcard
    # answer re-owned to qname with the TTL already clamped — exactly the
    # RRSet ``group_rrsets(lookup.records) → put_rrset`` would store.
    # Layout-checked __dict__ construction; DnsCache enforces
    # 0 <= min_ttl <= max_ttl, so the clamped TTL is never negative.
    ingested_at = clock._now
    _, wset, _, wrecords, ttl0 = template
    clamped = cache.clamp_ttl(ttl0)
    records = []
    for record in wrecords:
        owned = _obj_new(ResourceRecord)
        _obj_setattr(owned, "__dict__",
                     {"name": qname, "rtype": record.rtype,
                      "ttl": clamped, "rdata": record.rdata,
                      "rclass": record.rclass})
        records.append(owned)
    stored = _obj_new(RRSet)
    stored.__dict__ = {"name": qname, "rtype": wset.rtype,
                       "rclass": wset.rclass, "records": records}
    centry = _obj_new(CacheEntry)
    centry.__dict__ = {"name": qname, "rtype": wset.rtype,
                       "kind": _POSITIVE, "stored_at": ingested_at,
                       "expires_at": ingested_at + clamped,
                       "rrset": stored, "soa": None, "hits": 0,
                       "last_used": ingested_at}
    cache._insert(centry, ingested_at)


def _measure_direct_turns(lane: "ShardLane", hosted: HostedPlatform
                          ) -> Generator[None, None, PlatformMeasurement]:
    """``measure_direct`` as a resumable generator of probe batches.

    Yields between batches of :data:`BATCH_PROBES` probes so the engine can
    interleave lanes; the mutation sequence between two yields is exactly
    the sequential implementation's.
    """
    world = lane.world
    budget = lane.task.budget or MeasurementBudget()
    spec = hosted.spec
    prober = world.prober
    cde = world.cde
    before = prober.queries_sent
    tally_before = world.tally.snapshot()
    exposure_before = world.fault_exposure_snapshot()
    ingress_ip = hosted.platform.ingress_ips[0]
    plan = _FastPlan.build(world, hosted, lane.cold_chains)
    qtype = RRType.A

    def probe_delivered(probe_name: DnsName) -> bool:
        if plan is not None:
            lane.fused_probes += 1
            return _fused_probe_flat(plan, probe_name, qtype)
        lane.fallback_probes += 1
        return prober.probe(ingress_ip, probe_name, qtype).delivered

    # -- enumerate_adaptive(initial_q=8, confidence, max_q) ----------------
    confidence = budget.confidence
    max_q = budget.max_enumeration_queries
    name = cde.unique_name("enum")
    since = prober.network.clock.now
    sent = 0
    delivered = 0
    pending = 0     # probes since the engine last got a turn

    def send(count: int) -> Generator[None, None, None]:
        nonlocal sent, delivered, pending
        for _ in range(count):
            if probe_delivered(name):
                delivered += 1
            sent += 1
            pending += 1
            if pending >= BATCH_PROBES:
                pending = 0
                yield

    saved_budget = prober.retry_budget
    try:
        retry_budget: Optional[RetryBudget] = None
        if prober.policy is not None:
            retry_budget = RetryBudget.for_confidence(2, confidence,
                                                      prober.policy)
        prober.retry_budget = retry_budget
        yield from send(8)
        while sent < max_q:
            arrivals = cde.count_queries_for(name, since=since, qtype=qtype)
            needed = queries_for_confidence(arrivals + 1, confidence)
            if sent >= needed:
                break
            if retry_budget is not None and prober.policy is not None:
                grown = RetryBudget.for_confidence(arrivals + 1, confidence,
                                                   prober.policy)
                if grown.total > retry_budget.total:
                    retry_budget.total = grown.total
            yield from send(min(needed - sent, max_q - sent))
    finally:
        prober.retry_budget = saved_budget
    arrivals = cde.count_queries_for(name, since=since, qtype=qtype)
    estimate = CacheCountEstimate(
        estimate=estimate_from_occupancy(sent, arrivals) if arrivals else 0.0,
        lower_bound=arrivals,
        queries_sent=sent,
        arrivals=arrivals,
    )

    # -- discover_egress_ips(probes=_egress_probe_budget(spec, budget)) ----
    probes = _egress_probe_budget(spec, budget)
    if probes < 1:
        raise ValueError("need at least one probe")
    egress_since = prober.network.clock.now
    names = cde.unique_names(probes, prefix="egress")
    pending = 0
    for probe_name in names:
        probe_delivered(probe_name)
        pending += 1
        if pending >= BATCH_PROBES:
            pending = 0
            yield
    entries = cde.server.query_log.entries_for_any(names, since=egress_since)
    sources = {entry.src_ip for entry in entries}

    degradation = world.tally.delta(tally_before)
    return PlatformMeasurement(
        spec=spec,
        measured_caches=estimate.rounded,
        measured_egress=len(sources),
        queries_used=prober.queries_sent - before,
        technique="direct",
        attempts=degradation.attempts,
        retries=degradation.retries,
        gave_up=degradation.gave_up,
        fault_exposure=world.fault_exposure_delta(exposure_before),
    )


class ShardLane:
    """One shard advancing through scheduler turns in its own world.

    ``run_shard`` drives a single lane to completion; the in-process
    :class:`PipelinedEngine` interleaves many.  Busy time is accumulated
    around lane work only (construction and turns), so merged
    ``busy_seconds`` no longer double-counts orchestration or pool handoff
    overhead the way the old whole-function timing did.
    """

    def __init__(self, task: ShardTask):
        started = time.perf_counter()
        self.task = task
        self.fused_probes = 0
        self.fallback_probes = 0
        self.rows: list[PlatformMeasurement] = []
        #: Running counters mirroring what :meth:`outcome` reports, so a
        #: streaming driver may drain ``rows`` as they finish without
        #: changing any perf number the in-memory path would produce.
        self.platforms_done = 0
        self._indirect_queries = 0
        self.world = SimulatedInternet(task.config)
        #: Root-hints → captured referral chain, shared across the lane's
        #: platform plans (the chain is world state, not platform state).
        self.cold_chains: dict[tuple[str, ...], _ColdChain] = {}
        self._stats_before = snapshot_stats(self.world.network.stats)
        self._wire_before = wire_cache_counters()
        self._turns: Generator[None, None, None] = self._lane_turns()
        self._done = False
        self.busy_seconds = time.perf_counter() - started

    def _lane_turns(self) -> Generator[None, None, None]:
        budget = self.task.budget
        for spec in self.task.specs:
            hosted = self.world.add_platform_from_spec(spec)
            if spec.population == "open-resolvers":
                row = yield from _measure_direct_turns(self, hosted)
            else:
                # Indirect techniques ride applications with their own state
                # machines; they stay whole-platform turns.
                measure = MEASURES[spec.population]
                row = measure(self.world, hosted, budget)
            self.platforms_done += 1
            if row.technique != "direct":
                self._indirect_queries += row.queries_used
            self.rows.append(row)
            self.world.retire_platform(hosted)
            yield

    def drain_rows(self) -> list[PlatformMeasurement]:
        """Hand over (and forget) the rows finished since the last drain.

        Rows leave in lane order — the order :meth:`outcome` would have
        reported them in — so a streaming driver reassembles the exact
        in-memory result without the lane ever retaining it.
        """
        if not self.rows:
            return self.rows
        drained = self.rows
        self.rows = []
        return drained

    def step(self) -> bool:
        """Advance one turn; ``False`` once the lane has finished."""
        if self._done:
            return False
        started = time.perf_counter()
        try:
            next(self._turns)
        except StopIteration:
            self._done = True
        self.busy_seconds += time.perf_counter() - started
        return not self._done

    def run_to_completion(self) -> ShardOutcome:
        while self.step():
            pass
        return self.outcome()

    def outcome(self) -> ShardOutcome:
        if not self._done:
            raise RuntimeError("lane still has work pending")
        wire_hits, wire_misses = wire_cache_counters()
        perf = ShardPerf(
            shard_index=self.task.shard_index,
            platforms=self.platforms_done,
            wall_seconds=self.busy_seconds,
            # Methodology spend: direct probes plus the queries the indirect
            # techniques pushed through SMTP servers and browsers.
            queries_sent=self.world.prober.queries_sent
            + self._indirect_queries,
            stats=stats_delta(self._stats_before, self.world.network.stats),
            fused_probes=self.fused_probes,
            fallback_probes=self.fallback_probes,
            # The codec cache is process-global; with interleaved lanes the
            # delta is an attribution, not an exact per-lane count.
            wire_cache_hits=wire_hits - self._wire_before[0],
            wire_cache_misses=wire_misses - self._wire_before[1],
        )
        return ShardOutcome(shard_index=self.task.shard_index,
                            positions=self.task.positions,
                            rows=self.rows, perf=perf)


#: Per-lane bound on finished-but-undelivered rows in the streaming
#: scheduler.  A lane that runs this far ahead of the stripe frontier is
#: paused; the frontier's *owner* lane always has an empty buffer (its rows
#: are delivered the moment they finish), so pausing can never deadlock.
STREAM_BUFFER_ROWS = 8


class PipelinedEngine:
    """Round-robin turn scheduler over shard lanes (the in-process path)."""

    def __init__(self, tasks: list[ShardTask]):
        self.lanes = [ShardLane(task) for task in tasks]

    def run(self) -> list[ShardOutcome]:
        active = deque(self.lanes)
        while active:
            lane = active.popleft()
            if lane.step():
                active.append(lane)
        return [lane.outcome() for lane in self.lanes]

    def stream(self) -> Generator[tuple[int, PlatformMeasurement],
                                  None, None]:
        """Yield ``(position, row)`` in global spec order as rows finish.

        Lanes are independent worlds, so interleaving (and pausing) turns
        cannot change any lane's rows — the stream is byte-identical to
        :meth:`run` reassembled in spec order, while holding at most
        :data:`STREAM_BUFFER_ROWS` undelivered rows per lane.  After
        exhaustion every lane is finished and :meth:`outcomes` reports the
        same perf numbers the in-memory path would.
        """
        lanes = self.lanes
        buffers: list[deque[PlatformMeasurement]] = [
            deque() for _ in lanes]
        delivered = [0] * len(lanes)
        frontier = 0
        total = sum(len(lane.task.positions) for lane in lanes)
        active = deque(range(len(lanes)))
        yielded = 0
        while yielded < total:
            # Deliver every row available at the stripe frontier.
            progressed = True
            while progressed:
                progressed = False
                for index, lane in enumerate(lanes):
                    positions = lane.task.positions
                    if (delivered[index] < len(positions)
                            and positions[delivered[index]] == frontier
                            and buffers[index]):
                        yield frontier, buffers[index].popleft()
                        delivered[index] += 1
                        frontier += 1
                        yielded += 1
                        progressed = True
            if yielded >= total:
                break
            # Advance the scheduler: next unpaused lane takes a turn.
            for _ in range(len(active)):
                index = active.popleft()
                lane = lanes[index]
                positions = lane.task.positions
                owns_frontier = (delivered[index] < len(positions)
                                 and positions[delivered[index]] == frontier)
                if len(buffers[index]) >= STREAM_BUFFER_ROWS \
                        and not owns_frontier:
                    active.append(index)    # paused until the frontier moves
                    continue
                if lane.step():
                    active.append(index)
                buffers[index].extend(lane.drain_rows())
                break
        # Every row is out; spend the lanes' remaining (row-free) turns so
        # each generator finishes and ``outcomes()`` may be read.
        for lane in lanes:
            while lane.step():
                pass

    def outcomes(self) -> list[ShardOutcome]:
        """Per-lane outcomes once every lane has finished."""
        return [lane.outcome() for lane in self.lanes]
