"""Layer spans recorded from outside the program.

:class:`Tracer` replaces the public functions and methods of each layer
with thin wrappers that record one span per call: layer, start, end,
parent span and the spec index of the platform being worked on.  Spans
stay in flat arrays in memory and are written out when the run ends.
Self time (a span's duration minus what its child spans cover) is summed
per layer as the spans close, so the per-layer table needs no second pass.

No program source is edited: the wrappers are installed on the classes and
modules at run time, before any world is built.
"""

from __future__ import annotations

import gc
import json
import weakref
from array import array
from time import perf_counter
from typing import Any, Callable, Iterator, Optional


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self.self_s: list[float] = []
        self.calls: list[int] = []
        # One entry per span, in opening order.
        self.span_layer = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_spec = array("l")
        self._child = array("d")
        self._open: list[int] = []
        self.spec = -1
        self.cache_hits = 0
        self.query_logs: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self.gc_pause_s = 0.0
        self.gc_collections = [0, 0, 0]
        self._gc_started = 0.0

    # -- spans ---------------------------------------------------------------

    def layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self.layers.index(layer)

    def _enter(self, lid: int) -> int:
        sid = len(self.span_start)
        self.span_layer.append(lid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_spec.append(self.spec)
        self.span_end.append(0.0)
        self._child.append(0.0)
        self._open.append(sid)
        self.span_start.append(perf_counter())
        return sid

    def _exit(self, sid: int, lid: int) -> None:
        end = perf_counter()
        self.span_end[sid] = end
        duration = end - self.span_start[sid]
        self._open.pop()
        self.self_s[lid] += duration - self._child[sid]
        self.calls[lid] += 1
        parent = self.span_parent[sid]
        if parent >= 0:
            self._child[parent] += duration

    def wrap(self, owner: Any, attr: str, layer: str,
             spec_of: Optional[Callable[[tuple], int]] = None,
             after: Optional[Callable[[Any], None]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``spec_of(args)`` names the platform the call works on; ``after``
        sees each result (for counts such as cache hits).
        """
        original = (owner[attr] if isinstance(owner, dict)
                    else getattr(owner, attr))
        lid = self.layer_id(layer)
        enter, leave = self._enter, self._exit

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if spec_of is not None:
                self.spec = spec_of(args)
            sid = enter(lid)
            try:
                result = original(*args, **kwargs)
            finally:
                leave(sid, lid)
            if after is not None:
                after(result)
            return result

        if isinstance(owner, dict):
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    def iterate(self, rows: Iterator[Any], layer: str) -> Iterator[Any]:
        """Time each ``next()`` of a row source as one span."""
        lid = self.layer_id(layer)
        while True:
            sid = self._enter(lid)
            try:
                row = next(rows)
            except StopIteration:
                self._exit(sid, lid)
                return
            self._exit(sid, lid)
            self.spec = row.spec.index
            yield row

    # -- gc ------------------------------------------------------------------

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_pause_s += perf_counter() - self._gc_started
            self.gc_collections[info["generation"]] += 1

    def start_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- results -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans to ``path``: one JSON header line, then the raw columns."""
        header = {"layers": self.layers, "spans": len(self.span_start),
                  "columns": [["layer", "H"], ["start", "d"], ["end", "d"],
                              ["parent", "l"], ["spec", "l"]]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_layer, self.span_start, self.span_end,
                           self.span_parent, self.span_spec):
                column.tofile(handle)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the census path."""
    from repro.cache.cache import DnsCache
    from repro.core.prober import DirectProber
    from repro.dns.zone import Zone
    from repro.net.network import Network
    from repro.resolver.iterative import IterativeResolver
    from repro.resolver.platform import ResolutionPlatform
    from repro.server.authoritative import AuthoritativeServer
    from repro.server.querylog import QueryLog
    from repro.study import engine, export, measurement, parallel
    from repro.study.census import CensusAggregates
    from repro.study.internet import SimulatedInternet
    from repro.study.population import PopulationGenerator

    lane_spec: dict[int, int] = {}

    def lane_of(args: tuple) -> int:
        return lane_spec.get(id(args[0].world), -1)

    def add_platform_spec(args: tuple) -> int:
        lane_spec[id(args[0])] = args[1].index
        return args[1].index

    def second_spec(args: tuple) -> int:
        # add_row(row, ...), write_row(row), measure(world, hosted, ...)
        return args[1].spec.index

    def count_hit(entry: Any) -> None:
        if entry is not None:
            tracer.cache_hits += 1

    wrap = tracer.wrap
    wrap(PopulationGenerator, "draw", "population.draw")
    wrap(parallel, "plan_shards", "parallel.plan")
    wrap(engine.ShardLane, "__init__", "engine.lane_init")
    wrap(engine.ShardLane, "step", "engine.step", spec_of=lane_of)
    wrap(SimulatedInternet, "add_platform_from_spec", "internet.add_platform",
         spec_of=add_platform_spec)
    for population in ("email-servers", "ad-network"):
        wrap(measurement.MEASURES, population, "measurement.indirect",
             spec_of=second_spec)
    wrap(DirectProber, "probe", "prober.probe")
    wrap(Network, "query", "network.query")
    wrap(ResolutionPlatform, "resolve_for_client",
         "resolver.resolve_for_client")
    wrap(IterativeResolver, "resolve", "resolver.iterative")
    wrap(DnsCache, "get", "cache.get", after=count_hit)
    wrap(Zone, "lookup", "zone.lookup")
    wrap(Zone, "name_exists", "zone.name_exists")
    wrap(AuthoritativeServer, "handle_message", "authoritative.handle")
    wrap(QueryLog, "record", "querylog.record")
    wrap(CensusAggregates, "add_row", "census.fold", spec_of=second_spec)
    wrap(export.CensusWriter, "write_row", "export.write", spec_of=second_spec)
    wrap(export, "ndjson_line", "export.ndjson")
    wrap(export.CensusWriter, "_flush_chunk", "export.publish")

    # Every query log built from here on, so its retained entries can be
    # read off the lane worlds once the census ends.
    log_init = QueryLog.__init__

    def init_log(log: QueryLog, *args: Any, **kwargs: Any) -> None:
        log_init(log, *args, **kwargs)
        tracer.query_logs.add(log)

    QueryLog.__init__ = init_log    # type: ignore[method-assign]
