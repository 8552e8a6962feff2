"""One census in a fresh process; prints one JSON result line.

Usage (from the checkout root; ``run.py`` is the normal entry point)::

    python3 perfbench/child.py MODE WORKLOAD SEED OUT_DIR [SPANS_FILE]

``MODE`` is ``census`` (untraced, through ``run_census`` as the CLI calls
it), ``setup`` (set-up only: import, spec draw, shard plan and lane worlds,
then exit) or ``traced`` (the census driven piece by piece under the layer
wrappers of :mod:`tracer`).  ``PERFBENCH_SPAWN`` holds the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
includes interpreter start-up.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import json  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import asdict  # noqa: E402
from typing import Any  # noqa: E402

from checks import check_export  # noqa: E402
from workloads import CAPS, CHUNK_ROWS, WORKLOADS, Workload  # noqa: E402


def _world(workload: Workload, seed: int) -> Any:
    from repro.study.internet import WorldConfig

    return WorldConfig(seed=seed, **workload.world)


def _perf_fields(perf: Any) -> dict[str, Any]:
    """The engine's merged counters (zeros on the simulate path)."""
    from repro.net.perf import PerfCounters

    perf = perf or PerfCounters()
    return {"queries": perf.queries_sent, "fused": perf.fused_probes,
            "fallback": perf.fallback_probes, **asdict(perf.stats)}


def run_untraced(workload: Workload, seed: int, out_dir: str,
                 spawn: float) -> dict[str, Any]:
    """``run_census`` exactly as ``python -m repro.cli census`` calls it."""
    from repro.study.census import run_census

    begin: list[float] = []
    if workload.engine:
        from repro.study import engine

        # Measurement begins once the lane worlds exist.
        engine_init = engine.PipelinedEngine.__init__

        def init(self: Any, tasks: Any) -> None:
            engine_init(self, tasks)
            begin.append(time.monotonic())

        engine.PipelinedEngine.__init__ = init  # type: ignore[method-assign]
    config = None if workload.simulate else _world(workload, seed)
    cpu = time.process_time()
    called = time.monotonic()
    result = run_census(population=workload.population, count=workload.count,
                        seed=seed, workers=0, config=config,
                        stream=workload.engine, simulate=workload.simulate,
                        out_dir=out_dir, chunk_size=CHUNK_ROWS,
                        spec_caps=dict(CAPS))
    ended = time.monotonic()
    cpu = time.process_time() - cpu
    start = begin[0] if begin else called
    fields = _perf_fields(result.perf)
    return {"setup_s": start - spawn, "wall_s": ended - start, "cpu_s": cpu,
            "folded": result.aggregates.rows,
            "written": result.written_rows,
            "rss_mb": result.peak_rss_mb, **fields}


def run_setup(workload: Workload, seed: int, spawn: float) -> dict[str, Any]:
    """Only what ``run_census`` does before its first probe."""
    from repro.study.census import iter_specs, run_census  # noqa: F401

    if workload.engine:
        from repro.study.engine import PipelinedEngine
        from repro.study.parallel import plan_shards

        specs = list(iter_specs(workload.population, workload.count,
                                seed=seed, **CAPS))
        PipelinedEngine(plan_shards(specs, base_seed=seed,
                                    config=_world(workload, seed)))
    return {"setup_s": time.monotonic() - spawn}


def run_traced(workload: Workload, seed: int, out_dir: str,
               spans_path: str) -> dict[str, Any]:
    """The census driven piece by piece under the layer wrappers."""
    import tracer as tracing
    from repro.net.perf import PerfCounters
    from repro.study import engine, parallel
    from repro.study.census import (
        CensusAggregates, iter_specs, simulate_census_rows)
    from repro.study.export import CensusWriter
    from repro.study.measurement import MeasurementBudget

    tracer = tracing.Tracer()
    tracing.install(tracer)
    confidence = MeasurementBudget().confidence
    meta = {"seed": seed, "population": workload.population,
            "count": workload.count, "simulate": workload.simulate}
    tracer.start_gc()
    started = time.perf_counter()
    lanes: list[Any] = []
    if workload.engine:
        specs = list(iter_specs(workload.population, workload.count,
                                seed=seed, **CAPS))
        tasks = parallel.plan_shards(specs, base_seed=seed,
                                     config=_world(workload, seed))
        pipeline = engine.PipelinedEngine(tasks)
        lanes = pipeline.lanes
        rows: Any = (row for _, row in pipeline.stream())
    else:
        rows = tracer.iterate(
            simulate_census_rows(workload.count, seed=seed,
                                 population=workload.population, **CAPS),
            "census.simulate")
    begin = time.perf_counter()
    aggregates = CensusAggregates()
    writer = CensusWriter(out_dir, chunk_size=CHUNK_ROWS, meta=meta)
    written = 0
    chunks = 0
    for row in rows:
        aggregates.add_row(row, confidence)
        if writer.write_row(row):
            written += 1
        if len(writer.chunks) != chunks:
            chunks = len(writer.chunks)
            aggregates.ledger.close_chunk()
    writer.close()
    ended = time.perf_counter()
    tracer.stop_gc()
    perf = PerfCounters()
    for lane in lanes:      # merged as stream_parallel_measurement does
        perf.add_shard(lane.outcome().perf)
    fields = _perf_fields(perf)
    tracer.write(spans_path)
    wall = ended - started
    self_total = sum(tracer.self_s)
    layers = {name: {"self_s": tracer.self_s[i], "calls": tracer.calls[i]}
              for i, name in enumerate(tracer.layers)}
    return {
        "wall_s": ended - begin, "traced_wall_s": wall,
        "folded": aggregates.rows, "written": written,
        "layers": layers, "coverage": self_total / wall,
        "spans": len(tracer.span_start), "cache_hits": tracer.cache_hits,
        "gc_pause_s": tracer.gc_pause_s,
        "gc_collections": tracer.gc_collections,
        "platforms_retained": sum(len(lane.world.platforms)
                                  for lane in lanes),
        "querylog_retained": sum(log.total_recorded - log.evicted
                                 for log in tracer.query_logs),
        **fields,
    }


def main(argv: list[str]) -> int:
    mode, name, seed_text, out_dir = argv[:4]
    spawn = float(os.environ["PERFBENCH_SPAWN"])
    workload = WORKLOADS[name]
    seed = int(seed_text)
    if tracemalloc.is_tracing():
        # tracemalloc slows the census about fivefold; no timing under it.
        print("refusing to time a census while tracemalloc is tracing",
              file=sys.stderr)
        return 2
    if mode == "setup":
        result = run_setup(workload, seed, spawn)
    else:
        if mode == "census":
            result = run_untraced(workload, seed, out_dir, spawn)
        elif mode == "traced":
            result = run_traced(workload, seed, out_dir, argv[4])
        else:
            raise SystemExit(f"unknown mode {mode!r}")
        result.update(check_export(workload, seed, out_dir, result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
