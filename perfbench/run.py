"""Census benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload census-open --seed 1 \
        --seconds 28 --trace 0

``--trace 0`` runs untraced censuses until ``--seconds`` is used up (at
least two), each in a fresh process on its own population drawn from the
seed (census ``i`` of a run uses seed ``1000 * seed + i``), and reports
the end-to-end metrics as medians over them: ``rows_per_s``,
``queries_per_s``, ``peak_rss_mb``, ``setup_s``, ``exact_share`` and
``ok_share``.  ``--trace 1`` runs one untraced and one
traced census of the same seed and reports the per-layer metrics.  Every
census export is checked (see ``checks.py``); the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Human-readable lines (each metric with its unit and sample
count, the NDJSON sha256 per workload and seed) come before it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Workload  # noqa: E402

#: Fewest untraced censuses one ``--trace 0`` run takes.
MIN_CENSUSES = 2
#: Set-up-only processes after each census of a ``--trace 0`` run, for a
#: steadier ``setup_s`` median.
SETUP_PROBES = 2
#: Wall-clock limit for any one child process.
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


class CheckFailed(BenchError):
    """A census ran but its export failed a check."""

    def __init__(self, message: str, attempted: int):
        super().__init__(message)
        self.attempted = attempted


def spawn(mode: str, workload: Workload, seed: int, work: str,
          *extra: str) -> dict[str, Any]:
    """Run ``child.py`` in a fresh process; return its JSON result."""
    out = tempfile.mkdtemp(prefix=f"{mode}-", dir=work)
    env = dict(os.environ)
    env["PERFBENCH_SPAWN"] = repr(time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), mode,
             workload.name, str(seed), os.path.join(out, "census"), *extra],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} census of {workload.name} took over "
                         f"{CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{mode} census of {workload.name} failed:\n"
                         f"{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result.get("errors"):
        raise CheckFailed(f"{mode} census of {workload.name} seed {seed} "
                          "failed its checks:\n  "
                          + "\n  ".join(result["errors"]), workload.count)
    return result


def queries_of(workload: Workload, result: dict[str, Any]) -> int:
    """Methodology probes sent: the engine's ``perf.queries_sent``, or the
    synthetic rows' ``queries_used`` on the simulate path."""
    return result["queries"] if workload.engine else result["queries_used"]


def show(name: str, values: list[float], unit: str) -> None:
    low, high = (min(values), max(values))
    print(f"  {name:<14} {statistics.median(values):>12.4f} {unit:<5} "
          f"(median of n={len(values)}, range {low:.4f}..{high:.4f})")


def census_seed(seed: int, index: int) -> int:
    """The seed of census ``index`` of a run with ``--seed seed``."""
    return seed * 1000 + index


def run_untraced(workload: Workload, seed: int, seconds: float,
                 work: str) -> tuple[dict[str, Any], int]:
    # Each census of a run draws its own population, so the run's medians
    # average over populations as well as over the machine's speed drift.
    # Set-up probes sit between the censuses for the same reason.
    censuses: list[dict[str, Any]] = []
    setups: list[float] = []
    started = time.monotonic()
    while True:
        census = spawn("census", workload, census_seed(seed, len(censuses)),
                       work)
        censuses.append(census)
        setups.append(census["setup_s"])
        setups += [spawn("setup", workload, census_seed(seed, 0),
                         work)["setup_s"] for _ in range(SETUP_PROBES)]
        elapsed = time.monotonic() - started
        # Stop before a census that would end past ``seconds``.
        if len(censuses) >= MIN_CENSUSES and \
                elapsed * (1 + 1 / len(censuses)) > seconds:
            break
    count = workload.count
    for index, census in enumerate(censuses):
        print(f"{workload.name} seed {census_seed(seed, index)}: "
              f"ndjson sha256 {census['sha256']}")
    first = censuses[0]
    print(f"  paths: fused {first['fused']}, fallback {first['fallback']}, "
          f"indirect rows {first['indirect']}/{count}, fault-exposed rows "
          f"{first['exposed']}/{count}")
    samples = {
        "rows_per_s": ([count / c["wall_s"] for c in censuses], "1/s"),
        "queries_per_s": ([queries_of(workload, c) / c["wall_s"]
                           for c in censuses], "1/s"),
        "peak_rss_mb": ([c["rss_mb"] for c in censuses], "MiB"),
        "setup_s": (setups, "s"),
        "exact_share": ([c["exact"] / count for c in censuses], "ratio"),
        "ok_share": ([1 - c["failed"] / count for c in censuses], "ratio"),
    }
    for name, (values, unit) in samples.items():
        show(name, values, unit)
    metrics = {name: (statistics.median(values), unit)
               for name, (values, unit) in samples.items()}
    return metrics, len(censuses)


def run_traced(workload: Workload, seed: int, work: str
               ) -> dict[str, Any]:
    plain = spawn("census", workload, seed, work)
    spans = os.path.join(work, f"spans-{workload.name}-{seed}.bin")
    traced = spawn("traced", workload, seed, work, spans)
    if traced["sha256"] != plain["sha256"]:
        raise BenchError("traced NDJSON differs from untraced: "
                         f"{traced['sha256']} != {plain['sha256']}")
    for key in ("fused", "fallback", "queries"):
        if traced[key] != plain[key]:
            raise BenchError(f"traced {key} {traced[key]} != "
                             f"untraced {plain[key]}")
    count = workload.count
    layers = traced["layers"]

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def calls(layer: str) -> int:
        return layers.get(layer, {}).get("calls", 0)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    probes = traced["fused"] + traced["fallback"]
    gc_runs = traced["gc_collections"]
    seconds = "s"
    values: dict[str, tuple[float, str]] = {
        "population.draw_s": (self_s("population.draw"), seconds),
        "population.draws": (calls("population.draw"), "count"),
        "parallel.plan_s": (self_s("parallel.plan"), seconds),
        "engine.lane_init_s": (self_s("engine.lane_init"), seconds),
        "engine.step_s": (self_s("engine.step"), seconds),
        "engine.steps": (calls("engine.step"), "count"),
        "engine.fused_probes": (traced["fused"], "count"),
        "engine.fallback_probes": (traced["fallback"], "count"),
        "engine.fused_share": (share(traced["fused"], probes), "ratio"),
        "internet.add_platform_s": (self_s("internet.add_platform"), seconds),
        "internet.platforms_retained": (traced["platforms_retained"],
                                        "count"),
        "measurement.indirect_s": (self_s("measurement.indirect"), seconds),
        "measurement.indirect_rows": (traced["indirect"], "count"),
        "prober.probe_s": (self_s("prober.probe"), seconds),
        "prober.probes": (calls("prober.probe"), "count"),
        "prober.queries_per_row": (queries_of(workload, traced) / count,
                                   "count"),
        "prober.retries": (traced["retries"], "count"),
        "prober.gave_up": (traced["gave_up"], "count"),
        "network.query_s": (self_s("network.query"), seconds),
        "network.queries": (calls("network.query"), "count"),
        "network.messages_sent": (traced["messages_sent"], "count"),
        "network.delivered_ratio": (share(traced["messages_delivered"],
                                          traced["messages_sent"]), "ratio"),
        "network.timeouts": (traced["timeouts"], "count"),
        "network.retransmissions": (traced["retransmissions"], "count"),
        "network.faults_injected": (traced["faults_injected"], "count"),
        "resolver.resolve_for_client_s": (
            self_s("resolver.resolve_for_client"), seconds),
        "resolver.iterative_s": (self_s("resolver.iterative"), seconds),
        "resolver.calls": (calls("resolver.resolve_for_client"), "count"),
        "cache.get_s": (self_s("cache.get"), seconds),
        "cache.gets": (calls("cache.get"), "count"),
        "cache.hit_ratio": (share(traced["cache_hits"], calls("cache.get")),
                            "ratio"),
        "zone.lookup_s": (self_s("zone.lookup"), seconds),
        "zone.name_exists_s": (self_s("zone.name_exists"), seconds),
        "zone.name_exists_calls": (calls("zone.name_exists"), "count"),
        "authoritative.handle_s": (self_s("authoritative.handle"), seconds),
        "authoritative.messages": (calls("authoritative.handle"), "count"),
        "querylog.record_s": (self_s("querylog.record"), seconds),
        "querylog.records": (calls("querylog.record"), "count"),
        "querylog.retained": (traced["querylog_retained"], "count"),
        "census.simulate_s": (self_s("census.simulate"), seconds),
        "census.fold_s": (self_s("census.fold"), seconds),
        "census.rows": (traced["folded"], "count"),
        "export.write_s": (self_s("export.write"), seconds),
        "export.ndjson_s": (self_s("export.ndjson"), seconds),
        "export.publish_s": (self_s("export.publish"), seconds),
        "export.bytes": (traced["bytes"], "bytes"),
        "export.chunks": (traced["chunks"], "count"),
        "gc.pause_s": (traced["gc_pause_s"], seconds),
        "gc.pause_share": (share(traced["gc_pause_s"],
                                 traced["traced_wall_s"]), "ratio"),
        "gc.collections_gen0": (gc_runs[0], "count"),
        "gc.collections_gen1": (gc_runs[1], "count"),
        "gc.collections_gen2": (gc_runs[2], "count"),
        "trace.coverage": (traced["coverage"], "ratio"),
        "trace.overhead": (share(count / traced["wall_s"],
                                 count / plain["wall_s"]), "ratio"),
        "trace.spans": (traced["spans"], "count"),
        "trace.wall_s": (traced["traced_wall_s"], seconds),
    }
    print(f"{workload.name} seed {seed}: ndjson sha256 {plain['sha256']} "
          "(untraced) == traced")
    for name, (value, unit) in values.items():
        print(f"  {name:<30} {value:>14.6g} {unit} (n=1)")
    return values


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench")
    os.makedirs(work, exist_ok=True)
    try:
        if args.trace:
            values = run_traced(workload, args.seed, work)
            censuses = 2
        else:
            values, censuses = run_untraced(workload, args.seed,
                                            args.seconds, work)
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.attempted,
                          "failed": exc.attempted, "metrics": {}}))
        return 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": censuses * workload.count,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
