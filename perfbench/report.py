"""Run the census benchmark over several seeds and summarise it.

Usage, from the root of a checkout::

    python3 perfbench/report.py                  # all workloads, seeds 1-10
    python3 perfbench/report.py --workloads census-open --seeds 5
    python3 perfbench/report.py --trace --out perfbench/RESULTS.json

For each workload it runs ``run.py --trace 0`` once per seed and prints
every end-to-end metric with its unit, median, quartiles, sample count and
spread (the distance between the quartiles as a share of the median) next
to the bound in ``BENCHMARK.json``.  ``--trace`` adds one ``--trace 1`` run
per workload (first seed) and prints the per-layer metrics.  ``--out``
writes everything, with the machine it ran on, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int
        ) -> dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    print(f"  ran {workload} seed {seed} --trace {trace}", file=sys.stderr,
          flush=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report: dict[str, Any] = {
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform(),
                    "chunks": "NDJSON chunks on local disk under the "
                              "checkout (.perfbench/)"},
        "seeds": seeds, "seconds": args.seconds, "workloads": {}}
    print(f"machine: {report['machine']}", flush=True)
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        entry: dict[str, Any] = {
            # "<workload> seed <n>: ndjson sha256 <digest>" per census
            "sha256": {line.split()[2].rstrip(":"): line.split()[-1]
                       for r in runs for line in r["log"]
                       if "ndjson sha256" in line},
            "paths": [line.strip() for line in runs[0]["log"]
                      if line.strip().startswith("paths:")][0],
            "end_to_end": {}}
        print(f"\n{workload}: {len(seeds)} runs, {entry['paths']}",
              flush=True)
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1,
                "q3": q3, "spread": share, "bound": metric["bound"],
                "n": len(values), "values": values}
            print(f"  {metric['name']:<14} {median:>12.4f} "
                  f"{metric['unit']:<5} q1 {q1:.4f} q3 {q3:.4f} "
                  f"n={len(values)} spread {share:.3f} "
                  f"(bound {metric['bound']})")
        if args.trace:
            traced = run(workload, seeds[0], args.seconds, 1)
            entry["per_layer"] = {name: m["value"] for name, m
                                  in traced["metrics"].items()}
            print(f"  per-layer (seed {seeds[0]}):")
            for name, m in traced["metrics"].items():
                print(f"    {name:<30} {m['value']:>14.6g} {m['unit']}")
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
