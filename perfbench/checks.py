"""Output checks run on every census export, traced or not."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

from workloads import Workload


def check_export(workload: Workload, seed: int, out_dir: str,
                 result: dict[str, Any]) -> dict[str, Any]:
    """Read the export back, check it, and count what the metrics need.

    Checks: the fold saw ``count`` rows, the writer wrote ``count`` rows,
    the manifest is complete and every chunk matches its recorded sha256
    and row count, and row ``i`` is platform ``i + 1`` of the population.
    Then the workload's path guard.
    """
    from repro.study.export import read_census_manifest

    count = workload.count
    errors: list[str] = []
    if result["folded"] != count:
        errors.append(f"fold saw {result['folded']} rows, not {count}")
    if result["written"] != count:
        errors.append(f"writer wrote {result['written']} rows, not {count}")
    manifest = read_census_manifest(out_dir)
    if not manifest.get("complete"):
        errors.append("manifest is not complete")
    if manifest.get("rows") != count:
        errors.append(f"manifest records {manifest.get('rows')} rows")
    digest = hashlib.sha256()
    rows = exact = failed = indirect = exposed = 0
    queries = retries = gave_up = size = 0
    for chunk in manifest["chunks"]:
        with open(os.path.join(out_dir, chunk["name"]), "rb") as handle:
            blob = handle.read()
        if hashlib.sha256(blob).hexdigest() != chunk["sha256"]:
            errors.append(f"{chunk['name']} does not match its sha256")
        digest.update(blob)
        size += len(blob)
        lines = blob.splitlines()
        if len(lines) != chunk["rows"]:
            errors.append(f"{chunk['name']} holds {len(lines)} rows, "
                          f"manifest says {chunk['rows']}")
        for line in lines:
            row = json.loads(line)
            rows += 1
            if row["name"] != f"{workload.population}-{rows}":
                errors.append(f"row {rows} is {row['name']}")
                break
            exact += row["measured_caches"] == row["true_caches"]
            indirect += row["technique"] != "direct"
            queries += row["queries_used"]
            resilience = row.get("resilience")
            if resilience is not None:
                retries += resilience["retries"]
                gave_up += resilience["gave_up"]
                failed += resilience["gave_up"] > 0
                exposed += bool(resilience["fault_exposure"])
    failed += count - rows        # a platform without a row failed too
    if rows != count:
        errors.append(f"export holds {rows} rows, not {count}")

    if workload.guard == "fused-only" and (
            result["fallback"] != 0 or result["fused"] == 0):
        errors.append(f"path guard: {result['fallback']} fallback probes "
                      f"({result['fused']} fused), expected fused only")
    if workload.guard == "structured-only" and (
            result["fused"] != 0 or result["fallback"] == 0):
        errors.append(f"path guard: {result['fused']} fused probes "
                      f"({result['fallback']} fallback), expected none fused")
    if workload.guard == "indirect-only" and indirect != count:
        errors.append(f"path guard: {count - indirect} direct rows, "
                      "expected indirect rows only")
    return {"sha256": digest.hexdigest(), "rows": rows, "exact": exact,
            "failed": failed, "indirect": indirect, "exposed": exposed,
            "queries_used": queries, "retries": retries, "gave_up": gave_up,
            "bytes": size, "chunks": len(manifest["chunks"]),
            "errors": errors}
