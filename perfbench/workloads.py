"""The census workloads: what each one runs and which path it must take.

Every workload is one closed-loop census driven in-process
(``workers=0``) with the CLI's population caps.  The platform count is part
of the workload, because rows/s falls as a run retains more world state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: The ``python -m repro.cli census`` default population caps.
CAPS = {"max_caches": 8, "max_ingress": 4, "max_egress": 8}

#: Rows per NDJSON chunk (the CLI default).
CHUNK_ROWS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    population: str
    count: int
    simulate: bool = False
    #: ``WorldConfig`` fields beyond ``seed`` (engine workloads only).
    world: dict[str, Any] = field(default_factory=dict)
    #: The path this workload was chosen for; checked on every run.
    guard: str = ""

    @property
    def engine(self) -> bool:
        return not self.simulate


WORKLOADS = {w.name: w for w in (
    # The real census: every probe rides the fused corridor, and retained
    # per-platform world state drives RSS and GC.
    Workload("census-open", "open-resolvers", 5000, guard="fused-only"),
    # Faults and retries switch the fused plan off: every probe takes the
    # structured prober -> network -> resolver -> cache -> authoritative path.
    Workload("census-lossy", "open-resolvers", 1000,
             world={"fault_profile": "loss-default",
                    "retry_profile": "paper"},
             guard="structured-only"),
    # Indirect ingress through SMTP bounce handling; whole-platform turns.
    Workload("census-smtp", "email-servers", 150, guard="indirect-only"),
    # No worlds: population draw, fold and NDJSON export do all the work.
    Workload("census-sim", "open-resolvers", 120_000, simulate=True),
)}
