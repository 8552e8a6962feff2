"""Memory-bound regression: census heap does not scale with census size.

A 50k-platform simulated census is folded and exported through the full
streaming pipeline under ``tracemalloc``; its Python-heap peak must stay
under a fixed budget and must not grow materially past a 10k census's
peak.  If someone reintroduces a whole-census list anywhere on the row
path (engine, fold, export), the 50k peak jumps ~5x and both asserts
fire.

The real census (``stream=True``: engine lanes with real worlds) gets the
same growth check at 1k and 5k platforms.  It holds only because each
lane retires a platform's world state once its row is out; a lane that
keeps its platforms, caches or query-log entries grows ~70 KiB of heap
per platform and fails it.

These run only with ``--runslow`` (the CI full job); tier-1 stays fast.
"""

from __future__ import annotations

import os
import tracemalloc

import pytest

from repro.study.census import run_census

pytestmark = pytest.mark.slow

#: Absolute heap budget for the 50k leg.  The pipeline's live set is one
#: export chunk + the aggregate bundle (a few MiB); the budget is fixed —
#: it deliberately does NOT scale with the platform count below.
HEAP_BUDGET_MIB = 48.0
#: A 5x census may cost at most this much more heap (noise headroom, not
#: growth: the streamed peak is effectively flat).
GROWTH_FACTOR = 1.5
CHUNK_ROWS = 2_000
REAL_CAPS = {"max_caches": 8, "max_ingress": 4, "max_egress": 8}
#: Below the small real leg's size, so both real legs hold a full chunk.
REAL_CHUNK_ROWS = 500


def _traced_peak_mib(count: int, out_root: str, real: bool = False) -> float:
    out_dir = os.path.join(out_root, f"census-{count}-{real}")
    tracemalloc.reset_peak()
    if real:
        result = run_census(count=count, seed=0, stream=True,
                            out_dir=out_dir, chunk_size=REAL_CHUNK_ROWS,
                            spec_caps=dict(REAL_CAPS))
    else:
        result = run_census(count=count, seed=0, simulate=True,
                            out_dir=out_dir, chunk_size=CHUNK_ROWS)
    _, peak = tracemalloc.get_traced_memory()
    assert result.aggregates.rows == count
    assert result.written_rows == count
    return peak / (1024.0 * 1024.0)


def test_50k_census_heap_stays_under_fixed_budget(tmp_path):
    tracemalloc.start()
    try:
        small = _traced_peak_mib(10_000, str(tmp_path))
        large = _traced_peak_mib(50_000, str(tmp_path))
    finally:
        tracemalloc.stop()

    assert large <= HEAP_BUDGET_MIB, (
        f"50k-platform census peaked at {large:.1f} MiB of heap; the fixed "
        f"budget is {HEAP_BUDGET_MIB:.0f} MiB — a whole-census buffer has "
        f"crept back onto the row path")
    assert large <= small * GROWTH_FACTOR + 1.0, (
        f"heap peak grew {large / small:.2f}x from 10k to 50k platforms "
        f"({small:.1f} → {large:.1f} MiB); the streaming census must not "
        f"scale with census size")


def test_real_census_heap_does_not_scale_with_platforms(tmp_path):
    tracemalloc.start()
    try:
        small = _traced_peak_mib(1_000, str(tmp_path), real=True)
        large = _traced_peak_mib(5_000, str(tmp_path), real=True)
    finally:
        tracemalloc.stop()

    assert large <= small * GROWTH_FACTOR + 1.0, (
        f"real-census heap peak grew {large / small:.2f}x from 1k to 5k "
        f"platforms ({small:.1f} → {large:.1f} MiB); a lane is keeping "
        f"per-platform world state after the platform's row is out")
