"""The in-process row stream holds no row it has already handed out.

``stream_parallel_measurement(workers=0)`` delivers rows through
:meth:`PipelinedEngine.stream`, whose per-lane reorder buffers hold at
most :data:`STREAM_BUFFER_ROWS` undelivered rows.  Once a row is yielded
and the consumer drops it, nothing on the stream path may keep it: a
stray ``rows.append(row)`` in any layer would turn the streaming census
back into an O(census) one.  This test holds only weak references to the
rows it receives and counts how many are still alive after each one, so
such a reference shows up within a few hundred rows.

This is the fast, tier-1 companion of tests/test_census_memory.py, which
measures the real census heap at 1k and 5k platforms under tracemalloc
(``--runslow``) and stays the check of record.
"""

from __future__ import annotations

import gc
import weakref

from repro.study import STREAM_BUFFER_ROWS, PopulationGenerator
from repro.study.parallel import stream_parallel_measurement

ROWS = 400
N_SHARDS = 4
CAPS = {"max_caches": 8, "max_ingress": 4, "max_egress": 8}


def _live(refs: list[weakref.ref]) -> int:
    return sum(1 for ref in refs if ref() is not None)


def test_streamed_rows_are_released_once_consumed():
    specs = PopulationGenerator("open-resolvers", seed=5,
                                **CAPS).draw_many(ROWS)
    stream = stream_parallel_measurement(specs, base_seed=5, workers=0,
                                         n_shards=N_SHARDS)
    bound = STREAM_BUFFER_ROWS * N_SHARDS
    refs: list[weakref.ref] = []
    for row in stream:
        refs.append(weakref.ref(row))
        del row
        live = _live(refs)
        if live > bound:
            gc.collect()        # rule out garbage that is merely uncollected
            live = _live(refs)
        assert live <= bound, (
            f"{live} of {len(refs)} yielded rows still alive (bound "
            f"{bound} = STREAM_BUFFER_ROWS x {N_SHARDS} shards): a layer "
            f"of the stream keeps rows it has already delivered")
    assert len(refs) == ROWS
    assert stream.perf is not None
