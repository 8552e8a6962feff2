"""CDE018 fixture (good): the same corridor with allocations hoisted.

The constant display is interned at module level, string building joins
two *names* (no literal operand, nothing rebuilt from constants), and the
generator-expression ``extend`` is unrolled into an explicit loop — no
throwaway frame or container per probe.
"""

_KINDS = ("direct", "smtp")


def _fused_probe_flat(steps: list[str], rows: list[str]) -> int:
    hits = 0
    prefix = "probe-"
    for step in steps:
        label = prefix + step
        if label in rows or step in _KINDS:
            hits += 1
        for entry in steps:
            rows.append(entry)
    return hits
