"""CDE018 fixture: hoistable allocations inside the fused corridor.

``_fused_probe_flat`` suffix-matches a default hot-path spec, so every
allocation the extractor records in it is a per-probe cost: an f-string,
a literal string concatenation, an all-constant display, and a generator
expression consumed by ``extend``.
"""


def _fused_probe_flat(steps: list[str], rows: list[str]) -> int:
    hits = 0
    for step in steps:
        label = f"probe-{step}"
        banner = "probe: " + step
        kinds = {"direct", "smtp"}
        if label in rows or banner in rows or step in kinds:
            hits += 1
        rows.extend(s for s in steps)
    return hits
