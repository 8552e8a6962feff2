"""CDE018: the fused corridor must not allocate what it can hoist.

The pipelined engine's whole speedup is the removal of per-probe Python
overhead — the fused frames replay the structured resolver path with
attribute reads and integer bumps, not object churn.  ZDNS makes the
same point at internet scale: throughput is won by disciplined hot
paths.  This rule keeps allocation discipline machine-checked as the
corridor grows.
"""

from __future__ import annotations

from typing import Iterator

from ..findings import Finding
from ..registry import ProjectContext, Rule, register


def hot_path_match(rel: str, qualname: str,
                   specs: tuple[str, ...]) -> bool:
    """Whether ``rel::qualname`` falls under a ``path::qualname`` spec
    (the spec's qualname covers itself and everything nested in it)."""
    for spec in specs:
        suffix, _, func = spec.partition("::")
        if not func:
            continue
        if not ("/" + rel).endswith("/" + suffix.lstrip("/")):
            continue
        if qualname == func or qualname.startswith(func + "."):
            return True
    return False


@register
class HotLoopAllocationRule(Rule):
    """No hoistable allocations inside the per-probe fused corridor.

    **Rationale.**  Every probe of every platform runs through the fused
    frames; an allocation there is multiplied by the census's total
    query budget (tens of millions at paper scale).  The structured
    resolver may build strings and temporaries freely — the corridor
    exists precisely so the per-probe path does not.  A stray f-string
    or throwaway comprehension is invisible to the equivalence tests
    (same rows, same draws) and only shows up as a silent qps
    regression in a 466-second benchmark.

    Flagged: f-strings, ``+``/``%``/``.format`` string building on
    literals, comprehensions consumed as a call's sole argument
    (``out.extend(e for e in ...)`` — write the loop, it skips the
    generator frame), and all-constant list/set/dict displays.  *Not*
    flagged: error paths (``raise``/``assert`` subtrees are cold), row
    construction (the product of the probe, inherently per-row), and
    comprehensions bound to a name (the sanctioned bulk idiom).

    **Example (bad).** ::

        def _fused_probe_flat(plan, qname, qtype):
            key = f"{qname}/{qtype}"          # built per probe

    **Fix guidance.**  Hoist the value to the ``_FastPlan`` built once
    per platform, intern it on the spec, or replace the builder with the
    precomputed attribute the structured path already carries.  The
    mechanical cases (placeholder-free f-strings, ``extend`` of a
    generator expression) are autofixable via ``--fix``.  Hot frames are
    configured as ``[tool.cdelint] hot-paths``.
    """

    rule_id = "CDE018"
    name = "hot-loop-allocation"
    summary = ("hoistable per-probe allocation inside the fused corridor "
               "or lane batch loops")

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        for rel in sorted(ctx.summaries):
            summary = ctx.summaries[rel]
            for func in summary.functions:
                if not hot_path_match(rel, func.qualname,
                                      ctx.config.hot_paths):
                    continue
                for site in func.allocs:
                    yield self.finding_at(
                        rel, site.line, site.col,
                        f"hot-loop allocation in {func.qualname}: "
                        f"{site.detail} ({site.kind}) — hoist it out of "
                        f"the per-probe corridor or intern it on the "
                        f"plan/spec",
                        symbol=func.qualname,
                    )
