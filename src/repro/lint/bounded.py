"""Allocation and checkpoint-write facts (the cdebound extraction layer).

CDE018 and CDE019 run on these facts.  They are config-independent pure
functions of a file's bytes, so they live in the content-hash-keyed
summary cache and replay warm:

* **Allocation sites** (:class:`AllocSite`) — hoistable per-iteration
  allocations: f-strings, ``+``/``%``/``.format`` string building on
  literals, comprehensions consumed as a call's sole argument
  (``x.extend(e for e in ...)``), and all-constant list/set/dict
  displays.  Sites inside ``raise``/``assert`` subtrees are skipped
  (failure paths are cold by construction).  Ordinary constructor calls
  are *not* recorded: a measurement row must be constructed per probe —
  that allocation is the product, not waste.

* **Write-open sites** (:class:`OpenSite`) — ``open()`` calls whose mode
  creates or truncates, with a static judgement of whether the target
  path is a ``.part`` staging name, plus a per-function fact for
  ``os.replace``/``os.rename`` calls.  Together these let CDE019 prove
  the ``.part``-then-rename atomic checkpoint pattern.

Whether the streaming census stays bounded is checked at run time, not
here: ``tests/test_stream_retention.py`` (tier-1) and
``tests/test_census_memory.py`` (the slow check of record).
"""


from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Optional

from .astutil import resolve_call_target

#: Call targets that atomically publish a staged file.
RENAME_CALLS = frozenset({"os.replace", "os.rename", "shutil.move"})


@dataclass(frozen=True, order=True)
class AllocSite:
    """One hoistable per-iteration allocation site."""

    line: int
    col: int
    kind: str       # "f-string" | "str-concat" | "str-format"
                    # | "comprehension" | "const-display"
    detail: str     # short human label ("extend(...)", "[...] literal")

    def to_json(self) -> list[object]:
        return [self.line, self.col, self.kind, self.detail]

    @classmethod
    def from_json(cls, raw: list[object]) -> "AllocSite":
        return cls(line=int(raw[0]), col=int(raw[1]),  # type: ignore[arg-type]
                   kind=str(raw[2]), detail=str(raw[3]))


@dataclass(frozen=True, order=True)
class OpenSite:
    """One write-mode ``open()`` call."""

    line: int
    col: int
    mode: str       # the constant mode string, or "?" when dynamic
    part: bool      # the path argument is a ".part" staging name

    def to_json(self) -> list[object]:
        return [self.line, self.col, self.mode, self.part]

    @classmethod
    def from_json(cls, raw: list[object]) -> "OpenSite":
        return cls(line=int(raw[0]), col=int(raw[1]),  # type: ignore[arg-type]
                   mode=str(raw[2]), part=bool(raw[3]))


@dataclass(frozen=True)
class BoundedFacts:
    """The cdebound slice of one function's summary."""

    allocs: tuple[AllocSite, ...]
    opens: tuple[OpenSite, ...]
    renames: bool


# ---------------------------------------------------------------------------
# the one-pass walker
# ---------------------------------------------------------------------------

class _Walker:
    """Own-body walk tracking cold (raise/assert) scope."""

    def __init__(self, func: ast.AST, aliases: dict[str, str]):
        self.aliases = aliases
        self.allocs: list[AllocSite] = []
        self.opens: list[OpenSite] = []
        self.renames = False
        #: first value bound to each local name (for ``.part`` chasing)
        self.assigns: dict[str, ast.expr] = {}
        for stmt in ast.iter_child_nodes(func):
            self._visit(stmt, cold=False)

    # -- dispatch -----------------------------------------------------------

    def _visit(self, node: ast.AST, cold: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return      # nested defs are their own call-graph nodes
        if isinstance(node, (ast.Raise, ast.Assert)):
            cold = True
        children: Iterable[ast.AST]
        if isinstance(node, (ast.For, ast.AsyncFor)):
            children = [node.iter, *node.body, *node.orelse]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            # assignment targets are stores: only the value can allocate
            if node.value is None:
                return
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.assigns.setdefault(target.id, node.value)
            elif (isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)):
                self.assigns.setdefault(node.target.id, node.value)
            children = [node.value]
        elif isinstance(node, ast.JoinedStr):
            if not cold:
                self.allocs.append(AllocSite(
                    line=node.lineno, col=node.col_offset,
                    kind="f-string", detail="f-string built per iteration"))
            # constants inside need no walk; formatted values do
            children = [value.value for value in node.values
                        if isinstance(value, ast.FormattedValue)]
        else:
            if isinstance(node, ast.Call):
                self._handle_call(node, cold)
            elif isinstance(node, ast.BinOp):
                self._handle_binop(node, cold)
            elif isinstance(node, (ast.List, ast.Set, ast.Dict)):
                self._handle_display(node, cold)
            children = ast.iter_child_nodes(node)
        for child in children:
            self._visit(child, cold)

    # -- calls / allocations ------------------------------------------------

    def _handle_call(self, node: ast.Call, cold: bool) -> None:
        dotted = resolve_call_target(node.func, self.aliases)
        if dotted in RENAME_CALLS:
            self.renames = True
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "format"
                and isinstance(node.func.value, ast.Constant)
                and isinstance(node.func.value.value, str)
                and not cold):
            self.allocs.append(AllocSite(
                line=node.lineno, col=node.col_offset, kind="str-format",
                detail="'literal'.format(...) built per iteration"))
        if (not cold and len(node.args) == 1 and not node.keywords
                and isinstance(node.args[0], (ast.ListComp, ast.SetComp,
                                              ast.DictComp,
                                              ast.GeneratorExp))):
            label = (node.func.attr if isinstance(node.func, ast.Attribute)
                     else node.func.id if isinstance(node.func, ast.Name)
                     else "call")
            self.allocs.append(AllocSite(
                line=node.args[0].lineno, col=node.args[0].col_offset,
                kind="comprehension",
                detail=f"comprehension consumed by {label}(...)"))
        self._maybe_open(node)

    def _handle_binop(self, node: ast.BinOp, cold: bool) -> None:
        if cold:
            return
        if isinstance(node.op, ast.Add):
            for side in (node.left, node.right):
                if ((isinstance(side, ast.Constant)
                        and isinstance(side.value, str))
                        or isinstance(side, ast.JoinedStr)):
                    self.allocs.append(AllocSite(
                        line=node.lineno, col=node.col_offset,
                        kind="str-concat",
                        detail="string concatenation per iteration"))
                    return
        if (isinstance(node.op, ast.Mod)
                and isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)):
            self.allocs.append(AllocSite(
                line=node.lineno, col=node.col_offset, kind="str-format",
                detail="'literal' % ... built per iteration"))

    def _handle_display(self, node: ast.AST, cold: bool) -> None:
        if cold:
            return
        if isinstance(node, ast.Dict):
            elements = [e for e in node.keys if e is not None] + node.values
        else:
            elements = list(node.elts)  # type: ignore[attr-defined]
        if elements and all(isinstance(e, ast.Constant) for e in elements):
            self.allocs.append(AllocSite(
                line=node.lineno,  # type: ignore[attr-defined]
                col=node.col_offset,  # type: ignore[attr-defined]
                kind="const-display",
                detail="all-constant container display rebuilt per "
                       "iteration (hoist to a module constant)"))

    # -- open() -------------------------------------------------------------

    def _maybe_open(self, node: ast.Call) -> None:
        dotted = resolve_call_target(node.func, self.aliases)
        if dotted not in {"open", "io.open"}:
            return
        mode_arg: Optional[ast.expr] = None
        if len(node.args) >= 2:
            mode_arg = node.args[1]
        else:
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode_arg = keyword.value
        if mode_arg is None:
            return          # default "r": reads never corrupt a checkpoint
        if isinstance(mode_arg, ast.Constant) and isinstance(
                mode_arg.value, str):
            mode = mode_arg.value
            if not any(flag in mode for flag in "wax"):
                return
        else:
            mode = "?"      # dynamic mode: conservatively a write
        path_arg: Optional[ast.expr] = node.args[0] if node.args else None
        if path_arg is None:
            for keyword in node.keywords:
                if keyword.arg == "file":
                    path_arg = keyword.value
        self.opens.append(OpenSite(
            line=node.lineno, col=node.col_offset, mode=mode,
            part=self._is_part_path(path_arg, seen=set())))

    def _is_part_path(self, expr: Optional[ast.expr],
                      seen: set[str]) -> bool:
        if expr is None:
            return False
        if isinstance(expr, ast.Constant):
            return isinstance(expr.value, str) and expr.value.endswith(
                ".part")
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            return self._is_part_path(expr.right, seen)
        if isinstance(expr, ast.JoinedStr) and expr.values:
            tail = expr.values[-1]
            return (isinstance(tail, ast.Constant)
                    and isinstance(tail.value, str)
                    and tail.value.endswith(".part"))
        if (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in {"with_suffix", "with_name"}):
            return any(self._is_part_path(arg, seen) for arg in expr.args)
        if isinstance(expr, ast.Name) and expr.id not in seen:
            seen.add(expr.id)
            return self._is_part_path(self.assigns.get(expr.id), seen)
        return False

    # -- result -------------------------------------------------------------

    def facts(self) -> BoundedFacts:
        return BoundedFacts(
            allocs=tuple(sorted(set(self.allocs))),
            opens=tuple(sorted(set(self.opens))),
            renames=self.renames,
        )


def extract_bounded_facts(func: ast.AST,
                          aliases: dict[str, str]) -> BoundedFacts:
    """The cdebound facts of one function's own body."""
    return _Walker(func, aliases).facts()
