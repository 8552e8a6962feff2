"""Address-provenance and cache-identity facts (the cdetopo layer).

The paper's CDE techniques hinge on a correct ingress→cache mapping, and
the population-realism roadmap deliberately breaks it: transparent
forwarders spoof-forward the client source address, ISP frontends share
one cache across many ingress identities, NATed pools rewrite egress
addresses.  Before the component zoo grows, every resolver/server class
must *declare* what it does to the identities cache counting depends on,
and the declarations must be proven against the code.  This module
extracts the static facts the CDE020–CDE022 rules prove that contract
with — all config-independent pure functions of a file's bytes, so they
live in the content-hash-keyed summary cache and replay warm:

* **Address sites** (:class:`AddrSite`) — source/egress addresses
  escaping into upstream ``Network.query`` sends or ``QueryLog``
  records.  Each site classifies the address's *origin*: a parameter
  flowing through unchanged is a spoof-preserve (the transparent-
  forwarder signature); a ``self``-rooted value is a rewrite (the
  platform's own identity replaces the client's).  Sites carry a
  def-use witness in the cdeflow hop format (``name@line``).
* **Cache sites** (:class:`CacheSite`) — which component owns each
  cache object (``self.<cache attr> = ...``) and where a cache value is
  passed into another component's constructor.  Two ingress identities
  sharing one cache object is exactly the bias the paper's counting is
  blind to.
* **TTL sites** (:class:`TtlSite`) — arithmetic that could *extend* a
  stored TTL (additive self-reference, ``max(...)`` folds, configured
  ``with_ttl`` rewrites).  Honest caches only ever count down.

Components declare their contract with ``# cdelint:
component=<role>(attrs)`` markers on class definitions (or a
``[tool.cdelint] components`` table); :func:`module_components` binds
the markers, and the rules check declared roles against extracted
behaviour.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from typing import Iterator, Optional

from .astutil import dotted_name

#: The component-role taxonomy (docs/STATIC_ANALYSIS.md).  Roles name
#: what the component *is* on the resolution path; attributes name what
#: it is allowed to *do* to addresses, caches and logs.
COMPONENT_ROLES = frozenset({
    "anycast-ingress", "authoritative", "cache", "client", "forwarder",
    "frontend", "nat-pool", "recursive", "transparent-forwarder",
})

COMPONENT_ATTRS = frozenset({
    "logs-source", "owns-cache", "rewrites-source", "shared-cache",
    "spoofs-source",
})

#: AddrSite kinds that send a query upstream (vs. logging/registration).
FORWARD_KINDS = frozenset({"spoof-forward", "rewrite-forward"})


@dataclass(frozen=True, order=True)
class AddrSite:
    """One source/egress address escaping into a send, log or binding."""

    line: int
    col: int
    kind: str   # "spoof-forward" | "rewrite-forward" | "log-source"
                # | "log-rewrite" | "register" | "register-many"
    src: str    # origin key: "param:src_ip", "attr:self.listen_ip", ...
    dest: str   # sink: "query", the log constructor name, "register"
    hops: tuple[str, ...]   # def-use witness ("src_ip@63", "query@63")

    def to_json(self) -> list[object]:
        return [self.line, self.col, self.kind, self.src, self.dest,
                list(self.hops)]

    @classmethod
    def from_json(cls, raw: list[object]) -> "AddrSite":
        return cls(line=int(raw[0]), col=int(raw[1]),  # type: ignore[arg-type]
                   kind=str(raw[2]), src=str(raw[3]), dest=str(raw[4]),
                   hops=tuple(str(h) for h in raw[5]))  # type: ignore[union-attr]


@dataclass(frozen=True, order=True)
class CacheSite:
    """One cache-ownership or cache-passing site."""

    line: int
    col: int
    kind: str   # "own" (self.<attr> = <cache value>) | "pass" (ctor arg)
    attr: str   # owned attribute ("self.cache") or constructor name
    value: str  # value descriptor: "param:cache", "call:DnsCache", dotted

    def to_json(self) -> list[object]:
        return [self.line, self.col, self.kind, self.attr, self.value]

    @classmethod
    def from_json(cls, raw: list[object]) -> "CacheSite":
        return cls(line=int(raw[0]), col=int(raw[1]),  # type: ignore[arg-type]
                   kind=str(raw[2]), attr=str(raw[3]), value=str(raw[4]))


@dataclass(frozen=True, order=True)
class TtlSite:
    """One TTL-arithmetic site that could extend a stored TTL."""

    line: int
    col: int
    kind: str    # "extend" (additive/max self-reference) | "rewrite"
    target: str  # the TTL-ish target dotted path, or "with_ttl"
    detail: str  # short human label

    def to_json(self) -> list[object]:
        return [self.line, self.col, self.kind, self.target, self.detail]

    @classmethod
    def from_json(cls, raw: list[object]) -> "TtlSite":
        return cls(line=int(raw[0]), col=int(raw[1]),  # type: ignore[arg-type]
                   kind=str(raw[2]), target=str(raw[3]), detail=str(raw[4]))


@dataclass(frozen=True, order=True)
class ComponentDecl:
    """One class and its (possibly empty) component declaration."""

    name: str                  # dotted class path within the module
    line: int
    role: str                  # "" when the class carries no marker
    attrs: tuple[str, ...]

    def to_json(self) -> list[object]:
        return [self.name, self.line, self.role, list(self.attrs)]

    @classmethod
    def from_json(cls, raw: list[object]) -> "ComponentDecl":
        return cls(name=str(raw[0]), line=int(raw[1]),  # type: ignore[arg-type]
                   role=str(raw[2]),
                   attrs=tuple(str(a) for a in raw[3]))  # type: ignore[union-attr]


@dataclass(frozen=True)
class TopoFacts:
    """The cdetopo slice of one function's summary."""

    addr: tuple[AddrSite, ...]
    caches: tuple[CacheSite, ...]
    ttls: tuple[TtlSite, ...]


# ---------------------------------------------------------------------------
# component markers
# ---------------------------------------------------------------------------

_COMPONENT_RE = re.compile(
    r"#\s*cdelint:\s*component\s*=\s*(?P<role>[A-Za-z][A-Za-z-]*)"
    r"\s*(?:\((?P<attrs>[^)]*)\))?"
)


def parse_component_markers(
    source: str,
) -> dict[int, tuple[str, tuple[str, ...]]]:
    """``# cdelint: component=<role>(attrs)`` comments, by line number."""
    markers: dict[int, tuple[str, tuple[str, ...]]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return markers
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _COMPONENT_RE.search(token.string)
        if match is None:
            continue
        attrs = tuple(sorted(
            part.strip() for part in (match.group("attrs") or "").split(",")
            if part.strip()
        ))
        markers[token.start[0]] = (match.group("role"), attrs)
    return markers


def parse_component_table(
    entries: tuple[str, ...],
) -> dict[str, tuple[str, tuple[str, ...]]]:
    """``ClassName=role(attrs)`` config entries as name -> (role, attrs)."""
    table: dict[str, tuple[str, tuple[str, ...]]] = {}
    for entry in entries:
        name, _, decl = entry.partition("=")
        match = re.fullmatch(
            r"(?P<role>[A-Za-z][A-Za-z-]*)\s*(?:\((?P<attrs>[^)]*)\))?",
            decl.strip())
        if match is None:
            raise ValueError(
                f"[tool.cdelint] components entry {entry!r} is not "
                f"'ClassName=role(attr, ...)'")
        attrs = tuple(sorted(
            part.strip() for part in (match.group("attrs") or "").split(",")
            if part.strip()
        ))
        table[name.strip()] = (match.group("role"), attrs)
    return table


def module_components(
    tree: ast.Module,
    markers: dict[int, tuple[str, tuple[str, ...]]],
) -> dict[str, ComponentDecl]:
    """Every class in the module with its bound component marker.

    A marker binds on the ``class`` line or the line above it.  Unmarked
    classes are recorded with an empty role so the rules can tell
    "undeclared component" apart from "not a class at all".
    """

    def visit(node: ast.AST, prefix: str) -> Iterator[ComponentDecl]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                path = f"{prefix}.{child.name}" if prefix else child.name
                role, attrs = (markers.get(child.lineno)
                               or markers.get(child.lineno - 1)
                               or ("", ()))
                yield ComponentDecl(name=path, line=child.lineno,
                                    role=role, attrs=attrs)
                yield from visit(child, path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                path = f"{prefix}.{child.name}" if prefix else child.name
                yield from visit(child, path)
            else:
                yield from visit(child, prefix)

    return {decl.name: decl for decl in visit(tree, "")}


def effective_contract(
    decl: ComponentDecl,
    table: dict[str, tuple[str, tuple[str, ...]]],
) -> tuple[str, tuple[str, ...]]:
    """The contract in force for a class: its in-source marker, else its
    ``[tool.cdelint] components`` table entry, else ``("", ())``."""
    if decl.role:
        return decl.role, decl.attrs
    simple = decl.name.rsplit(".", 1)[-1]
    if simple in table:
        return table[simple]
    return "", ()


def owning_class(qualname: str,
                 components: dict[str, ComponentDecl]) -> Optional[str]:
    """The longest declared class path that is a proper prefix of
    ``qualname`` (handles methods and defs nested inside methods)."""
    parts = qualname.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        candidate = ".".join(parts[:cut])
        if candidate in components:
            return candidate
    return None


# ---------------------------------------------------------------------------
# fact extraction
# ---------------------------------------------------------------------------

def _receiver(expr: ast.expr) -> tuple[Optional[str], str]:
    """``(root_name, dotted)`` of a value chain; subscripts render as
    ``[]``, root ``None`` when not anchored at a simple name."""
    parts: list[str] = []
    node = expr
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            parts.append("[]")
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return node.id, _join(parts)
        else:
            parts.append("<expr>")
            return None, _join(parts)


def _join(parts: list[str]) -> str:
    rendered = ""
    for part in reversed(parts):
        if part == "[]":
            rendered += "[]"
        elif rendered:
            rendered += "." + part
        else:
            rendered = part
    return rendered


def _param_names(func: ast.AST) -> frozenset[str]:
    args = getattr(func, "args", None)
    if args is None:
        return frozenset()
    names = [a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs)]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return frozenset(names)


def _cache_ish(segment: str) -> bool:
    """Whether one dotted segment names a cache *object* (``cache``,
    ``local_cache``) — counts (``n_caches``) and derived identifiers
    (``cache_id``, ``cache_selector``) are deliberately excluded."""
    if segment.startswith("n_"):
        return False
    return (segment in ("cache", "caches")
            or segment.endswith("_cache") or segment.endswith("_caches"))


def _ttl_ish(dotted: str) -> bool:
    return any("ttl" in segment or "expires" in segment
               for segment in dotted.replace("[]", "").split("."))


def _callee_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


class _TopoWalker:
    """Own-body walk harvesting address, cache and TTL sites."""

    def __init__(self, func: ast.AST):
        from .effects import _walk_own

        self.params = _param_names(func)
        self.assigns: dict[str, ast.expr] = {}
        self.addr: list[AddrSite] = []
        self.caches: list[CacheSite] = []
        self.ttls: list[TtlSite] = []

        nodes = list(_walk_own(func))
        for node in nodes:        # bindings first: order-independent chase
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.assigns.setdefault(target.id, node.value)
            elif (isinstance(node, ast.AnnAssign) and node.value is not None
                  and isinstance(node.target, ast.Name)):
                self.assigns.setdefault(node.target.id, node.value)
        for node in nodes:
            if isinstance(node, ast.Call):
                self._handle_call(node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._handle_assign(target, node.value, node)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._handle_assign(node.target, node.value, node)
            elif isinstance(node, ast.AugAssign):
                self._handle_augassign(node)

    # -- address origins ----------------------------------------------------

    def _addr_origin(
        self, expr: ast.expr, seen: frozenset[str],
    ) -> Optional[tuple[str, str, tuple[str, ...]]]:
        """``(origin, src, hops)`` of an address expression.

        ``origin`` is ``"preserve"`` when the value is rooted in a
        non-``self`` parameter (the caller's address flows through) and
        ``"rewrite"`` when it is rooted in ``self`` (the component's own
        identity replaces it).
        """
        if isinstance(expr, ast.Name):
            hop = (f"{expr.id}@{expr.lineno}",)
            if expr.id in self.params and expr.id != "self":
                return "preserve", f"param:{expr.id}", hop
            bound = self.assigns.get(expr.id)
            if bound is not None and expr.id not in seen:
                chased = self._addr_origin(bound, seen | {expr.id})
                if chased is not None:
                    origin, src, hops = chased
                    return origin, src, hop + hops
            return None
        if isinstance(expr, (ast.Attribute, ast.Subscript)):
            root, dotted = _receiver(expr)
            if root is None:
                return None
            hop = (f"{dotted}@{expr.lineno}",)
            if root == "self":
                return "rewrite", f"attr:{dotted}", hop
            if root in self.params:
                return "preserve", f"param:{dotted}", hop
            return None
        return None

    # -- calls --------------------------------------------------------------

    def _handle_call(self, node: ast.Call) -> None:
        callee = _callee_name(node.func)
        if (isinstance(node.func, ast.Attribute) and callee == "query"
                and len(node.args) >= 3):
            origin = self._addr_origin(node.args[0], frozenset())
            if origin is not None:
                kind, src, hops = origin
                self.addr.append(AddrSite(
                    line=node.lineno, col=node.col_offset,
                    kind=("spoof-forward" if kind == "preserve"
                          else "rewrite-forward"),
                    src=src, dest="query",
                    hops=hops + (f"query@{node.lineno}",)))
        if (isinstance(node.func, ast.Attribute)
                and callee in ("register", "register_many")):
            if any(isinstance(arg, ast.Name) and arg.id == "self"
                   for arg in node.args):
                self.addr.append(AddrSite(
                    line=node.lineno, col=node.col_offset,
                    kind=("register" if callee == "register"
                          else "register-many"),
                    src="attr:self", dest=callee,
                    hops=(f"{callee}@{node.lineno}",)))
        if callee.endswith("LogEntry"):
            for keyword in node.keywords:
                if keyword.arg is None or not (
                        keyword.arg == "src_ip"
                        or keyword.arg.endswith("_ip")):
                    continue
                origin = self._addr_origin(keyword.value, frozenset())
                if origin is not None:
                    kind, src, hops = origin
                    self.addr.append(AddrSite(
                        line=node.lineno, col=node.col_offset,
                        kind=("log-source" if kind == "preserve"
                              else "log-rewrite"),
                        src=src, dest=callee,
                        hops=hops + (f"{callee}@{node.lineno}",)))
        if callee[:1].isupper():
            self._handle_ctor(node, callee)
        if callee == "with_ttl" and isinstance(node.func, ast.Attribute):
            self._handle_with_ttl(node)

    def _handle_ctor(self, node: ast.Call, callee: str) -> None:
        values = list(node.args) + [kw.value for kw in node.keywords]
        for value in values:
            if not isinstance(value, (ast.Name, ast.Attribute,
                                      ast.Subscript)):
                continue
            root, dotted = _receiver(value)
            if root is None:
                continue
            segments = dotted.replace("[]", "").split(".")
            if not (any(_cache_ish(seg) for seg in segments)
                    or self._cache_value(value, frozenset()) is not None):
                continue
            self.caches.append(CacheSite(
                line=node.lineno, col=node.col_offset, kind="pass",
                attr=callee, value=dotted))

    # -- cache ownership ----------------------------------------------------

    def _cache_value(self, value: ast.expr,
                     seen: frozenset[str]) -> Optional[str]:
        """Descriptor when ``value`` is (conservatively) a cache object."""
        if isinstance(value, ast.Name):
            if value.id in self.params and _cache_ish(value.id):
                return f"param:{value.id}"
            bound = self.assigns.get(value.id)
            if bound is not None and value.id not in seen:
                return self._cache_value(bound, seen | {value.id})
            return None
        if isinstance(value, ast.BoolOp):
            for part in value.values:
                descriptor = self._cache_value(part, seen)
                if descriptor is not None:
                    return descriptor
            return None
        if isinstance(value, ast.Call):
            callee = _callee_name(value.func)
            if callee.endswith("Cache") or "build_cache" in callee:
                return f"call:{callee}"
        return None

    def _handle_assign(self, target: ast.expr, value: ast.expr,
                       node: ast.AST) -> None:
        if isinstance(target, (ast.Name, ast.Attribute)):
            self._maybe_ttl_assign(target, value, node)
        if not isinstance(target, ast.Attribute):
            return
        root, dotted = _receiver(target)
        if root != "self" or not _cache_ish(dotted.split(".")[-1]):
            return
        descriptor = self._cache_value(value, frozenset())
        if descriptor is not None:
            self.caches.append(CacheSite(
                line=getattr(node, "lineno", target.lineno),
                col=getattr(node, "col_offset", target.col_offset),
                kind="own", attr=dotted, value=descriptor))

    # -- TTL arithmetic -----------------------------------------------------

    def _maybe_ttl_assign(self, target: ast.expr, value: ast.expr,
                          node: ast.AST) -> None:
        dotted = dotted_name(target)
        if dotted is None or not _ttl_ish(dotted):
            return
        for sub in ast.walk(value):
            if (isinstance(sub, ast.BinOp)
                    and isinstance(sub.op, (ast.Add, ast.Mult))):
                for side in (sub.left, sub.right):
                    if dotted_name(side) == dotted:
                        self.ttls.append(TtlSite(
                            line=getattr(node, "lineno", target.lineno),
                            col=getattr(node, "col_offset", 0),
                            kind="extend", target=dotted,
                            detail="additive self-reference"))
                        return
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                    and sub.func.id == "max"):
                if any(dotted_name(arg) == dotted for arg in sub.args):
                    self.ttls.append(TtlSite(
                        line=getattr(node, "lineno", target.lineno),
                        col=getattr(node, "col_offset", 0),
                        kind="extend", target=dotted,
                        detail="max() fold over the stored value"))
                    return

    def _handle_augassign(self, node: ast.AugAssign) -> None:
        if not isinstance(node.op, (ast.Add, ast.Mult)):
            return
        dotted = dotted_name(node.target)
        if dotted is None or not _ttl_ish(dotted):
            return
        op = "+=" if isinstance(node.op, ast.Add) else "*="
        self.ttls.append(TtlSite(
            line=node.lineno, col=node.col_offset, kind="extend",
            target=dotted, detail=f"augmented '{op}'"))

    def _handle_with_ttl(self, node: ast.Call) -> None:
        if len(node.args) != 1 or node.keywords:
            return
        arg = node.args[0]
        if isinstance(arg, ast.Constant):
            self.ttls.append(TtlSite(
                line=node.lineno, col=node.col_offset, kind="rewrite",
                target="with_ttl", detail=f"constant TTL {arg.value!r}"))
            return
        if isinstance(arg, ast.Attribute):
            root, dotted = _receiver(arg)
            if root == "self":
                self.ttls.append(TtlSite(
                    line=node.lineno, col=node.col_offset, kind="rewrite",
                    target="with_ttl",
                    detail=f"configured TTL {dotted}"))

    # -- result -------------------------------------------------------------

    def facts(self) -> TopoFacts:
        return TopoFacts(
            addr=tuple(sorted(set(self.addr))),
            caches=tuple(sorted(set(self.caches))),
            ttls=tuple(sorted(set(self.ttls))),
        )


def extract_topo_facts(func: ast.AST) -> TopoFacts:
    """The cdetopo facts of one function's own body."""
    return _TopoWalker(func).facts()


# ---------------------------------------------------------------------------
# the --topology report
# ---------------------------------------------------------------------------

TOPOLOGY_SCHEMA_VERSION = 1


def build_topology(summaries: "dict[str, object]",
                   config: "object") -> dict:
    """The proven component graph as a deterministic JSON document.

    One entry per class in a :attr:`LintConfig.component_paths` module
    that either declares a role or exhibits address/cache behaviour.
    ``ingress`` means the component registers itself on the network;
    ``egress`` means an upstream send is reachable from its methods
    through the name-bound call graph (so a frontend that delegates to a
    platform still shows egress reachability).
    """
    from .callgraph import CallGraph
    from .config import path_matches_any

    graph = CallGraph(summaries.values())
    table = parse_component_table(config.components)
    entries = []
    for rel in sorted(summaries):
        if not path_matches_any(rel, config.component_paths):
            continue
        summary = summaries[rel]
        components = dict(getattr(summary, "components", {}))
        by_class: dict[str, list] = {name: [] for name in components}
        for func in summary.functions:
            owner = owning_class(func.qualname, components)
            if owner is not None:
                by_class[owner].append(func)
        for name in sorted(components):
            decl = components[name]
            role, attrs = decl.role, decl.attrs
            if not role and name.rsplit(".", 1)[-1] in table:
                role, attrs = table[name.rsplit(".", 1)[-1]]
            funcs = by_class[name]
            addr = [site for func in funcs for site in func.addr]
            caches = [site for func in funcs for site in func.caches]
            if not role and not addr and not caches:
                continue
            method_keys = [f"{rel}::{func.qualname}" for func in funcs]
            reachable = graph.reachable_with_chains(method_keys)
            egress = False
            for key in reachable:
                node = graph.nodes[key]
                if any(site.kind in FORWARD_KINDS
                       for site in node.summary.addr):
                    egress = True
                    break
            entries.append({
                "component": name,
                "module": rel,
                "role": role or "undeclared",
                "attrs": sorted(attrs),
                "ingress": any(site.kind in ("register", "register-many")
                               for site in addr),
                "shares_ingress": any(site.kind == "register-many"
                                      for site in addr),
                "egress": egress,
                "forwards": sorted({site.kind for site in addr
                                    if site.kind in FORWARD_KINDS}),
                "logs": sorted({site.kind for site in addr
                                if site.kind.startswith("log-")}),
                "caches": sorted({site.attr for site in caches
                                  if site.kind == "own"}),
            })
    entries.sort(key=lambda e: (e["module"], e["component"]))
    return {
        "schema_version": TOPOLOGY_SCHEMA_VERSION,
        "tool": "cdetopo",
        "components": entries,
    }


def render_topology_human(doc: dict) -> str:
    """The topology document as a fixed-width table."""
    rows = [("component", "role", "ingress", "egress", "caches", "address")]
    for entry in doc["components"]:
        ingress = "shared" if entry["shares_ingress"] else (
            "yes" if entry["ingress"] else "-")
        address = ",".join(entry["forwards"] + entry["logs"]) or "-"
        rows.append((
            entry["component"],
            entry["role"] + ("(" + ",".join(entry["attrs"]) + ")"
                             if entry["attrs"] else ""),
            ingress,
            "yes" if entry["egress"] else "-",
            ",".join(entry["caches"]) or "-",
            address,
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    lines.append("")
    lines.append(f"cdetopo: {len(doc['components'])} component(s)")
    return "\n".join(lines)


def collect_summaries(paths: "list[str]", config: "object",
                      cache_dir: "str | None" = None
                      ) -> "dict[str, object]":
    """Stage-1 of the engine, standalone: content-hash every file, parse
    and summarise only cache misses, and return the summary map (the
    ``--topology`` front end; warm runs replay facts without parsing)."""
    from pathlib import Path

    from .cache import AnalysisCache, content_hash
    from .engine import _parse, _relativize, iter_python_files

    cache = AnalysisCache(Path(cache_dir)) if cache_dir is not None else None
    summaries: dict[str, object] = {}
    for path in iter_python_files([Path(p) for p in paths], config):
        rel = _relativize(path)
        source = path.read_text(encoding="utf-8")
        sha = content_hash(source)
        summary = cache.lookup_summary(rel, sha) if cache else None
        if summary is None:
            from .callgraph import summarize_module
            module = _parse(path, rel, source)
            summary = summarize_module(module)
            if cache:
                cache.store_summary(rel, sha, summary)
        summaries[rel] = summary
    if cache:
        cache.save()
    return summaries
