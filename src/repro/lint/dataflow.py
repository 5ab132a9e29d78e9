"""Interprocedural passes for zionlint v2: ZL2 summaries, per-path ZL3.

Two analyses share the :class:`repro.lint.callgraph.Project` call graph:

**Interprocedural ZL2** (:func:`check_taint`).  Each project function
gets a :class:`FunctionSummary` describing how taint moves across its
boundary: does it *return* a shared-memory load (``@property`` counter
reads), does a given parameter flow to its return value, does it
*validate* a parameter (guard or sanitizer over it), does it pass a
parameter to a raw-memory sink unchecked.  The checking walker,
:class:`_InterTaint`, subclasses the v1 intraprocedural walker and
fills in its call-boundary hooks with summary lookups, so
``pa = self._guest_pa(cvm, gpa)`` cleans ``gpa`` because ``_guest_pa``
guards it, and ``self._read_guest_buffer(addr, n)`` is a finding when
the callee feeds ``addr`` to raw DRAM without checking it.

Summaries are computed by running the same walker in *summary mode*:
once with shared sources live (for ``returns_shared``), then once per
parameter with only that parameter seeded (for flow/validation/sink
facts), so a shared-load sink inside the callee is never attributed to
an innocent parameter.  A cycle in the call graph yields the empty
summary for the function that closed it -- conservative, like v1.

**Path-sensitive ZL3** (:func:`check_charging`).  The structural
every-path analysis lives in :mod:`repro.lint.charging`; this module
adds type-aware touch detection (bound dram methods like
``self._read_u64``, constructed ``Sv39x4()`` walk receivers) and three
interprocedural resolutions, applied in order to each structurally
uncovered touch:

1. *charged accessor*: a page-table walk whose accessor argument is a
   class whose ``read_u64`` both touches DRAM and charges (a walker
   charged per PTE read; the translator no longer has one -- its G-stage
   walks are ``probe_gpa`` charged in bulk, its VS-stage reads are
   charged inline);
2. *bulk-charged accessor*: raw-memory methods of a class that is only
   ever handed to walk ops inside functions that charge (the share
   manager's accessor, migration's local ``Raw`` -- the caller charges
   the whole walk in bulk);
3. *caller-side charging*: every resolvable in-domain call site of the
   function sits in a function that charges.  Call sites outside
   ``sm``/``mem``/``isa`` do not participate in the cycle model and are
   ignored; a function with no in-domain call sites stays flagged.

Anything still uncovered is a finding at the touch line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.astutil import call_name, iter_functions, names_in, receiver_tail
from repro.lint.callgraph import ClassInfo, FunctionInfo, Project, local_bindings
from repro.lint.charging import (
    RAW_MEM_OPS,
    RAW_MEM_RECEIVERS,
    WALK_OPS,
    WALK_RECEIVERS,
    _WHY as _ZL3_WHY,
    _is_charge,
    touch_covered,
)
from repro.lint.charging import RULE as ZL3_RULE
from repro.lint.findings import Finding
from repro.lint.taint import UNTAINTED_PARAMS, _FunctionTaint, _is_sanitizer

#: Domains whose call sites participate in the ZL3 cycle model.
CHARGED_DOMAIN_DIRS = ("sm", "mem", "isa")


# -- function summaries ------------------------------------------------------


def _param_names(fn: ast.AST) -> List[str]:
    args = fn.args
    return [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]


@dataclass
class FunctionSummary:
    """Boundary-crossing taint facts about one function."""

    param_names: List[str]
    #: the return value is (or may be) a shared-memory load
    returns_shared: bool = False
    #: parameter positions that flow to the return value
    return_taints: Set[int] = field(default_factory=set)
    #: parameter positions the function guards/sanitizes
    validates: Set[int] = field(default_factory=set)
    #: parameter position -> sink kind it reaches unvalidated
    param_sinks: Dict[int, str] = field(default_factory=dict)


class SummaryTable:
    """Memoized on-demand :class:`FunctionSummary` store."""

    def __init__(self, project: Project):
        self.project = project
        self._memo: Dict[Tuple[str, str], FunctionSummary] = {}
        self._in_progress: Set[Tuple[str, str]] = set()

    def summary(self, fi: FunctionInfo) -> FunctionSummary:
        key = (fi.module, fi.qualname)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            # Recursion: break the cycle with the empty (conservative)
            # summary; the memoized result for the outer frame still
            # reflects everything below the back edge.
            return FunctionSummary(param_names=_param_names(fi.node))
        self._in_progress.add(key)
        try:
            result = self._compute(fi)
        finally:
            self._in_progress.discard(key)
        self._memo[key] = result
        return result

    def _compute(self, fi: FunctionInfo) -> FunctionSummary:
        names = _param_names(fi.node)
        out = FunctionSummary(param_names=names)

        # Pass 1: shared sources only -- does a shared load reach a return?
        walker = _InterTaint(fi, self.project, self, summary_mode=True)
        walker.run()
        out.returns_shared = "shared" in walker.returned_kinds

        # Pass 2: one run per parameter, shared sources off, so every
        # fact below is attributable to exactly that parameter.
        for pos, pname in enumerate(names):
            if pname in UNTAINTED_PARAMS:
                continue
            walker = _InterTaint(fi, self.project, self, summary_mode=True)
            walker.shared_sources = False
            walker.taint = {pname: "arg"}
            walker.run()
            if "arg" in walker.returned_kinds:
                out.return_taints.add(pos)
            if pname in walker.validated_names:
                out.validates.add(pos)
            if walker.sink_hits:
                out.param_sinks[pos] = walker.sink_hits[0]
        return out


class _InterTaint(_FunctionTaint):
    """The v1 taint walker with its call-boundary hooks filled in."""

    def __init__(
        self,
        fi: FunctionInfo,
        project: Project,
        summaries: SummaryTable,
        summary_mode: bool = False,
    ):
        super().__init__(fi.qualname, fi.node, fi.module)
        self.fi = fi
        self.project = project
        self.summaries = summaries
        self.summary_mode = summary_mode
        self.locals_ = local_bindings(project, fi.node, fi.module, fi.class_name)
        self.returned_kinds: Set[str] = set()
        self.validated_names: Set[str] = set()
        self.sink_hits: List[str] = []
        if summary_mode:
            # Summary runs seed taint explicitly; drop the entry-function
            # parameter seeding the base constructor may have applied.
            self.taint = {}

    # -- resolution helpers ---------------------------------------------

    def _resolve(self, node: ast.Call) -> Optional[FunctionInfo]:
        if _is_sanitizer(call_name(node)):
            return None  # handled by _apply_sanitizers, result is clean
        return self.project.resolve_call(
            node, self.fi.module, self.fi.class_name, self.locals_
        )

    def _call_args(self, node: ast.Call, fi: FunctionInfo, s: FunctionSummary):
        """(absolute param position, argument expression) pairs."""
        offset = 1 if fi.class_name else 0
        pairs = []
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                continue
            pairs.append((i + offset, arg))
        for kw in node.keywords:
            if kw.arg and kw.arg in s.param_names:
                pairs.append((s.param_names.index(kw.arg), kw.value))
        return pairs

    # -- hook overrides ---------------------------------------------------

    def _saw_return(self, kind: str | None) -> None:
        if kind is not None:
            self.returned_kinds.add(kind)

    def _validated(self, name: str) -> None:
        if name in self.taint:
            self.validated_names.add(name)
        super()._validated(name)

    def _finding(self, node: ast.AST, sink: str, detail: str) -> None:
        if self.summary_mode:
            self.sink_hits.append(sink)
            return
        super()._finding(node, sink, detail)

    def _attribute_taint(self, node: ast.Attribute) -> str | None:
        if not self.shared_sources:
            return None
        prop = self.project.resolve_property(
            node, self.fi.module, self.fi.class_name, self.locals_
        )
        if prop is not None and self.summaries.summary(prop).returns_shared:
            return "shared"
        return None

    def _call_taint(self, node: ast.Call) -> str | None:
        callee = self._resolve(node)
        if callee is None:
            return None
        s = self.summaries.summary(callee)
        if s.returns_shared and self.shared_sources:
            return "shared"
        kind = None
        for pos, arg in self._call_args(node, callee, s):
            if pos in s.return_taints:
                k = self._expr_taint(arg)
                if k == "shared":
                    return "shared"
                kind = kind or k
        return kind

    def _check_expr_sinks(self, node: ast.AST) -> None:
        super()._check_expr_sinks(node)
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            callee = self._resolve(sub)
            if callee is None:
                continue
            s = self.summaries.summary(callee)
            if not s.param_sinks:
                continue
            for pos, arg in self._call_args(sub, callee, s):
                if pos not in s.param_sinks:
                    continue
                hot = self._tainted_names(arg)
                if not hot:
                    continue
                self._finding(
                    sub,
                    s.param_sinks[pos],
                    f"tainted value {', '.join(hot)!s} flows through call "
                    f"'{callee.name}' (parameter '{s.param_names[pos]}') "
                    f"into a {s.param_sinks[pos]} sink",
                )

    def _apply_sanitizers(self, node: ast.AST) -> None:
        super()._apply_sanitizers(node)
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            callee = self._resolve(sub)
            if callee is None:
                continue
            s = self.summaries.summary(callee)
            if not s.validates:
                continue
            for pos, arg in self._call_args(sub, callee, s):
                if pos in s.validates:
                    for name in names_in(arg):
                        self._validated(name)


def check_taint(
    project: Project, summaries: SummaryTable, module_key: str
) -> list[Finding]:
    """Run interprocedural ZL2 over one SM/IPC-domain module."""
    mod = project.modules[module_key]
    findings: list[Finding] = []
    for qualname, fn in iter_functions(mod.tree):
        fi = mod.functions.get(qualname) or FunctionInfo(
            module=module_key, qualname=qualname, node=fn
        )
        findings.extend(_InterTaint(fi, project, summaries).run())
    return findings


# -- path-sensitive ZL3 ------------------------------------------------------


def _is_sv39x4_tag(tag: Optional[str]) -> bool:
    return tag is not None and (tag == "Sv39x4" or tag.endswith("::Sv39x4"))


def _nested_ids(fn: ast.AST) -> Set[int]:
    out: Set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
            out.update(id(sub) for sub in ast.walk(node))
    return out


def _collect_touches(
    project: Project,
    fi: FunctionInfo,
    locals_: Dict[str, str],
) -> List[Tuple[ast.Call, str, bool]]:
    """(call, description, is_walk) for raw memory ops and table walks."""
    touches: List[Tuple[ast.Call, str, bool]] = []
    nested = _nested_ids(fi.node)
    for node in ast.walk(fi.node):
        if id(node) in nested or not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        tail = receiver_tail(node)
        op = project.bound_dram_op(node.func, fi.module, fi.class_name, locals_)
        if op is None and name in RAW_MEM_OPS and tail in RAW_MEM_RECEIVERS:
            op = name
        if op is not None:
            touches.append((node, f"raw memory access '{op}'", False))
            continue
        if name in WALK_OPS and isinstance(node.func, ast.Attribute):
            typed = _is_sv39x4_tag(
                project.receiver_type(
                    node.func.value, fi.module, fi.class_name, locals_
                )
            )
            if tail in WALK_RECEIVERS or typed:
                touches.append((node, f"page-table walk '{name}'", True))
    return touches


def _fn_has_charge(fn: ast.AST) -> bool:
    nested = _nested_ids(fn)
    return any(
        isinstance(node, ast.Call) and id(node) not in nested and _is_charge(node)
        for node in ast.walk(fn)
    )


def _in_charged_domain(module_key: str) -> bool:
    parts = module_key.replace("\\", "/").split("/")
    return any(part in CHARGED_DOMAIN_DIRS for part in parts[:-1])


class ChargingAnalysis:
    """Whole-project facts the interprocedural ZL3 resolutions need."""

    def __init__(self, project: Project):
        self.project = project
        self._fn_charges: Dict[Tuple[str, str], bool] = {}
        #: (module, qualname) -> caller FunctionInfos of resolved calls
        self.calls_to: Dict[Tuple[str, str], List[FunctionInfo]] = {}
        #: method name -> caller FunctionInfos of *unresolved* attr calls
        self.calls_by_name: Dict[str, List[FunctionInfo]] = {}
        #: function name -> number of definitions project-wide
        self.name_defs: Dict[str, int] = {}
        #: (module, class name) -> walk-site caller FunctionInfos
        self.walk_accessor_uses: Dict[Tuple[str, str], List[FunctionInfo]] = {}
        self._build()

    def _build(self) -> None:
        for mod in self.project.modules.values():
            for fi in mod.functions.values():
                self.name_defs[fi.name] = self.name_defs.get(fi.name, 0) + 1
        for mod in self.project.modules.values():
            for fi in mod.functions.values():
                self._scan_function(fi)

    def _scan_function(self, fi: FunctionInfo) -> None:
        locals_ = local_bindings(self.project, fi.node, fi.module, fi.class_name)
        nested = _nested_ids(fi.node)
        for node in ast.walk(fi.node):
            if id(node) in nested or not isinstance(node, ast.Call):
                continue
            target = self.project.resolve_call(
                node, fi.module, fi.class_name, locals_
            )
            if target is not None:
                self.calls_to.setdefault(
                    (target.module, target.qualname), []
                ).append(fi)
            elif isinstance(node.func, ast.Attribute):
                self.calls_by_name.setdefault(node.func.attr, []).append(fi)
            name = call_name(node)
            if name in WALK_OPS and node.args:
                tag = self.project.receiver_type(
                    node.args[0], fi.module, fi.class_name, locals_
                )
                cls = self.project._unique_class(tag)
                if cls is not None:
                    self.walk_accessor_uses.setdefault(
                        (cls.module, cls.name), []
                    ).append(fi)

    def fn_charges(self, fi: FunctionInfo) -> bool:
        key = (fi.module, fi.qualname)
        if key not in self._fn_charges:
            self._fn_charges[key] = _fn_has_charge(fi.node)
        return self._fn_charges[key]

    def accessor_self_charges(self, cls: Optional[ClassInfo]) -> bool:
        """Resolution 1: the walk accessor's ``read_u64`` touches + charges."""
        if cls is None:
            return False
        method = cls.methods.get("read_u64")
        if method is None or not self.fn_charges(method):
            return False
        method_locals = local_bindings(
            self.project, method.node, method.module, method.class_name
        )
        return bool(_collect_touches(self.project, method, method_locals))

    def accessor_bulk_charged(self, cls: Optional[ClassInfo]) -> bool:
        """Resolution 2: every walk handing out ``cls`` instances charges."""
        if cls is None:
            return False
        uses = self.walk_accessor_uses.get((cls.module, cls.name), [])
        return bool(uses) and all(self.fn_charges(u) for u in uses)

    def callers_always_charge(self, fi: FunctionInfo) -> bool:
        """Resolution 3: every resolvable in-domain call site charges."""
        sites = list(self.calls_to.get((fi.module, fi.qualname), []))
        if self.name_defs.get(fi.name, 0) == 1:
            # The name is defined exactly once project-wide, so even
            # receiver-untyped ``x.<name>(...)`` sites are its calls.
            sites.extend(self.calls_by_name.get(fi.name, []))
        sites = [s for s in sites if _in_charged_domain(s.module)]
        return bool(sites) and all(self.fn_charges(s) for s in sites)


def check_charging(
    project: Project, analysis: ChargingAnalysis, module_key: str
) -> list[Finding]:
    """Run path-sensitive ZL3 over one sm/mem/isa-domain module."""
    mod = project.modules[module_key]
    findings: list[Finding] = []
    for qualname, fn in iter_functions(mod.tree):
        fi = mod.functions.get(qualname) or FunctionInfo(
            module=module_key, qualname=qualname, node=fn
        )
        locals_ = local_bindings(project, fn, module_key, fi.class_name)
        touches = _collect_touches(project, fi, locals_)
        if not touches:
            continue
        own_cls = (
            mod.classes.get(fi.class_name) if fi.class_name is not None else None
        )
        caller_charged = None  # computed lazily, it is the costliest check
        for node, what, is_walk in touches:
            if touch_covered(fn, node):
                continue
            if is_walk and node.args:
                accessor_cls = project._unique_class(
                    project.receiver_type(
                        node.args[0], module_key, fi.class_name, locals_
                    )
                )
                if analysis.accessor_self_charges(accessor_cls):
                    continue
            if analysis.accessor_bulk_charged(own_cls):
                continue
            if caller_charged is None:
                caller_charged = analysis.callers_always_charge(fi)
            if caller_charged:
                continue
            findings.append(
                Finding(
                    rule=ZL3_RULE,
                    path=module_key,
                    line=node.lineno,
                    func=qualname,
                    message=(
                        f"{what} with no CycleLedger charge on every path "
                        "reaching it"
                    ),
                    why=_ZL3_WHY,
                    def_line=fn.lineno,
                )
            )
    return findings
