"""Whole-project model for zionlint v2: classes, functions, receiver types.

The v1 engine analyzed one function at a time and went blind at every
call boundary: ``self.split.map_private(...)`` was an opaque attribute
chain, so neither the charging rule nor the taint rule could say
anything about what the callee does.  This module builds the shared
ground truth the v2 passes (``dataflow``, ``concurrency``) stand on:

* a table of every class defined in the linted tree, with the semantic
  type of each instance attribute inferred from ``__init__`` (and other
  method) assignments plus parameter annotations;
* a table of every function/method keyed by module and qualname;
* a resolver that maps a call expression in some function back to the
  concrete :class:`FunctionInfo` it invokes, when that can be done
  soundly (single candidate), and ``None`` otherwise.

Inference is deliberately shallow and syntactic -- the linted tree is
plain dataclass-free Python, so ``self.split = SplitTableManager(...)``
in a constructor, or a ``monitor: "SecureMonitor"`` annotation, carries
all the type information the rules need.  Anything ambiguous resolves
to ``None`` and the rules stay conservative, exactly like v1.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .astutil import call_name, dotted_name, iter_functions

# Attribute names that always mean "raw physical memory" regardless of
# how the binding was produced.  ``self.dram = bus.dram`` and a bare
# ``dram`` parameter both land here.
DRAM_NAMES = {"dram", "_dram"}

# Method names on PhysicalMemory whose bound form (``self._dram_write =
# bus.dram.write_u64``) must keep their raw-memory identity: calling the
# bound name is calling dram.
DRAM_METHODS = {"read", "write", "read_u64", "write_u64", "zero_range"}


@dataclass
class FunctionInfo:
    """One function or method in the linted tree."""

    module: str  # module key, e.g. "sm/monitor.py"
    qualname: str  # e.g. "SecureMonitor.ecall_map_private"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None  # enclosing class, if a method
    is_property: bool = False

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassInfo:
    """One class: its methods and inferred instance-attribute types."""

    module: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    # attribute name -> semantic type tag.  Tags are either a class name
    # defined somewhere in the project ("SplitTableManager"), the string
    # "dram" for raw physical memory, or "dram_method:<op>" for a bound
    # raw-memory method.
    attr_types: Dict[str, str] = field(default_factory=dict)
    # module-level key of the module defining each attr's class type,
    # when the class was resolvable.  attr name -> module key.
    attr_type_modules: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    key: str  # path-like key, e.g. "sm/monitor.py"
    tree: ast.Module
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)  # by qualname


def _is_property(node: ast.AST) -> bool:
    for deco in getattr(node, "decorator_list", ()):
        if dotted_name(deco) == "property":
            return True
    return False


def _annotation_type(node: Optional[ast.AST]) -> Optional[str]:
    """Extract a class-name tag from a parameter annotation."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # forward reference: 'SecureMonitor' or "sm.SecureMonitor"
        return node.value.split(".")[-1].strip() or None
    name = dotted_name(node)
    if name:
        return name.split(".")[-1]
    if isinstance(node, ast.Subscript):  # Optional[X] / List[X]
        base = dotted_name(node.value)
        if base and base.split(".")[-1] == "Optional":
            return _annotation_type(node.slice)
    return None


class Project:
    """Parsed view of every module handed to one lint run."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        # class name -> list of (module key, ClassInfo); names may
        # collide across modules, the resolver requires uniqueness.
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}

    # -- construction ---------------------------------------------------

    def add_module(self, key: str, tree: ast.Module) -> ModuleInfo:
        mod = ModuleInfo(key=key, tree=tree)
        self.modules[key] = mod
        # Nested classes count too: migration's export_cvm defines a local
        # ``Raw`` accessor class whose methods the charging rule must see.
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                cls = ClassInfo(module=key, name=node.name, node=node)
                mod.classes.setdefault(node.name, cls)
                self.classes_by_name.setdefault(node.name, []).append(cls)
        for qualname, fn in iter_functions(tree):
            parts = qualname.split(".")
            cls = mod.classes.get(parts[-2]) if len(parts) > 1 else None
            if cls is not None:
                # parts[-2] can also be an enclosing *function*; require
                # the def to actually sit inside the class body.
                end = getattr(cls.node, "end_lineno", None)
                if not (cls.node.lineno <= fn.lineno <= (end or fn.lineno)):
                    cls = None
            info = FunctionInfo(
                module=key,
                qualname=qualname,
                node=fn,
                class_name=cls.name if cls is not None else None,
                is_property=_is_property(fn),
            )
            mod.functions[qualname] = info
            if cls is not None:
                cls.methods[fn.name] = info
        return mod

    def finalize(self) -> None:
        """Run attribute-type inference once all modules are added."""
        for mod in self.modules.values():
            for cls in mod.classes.values():
                self._infer_class_attrs(cls)

    # -- attribute inference ---------------------------------------------

    def _infer_class_attrs(self, cls: ClassInfo) -> None:
        for method in cls.methods.values():
            params = self._param_types(method.node)
            for stmt in ast.walk(method.node):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                value = stmt.value
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        self._record_attr(cls, target.attr, value, params, stmt)

    def _param_types(self, fn: ast.AST) -> Dict[str, str]:
        out: Dict[str, str] = {}
        args = fn.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.arg in DRAM_NAMES:
                out[arg.arg] = "dram"
                continue
            tag = _annotation_type(arg.annotation)
            if tag:
                out[arg.arg] = tag
        return out

    def _record_attr(
        self,
        cls: ClassInfo,
        attr: str,
        value: Optional[ast.AST],
        params: Dict[str, str],
        stmt: ast.AST,
    ) -> None:
        tag = self._value_type(value, params, cls.module)
        if tag is None and isinstance(stmt, ast.AnnAssign):
            tag = _annotation_type(stmt.annotation)
        if tag is None and attr in DRAM_NAMES:
            tag = "dram"
        if tag is None:
            return
        prev = cls.attr_types.get(attr)
        if prev is not None and prev != tag:
            # conflicting writes -> unknown, stay conservative
            cls.attr_types[attr] = "?"
            cls.attr_type_modules.pop(attr, None)
            return
        cls.attr_types[attr] = tag
        resolved = self._unique_class(tag)
        if resolved is not None:
            cls.attr_type_modules[attr] = resolved.module

    def _value_type(
        self, value: Optional[ast.AST], params: Dict[str, str], module_key: str
    ) -> Optional[str]:
        if value is None:
            return None
        # self.split = SplitTableManager(...)
        if isinstance(value, ast.Call):
            ctor = dotted_name(value.func)
            if ctor:
                return self._class_tag(ctor.split(".")[-1], module_key)
            return None
        # self.dram = bus.dram / self._dram_write = bus.dram.write_u64
        if isinstance(value, ast.Attribute):
            if value.attr in DRAM_NAMES:
                return "dram"
            if value.attr in DRAM_METHODS:
                base = value.value
                if isinstance(base, ast.Attribute) and base.attr in DRAM_NAMES:
                    return f"dram_method:{value.attr}"
                if isinstance(base, ast.Name) and base.id in DRAM_NAMES:
                    return f"dram_method:{value.attr}"
            return None
        # self.monitor = monitor  (typed parameter passthrough)
        if isinstance(value, ast.Name):
            return params.get(value.id)
        return None

    def _class_tag(self, name: str, module_key: str) -> Optional[str]:
        """Type tag for a constructed class name, disambiguated by module.

        A globally-unique class name is its own tag.  When the same name
        is defined in several modules (say, two modules' private
        ``_Accessor`` helpers), the same-module candidate wins and the tag
        carries its module key as ``"<module>::<Class>"``; with no
        same-module candidate the name stays ambiguous and resolves to
        nothing.
        """
        if not name:
            return None
        cands = self.classes_by_name.get(name, [])
        if len(cands) == 1:
            return name
        for cand in cands:
            if cand.module == module_key:
                return f"{module_key}::{name}"
        return None

    # -- queries ---------------------------------------------------------

    def _unique_class(self, tag: Optional[str]) -> Optional[ClassInfo]:
        if not tag or tag in ("dram", "?") or tag.startswith("dram_method:"):
            return None
        if "::" in tag:
            mod_key, name = tag.split("::", 1)
            mod = self.modules.get(mod_key)
            return mod.classes.get(name) if mod is not None else None
        cands = self.classes_by_name.get(tag, [])
        return cands[0] if len(cands) == 1 else None

    def class_of(self, module_key: str, name: str) -> Optional[ClassInfo]:
        mod = self.modules.get(module_key)
        if mod and name in mod.classes:
            return mod.classes[name]
        return self._unique_class(name)

    def attr_type(
        self, module_key: str, class_name: Optional[str], attr: str
    ) -> Optional[str]:
        """Semantic type tag of ``self.<attr>`` inside ``class_name``."""
        if class_name is None:
            return None
        cls = self.class_of(module_key, class_name)
        if cls is None:
            return None
        tag = cls.attr_types.get(attr)
        return None if tag == "?" else tag

    def receiver_type(
        self,
        expr: ast.AST,
        module_key: str,
        class_name: Optional[str],
        local_types: Optional[Dict[str, str]] = None,
    ) -> Optional[str]:
        """Infer the semantic type tag of an arbitrary receiver expression.

        Handles ``self``, ``self.attr``, bare locals/params recorded in
        ``local_types``, and one level of chaining through class-typed
        attributes (``self.split.dram`` -> whatever SplitTableManager
        records for ``dram``).
        """
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return class_name
            if local_types and expr.id in local_types:
                tag = local_types[expr.id]
                return None if tag == "?" else tag
            if expr.id in DRAM_NAMES:
                return "dram"
            return None
        if isinstance(expr, ast.Call):
            # Inline construction: ``Sv39x4().iter_leaves(...)``.
            ctor = dotted_name(expr.func)
            if ctor:
                return self._class_tag(ctor.split(".")[-1], module_key)
            return None
        if isinstance(expr, ast.Attribute):
            if expr.attr in DRAM_NAMES:
                return "dram"
            base = self.receiver_type(expr.value, module_key, class_name, local_types)
            if base is None:
                return None
            if base == "dram":
                return None
            cls = self._unique_class(base)
            if cls is None and base == class_name:
                cls = self.class_of(module_key, base)
            if cls is None:
                return None
            tag = cls.attr_types.get(expr.attr)
            return None if tag == "?" else tag
        return None

    def resolve_call(
        self,
        call: ast.Call,
        module_key: str,
        class_name: Optional[str],
        local_types: Optional[Dict[str, str]] = None,
    ) -> Optional[FunctionInfo]:
        """Resolve a call expression to its target function, or None."""
        func = call.func
        mod = self.modules.get(module_key)
        if mod is None:
            return None
        # bare name: module-level function in the same module
        if isinstance(func, ast.Name):
            info = mod.functions.get(func.id)
            if info is not None and info.class_name is None:
                return info
            # bound dram method assigned to a local?  Not a project fn.
            return None
        if not isinstance(func, ast.Attribute):
            return None
        recv = func.value
        # self.method(...)
        if isinstance(recv, ast.Name) and recv.id == "self" and class_name:
            cls = self.class_of(module_key, class_name)
            if cls is not None:
                info = cls.methods.get(func.attr)
                if info is not None:
                    return info
            return None
        # <typed receiver>.method(...)
        tag = self.receiver_type(recv, module_key, class_name, local_types)
        cls = self._unique_class(tag) if tag else None
        if cls is None and tag and tag == class_name:
            cls = self.class_of(module_key, tag)
        if cls is not None:
            return cls.methods.get(func.attr)
        return None

    def resolve_property(
        self,
        expr: ast.Attribute,
        module_key: str,
        class_name: Optional[str],
        local_types: Optional[Dict[str, str]] = None,
    ) -> Optional[FunctionInfo]:
        """If ``expr`` reads a @property defined in the project, return it."""
        tag = self.receiver_type(expr.value, module_key, class_name, local_types)
        cls = self._unique_class(tag) if tag else None
        if cls is None and tag and tag == class_name:
            cls = self.class_of(module_key, tag)
        if cls is None:
            return None
        info = cls.methods.get(expr.attr)
        if info is not None and info.is_property:
            return info
        return None

    def is_dram_receiver(
        self,
        expr: ast.AST,
        module_key: str,
        class_name: Optional[str],
        local_types: Optional[Dict[str, str]] = None,
    ) -> bool:
        """True when ``expr`` denotes raw physical memory."""
        return (
            self.receiver_type(expr, module_key, class_name, local_types) == "dram"
        )

    def bound_dram_op(
        self,
        func: ast.AST,
        module_key: str,
        class_name: Optional[str],
        local_types: Optional[Dict[str, str]] = None,
    ) -> Optional[str]:
        """If calling ``func`` invokes a raw dram method, return the op name.

        Covers direct ``<dram>.write_u64`` chains and bound-method
        attributes/locals like ``self._dram_write`` whose inferred tag is
        ``dram_method:write_u64``.
        """
        if isinstance(func, ast.Attribute):
            if func.attr in DRAM_METHODS and self.is_dram_receiver(
                func.value, module_key, class_name, local_types
            ):
                return func.attr
            tag = self.receiver_type(func, module_key, class_name, local_types)
            if tag and tag.startswith("dram_method:"):
                return tag.split(":", 1)[1]
            return None
        if isinstance(func, ast.Name):
            tag = None
            if local_types:
                tag = local_types.get(func.id)
            if tag and tag.startswith("dram_method:"):
                return tag.split(":", 1)[1]
        return None


def local_bindings(
    project: Project,
    fn: ast.AST,
    module_key: str,
    class_name: Optional[str],
) -> Dict[str, str]:
    """Infer semantic type tags for a function's params and simple locals.

    Only single-assignment, syntactically obvious bindings are recorded:
    annotated/dram-named parameters, ``x = self.attr`` where the attr has
    a known tag, ``x = SomeClass(...)``, and bound dram methods like
    ``read_u64 = self.bus.dram.read_u64``.  A name assigned twice with
    different tags degrades to unknown.
    """
    out: Dict[str, str] = {}
    args = fn.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        if arg.arg == "self":
            continue
        if arg.arg in DRAM_NAMES:
            out[arg.arg] = "dram"
            continue
        tag = _annotation_type(arg.annotation)
        if tag:
            out[arg.arg] = tag

    def record(name: str, tag: Optional[str]) -> None:
        if tag is None:
            out.pop(name, None)
            out[name] = "?"
            return
        prev = out.get(name)
        if prev is not None and prev != tag:
            out[name] = "?"
        else:
            out[name] = tag

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            tag: Optional[str] = None
            if isinstance(value, ast.Call):
                ctor = dotted_name(value.func)
                if ctor:
                    tag = project._class_tag(ctor.split(".")[-1], module_key)
            elif isinstance(value, ast.Attribute):
                if value.attr in DRAM_NAMES:
                    tag = "dram"
                elif value.attr in DRAM_METHODS:
                    base_tag = project.receiver_type(
                        value.value, module_key, class_name, out
                    )
                    if base_tag == "dram":
                        tag = f"dram_method:{value.attr}"
                else:
                    tag = project.receiver_type(value, module_key, class_name, out)
            elif isinstance(value, ast.Name):
                tag = out.get(value.id)
            record(target.id, tag)
    return {k: v for k, v in out.items() if v != "?"}
