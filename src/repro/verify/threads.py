"""Static concurrency analyzer for the real-thread backends.

The simulator schedules are exhausted by ``repro.mc`` and the plan-level
invariants are certified symbolically, but the *real* ``threading`` code in
``net/``, ``service/`` and ``obs/`` has had no tool watching it.  This module
closes that gap with a whole-package AST pass that

1. discovers thread entry points — ``threading.Thread(target=...)`` roots
   plus closures that escape into callbacks (e.g. a telemetry ``sink=``),
2. extracts a lock-acquisition graph: which lock identities are acquired
   while which others are held, across call edges resolved through a
   conservative intra-package call graph, and reports lock-order cycles as
   potential deadlocks with full acquisition paths, and
3. infers guarded-attribute sets: an attribute written under ``with
   self._lock`` outside ``__init__`` must be accessed under the same lock
   everywhere reachable from two or more execution contexts; unguarded
   access is reported as a potential race.

Vetted benign accesses are suppressed with a ``# conc: ok(<reason>)``
pragma on the offending line, or via the ``allow=`` parameter.

The analyzer is deliberately conservative about call resolution: a call is
followed only when the receiver type is known (``self``, an annotated
parameter, a local constructed from a package class, or a typed container
element).  Unknown receivers are never matched by method name alone — that
is what keeps the edge graph free of false ``sock.close() ->
Transport.close`` edges.

``mutant_source()`` returns a fixture with a deliberate AB/BA inversion so
``python -m repro races --mutant`` proves the prover, mirroring the
``certify --mutant`` / ``explore --mutant`` pattern.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .lint import package_root

__all__ = [
    "PRAGMA",
    "ThreadRoot",
    "LockEdge",
    "ConcFinding",
    "ConcReport",
    "analyze_package",
    "analyze_paths",
    "analyze_source",
    "mutant_source",
]

PRAGMA = "conc: ok"

_LOCK_CTORS = {
    "threading.Lock",
    "threading.RLock",
    "Lock",
    "RLock",
    "watched_lock",
    "WatchedLock",
}
_THREAD_CTORS = {"threading.Thread", "Thread"}
_REENTRANT_CTORS = {"threading.RLock", "RLock"}


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        if base is None:
            return None
        return base + "." + node.attr
    return None


def _is_lock_ctor(call: ast.Call) -> bool:
    name = _dotted(call.func)
    return name in _LOCK_CTORS if name is not None else False


def _is_thread_ctor(call: ast.Call) -> bool:
    name = _dotted(call.func)
    return name in _THREAD_CTORS if name is not None else False


@dataclass
class ThreadRoot:
    """A function that runs on its own thread (or escapes into one)."""

    func: str
    kind: str  # "thread-target" | "escaping-closure"
    spawned_at: str

    def to_json(self) -> dict:
        return {"func": self.func, "kind": self.kind, "spawned_at": self.spawned_at}


@dataclass
class LockEdge:
    """Lock ``dst`` acquired while ``src`` is held, with one witness path."""

    src: str
    dst: str
    path: List[str]
    count: int = 1

    def to_json(self) -> dict:
        return {"src": self.src, "dst": self.dst, "path": list(self.path), "count": self.count}


@dataclass
class ConcFinding:
    kind: str  # "lock-order-cycle" | "unguarded-access" | "unguarded-local"
    message: str
    sites: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"kind": self.kind, "message": self.message, "sites": list(self.sites)}


@dataclass
class ConcReport:
    roots: List[ThreadRoot] = field(default_factory=list)
    locks: List[str] = field(default_factory=list)
    edges: List[LockEdge] = field(default_factory=list)
    cycles: List[ConcFinding] = field(default_factory=list)
    races: List[ConcFinding] = field(default_factory=list)
    suppressed: int = 0

    @property
    def findings(self) -> List[ConcFinding]:
        return list(self.cycles) + list(self.races)

    def static_edges(self) -> Set[Tuple[str, str]]:
        return {(e.src, e.dst) for e in self.edges}

    def to_json(self) -> dict:
        return {
            "schema": "kylix-races-v1",
            "ok": not self.findings,
            "roots": [r.to_json() for r in self.roots],
            "locks": sorted(self.locks),
            "edges": [e.to_json() for e in self.edges],
            "cycles": [c.to_json() for c in self.cycles],
            "races": [r.to_json() for r in self.races],
            "suppressed": self.suppressed,
        }


# ---------------------------------------------------------------------------
# Per-module index
# ---------------------------------------------------------------------------


@dataclass
class _FuncInfo:
    qual: str  # module-qualified, e.g. "service.service.ReduceService._worker_loop"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    module: str
    cls: Optional[str]  # declaring class qualname, if a method
    parent: Optional[str] = None  # enclosing function qual for nested defs
    param_types: Dict[str, str] = field(default_factory=dict)
    local_types: Dict[str, str] = field(default_factory=dict)
    local_locks: Set[str] = field(default_factory=set)
    relpath: str = ""


@dataclass
class _ClassInfo:
    qual: str  # e.g. "service.cache.ConfigCache"
    module: str
    name: str
    bases: List[str] = field(default_factory=list)
    lock_attrs: Set[str] = field(default_factory=set)
    lockmap_attrs: Set[str] = field(default_factory=set)
    reentrant_attrs: Set[str] = field(default_factory=set)
    attr_types: Dict[str, str] = field(default_factory=dict)  # attr -> class qual
    elem_types: Dict[str, str] = field(default_factory=dict)  # dict attr -> element class qual
    methods: Dict[str, str] = field(default_factory=dict)  # name -> func qual


@dataclass
class _Access:
    func: str  # function qual where the access happens
    key: str  # "<class qual>.<attr>"
    attr: str
    write: bool
    init: bool  # inside __init__ (or the attr-defining ctor path)
    held: Tuple[str, ...]
    site: str  # "relpath:line"
    suppressed: bool


class _Index:
    """Whole-package symbol index built in a first pass."""

    def __init__(self) -> None:
        self.functions: Dict[str, _FuncInfo] = {}
        self.classes: Dict[str, _ClassInfo] = {}
        self.by_class_attr_lock: Dict[str, List[str]] = {}
        self.module_of: Dict[str, str] = {}
        # name as visible inside module -> qual of function/class it refers to
        self.names: Dict[str, Dict[str, str]] = {}
        self.methods_by_name: Dict[str, List[str]] = {}

    def resolve_class(self, module: str, name: str) -> Optional[str]:
        if name in self.classes:
            return name
        mod_names = self.names.get(module, {})
        target = mod_names.get(name)
        if target in self.classes:
            return target
        # Try "<module>.<name>" directly.
        cand = module + "." + name if module else name
        if cand in self.classes:
            return cand
        return None

    def ancestors(self, cls_qual: str) -> List[str]:
        out: List[str] = []
        seen: Set[str] = set()
        stack = [cls_qual]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            out.append(cur)
            info = self.classes.get(cur)
            if info is None:
                continue
            for base in info.bases:
                resolved = self.resolve_class(info.module, base)
                if resolved is not None:
                    stack.append(resolved)
        return out

    def descendants(self, cls_qual: str) -> List[str]:
        out: List[str] = []
        for qual, info in self.classes.items():
            if qual == cls_qual:
                continue
            if cls_qual in self.ancestors(qual)[1:]:
                out.append(qual)
        return out

    def lookup_method(self, cls_qual: str, name: str) -> Optional[str]:
        for cand in self.ancestors(cls_qual):
            info = self.classes.get(cand)
            if info is not None and name in info.methods:
                return info.methods[name]
        return None

    def lock_identity(self, cls_qual: Optional[str], attr: str) -> Optional[str]:
        """Map an attribute acquire site to a package-wide lock identity."""
        if cls_qual is not None:
            for cand in self.ancestors(cls_qual):
                info = self.classes.get(cand)
                if info is None:
                    continue
                if attr in info.lock_attrs:
                    suffix = "[]" if attr in info.lockmap_attrs else ""
                    return cand + "." + attr + suffix
            return None
        owners = self.by_class_attr_lock.get(attr, [])
        if len(owners) == 1:
            info = self.classes[owners[0]]
            suffix = "[]" if attr in info.lockmap_attrs else ""
            return owners[0] + "." + attr + suffix
        if owners:
            return "*." + attr
        return None

    def is_reentrant(self, lock_id: str) -> bool:
        base = lock_id.rstrip("[]")
        cls, _, attr = base.rpartition(".")
        info = self.classes.get(cls)
        if info is not None and attr in info.reentrant_attrs:
            return True
        return False


def _iter_defs(tree: ast.Module):
    """Yield (cls_name_or_None, parent_func_or_None, funcdef) for a module."""

    def walk_body(body, cls, parent):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls, parent, node
                yield from walk_body(node.body, None, node)
            elif isinstance(node, ast.ClassDef):
                yield from walk_body(node.body, node.name, None)
            elif isinstance(node, (ast.If, ast.Try, ast.With)):
                yield from walk_body(node.body, cls, parent)

    yield from walk_body(tree.body, None, None)


def _index_module(
    index: _Index, tree: ast.Module, module: str, relpath: str
) -> None:
    mod_names: Dict[str, str] = index.names.setdefault(module, {})

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level >= 1:
            # Relative import: map the bound name to "<pkg path>.<name>".
            parts = module.split(".") if module else []
            if node.level <= len(parts):
                base_parts = parts[: len(parts) - (node.level - 1)]
                # level=1 → same package as the module's parent.
                base_parts = parts[: -(node.level)] if node.level <= len(parts) else []
                base = ".".join(base_parts)
                src = (base + "." if base else "") + (node.module or "")
                src = src.strip(".")
                for alias in node.names:
                    bound = alias.asname or alias.name
                    mod_names[bound] = (src + "." if src else "") + alias.name

    parent_qual: Dict[int, str] = {}
    for cls_name, parent_fn, fn in _iter_defs(tree):
        if cls_name is not None:
            qual = f"{module}.{cls_name}.{fn.name}" if module else f"{cls_name}.{fn.name}"
            cls_qual = f"{module}.{cls_name}" if module else cls_name
        elif parent_fn is not None:
            pq = parent_qual[id(parent_fn)]
            qual = pq + "." + fn.name
            cls_qual = None
        else:
            qual = f"{module}.{fn.name}" if module else fn.name
            cls_qual = None
            mod_names[fn.name] = qual
        parent_qual[id(fn)] = qual
        info = _FuncInfo(
            qual=qual,
            node=fn,
            module=module,
            cls=cls_qual if cls_name is not None else None,
            parent=parent_qual[id(parent_fn)] if parent_fn is not None else None,
            relpath=relpath,
        )
        for arg in list(fn.args.args) + list(fn.args.kwonlyargs):
            ann = arg.annotation
            if ann is not None:
                name = _ann_class_name(ann)
                if name is not None:
                    info.param_types[arg.arg] = name
        index.functions[qual] = info
        index.methods_by_name.setdefault(fn.name, []).append(qual)

    # Classes: bases, lock attrs, attr types, element types, methods.
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        cls_qual = f"{module}.{node.name}" if module else node.name
        mod_names[node.name] = cls_qual
        cinfo = _ClassInfo(qual=cls_qual, module=module, name=node.name)
        for base in node.bases:
            bname = _dotted(base)
            if bname is not None:
                cinfo.bases.append(bname.rsplit(".", 1)[-1])
        for cls2, _parent, fn in _iter_defs(tree):
            if cls2 != node.name:
                continue
            cinfo.methods[fn.name] = f"{cls_qual}.{fn.name}"
            for stmt in ast.walk(fn):
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    tgt = stmt.targets[0]
                    if (
                        isinstance(tgt, ast.Attribute)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "self"
                    ):
                        _record_attr_assign(cinfo, tgt.attr, stmt.value, module, index)
                elif isinstance(stmt, ast.AnnAssign):
                    tgt = stmt.target
                    if (
                        isinstance(tgt, ast.Attribute)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "self"
                    ):
                        _record_ann_types(cinfo, tgt.attr, stmt.annotation)
                        if stmt.value is not None:
                            _record_attr_assign(cinfo, tgt.attr, stmt.value, module, index)
        index.classes[cls_qual] = cinfo
        index.module_of[cls_qual] = module
        for attr in cinfo.lock_attrs:
            index.by_class_attr_lock.setdefault(attr, []).append(cls_qual)


def _ann_class_name(ann: ast.AST) -> Optional[str]:
    """Extract a plain class name from an annotation node, if any."""
    if isinstance(ann, ast.Name):
        return ann.id
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value.strip().rsplit(".", 1)[-1] or None
    if isinstance(ann, ast.Attribute):
        return ann.attr
    if isinstance(ann, ast.Subscript):
        base = _dotted(ann.value)
        if base in {"Optional", "typing.Optional"}:
            return _ann_class_name(ann.slice)
    return None


def _record_ann_types(cinfo: _ClassInfo, attr: str, ann: ast.AST) -> None:
    """Record Dict[..., Cls] element types so loops over .values() type."""
    if isinstance(ann, ast.Subscript):
        base = _dotted(ann.value)
        if base in {"Dict", "dict", "typing.Dict"}:
            sl = ann.slice
            if isinstance(sl, ast.Tuple) and len(sl.elts) == 2:
                elem = _ann_class_name(sl.elts[1])
                if elem is not None:
                    cinfo.elem_types[attr] = elem
        elif base in {"List", "list", "typing.List"}:
            elem = _ann_class_name(ann.slice)
            if elem is not None:
                cinfo.elem_types[attr] = elem
        else:
            name = _ann_class_name(ann)
            if name is not None:
                cinfo.attr_types[attr] = name
    else:
        name = _ann_class_name(ann)
        if name is not None:
            cinfo.attr_types[attr] = name


def _record_attr_assign(
    cinfo: _ClassInfo, attr: str, value: ast.AST, module: str, index: _Index
) -> None:
    if isinstance(value, ast.Call):
        if _is_lock_ctor(value):
            cinfo.lock_attrs.add(attr)
            name = _dotted(value.func)
            if name in _REENTRANT_CTORS:
                cinfo.reentrant_attrs.add(attr)
            return
        ctor = _dotted(value.func)
        if ctor is not None:
            cinfo.attr_types.setdefault(attr, ctor.rsplit(".", 1)[-1])
        return
    if isinstance(value, ast.DictComp) and isinstance(value.value, ast.Call):
        if _is_lock_ctor(value.value):
            cinfo.lock_attrs.add(attr)
            cinfo.lockmap_attrs.add(attr)


# ---------------------------------------------------------------------------
# Held-set walker
# ---------------------------------------------------------------------------


class _Analyzer:
    def __init__(
        self,
        index: _Index,
        sources: Dict[str, List[str]],  # relpath -> source lines
        allow: Sequence[str] = (),
    ) -> None:
        self.index = index
        self.sources = sources
        self.allow = tuple(allow)
        self.edges: Dict[Tuple[str, str], LockEdge] = {}
        self.accesses: List[_Access] = []
        self.calls: Dict[str, Set[str]] = {}
        self.roots: List[ThreadRoot] = []
        self.suppressed = 0
        self._visited: Set[Tuple[str, Tuple[str, ...]]] = set()
        self._self_loops: Dict[str, str] = {}

    # -- pragma handling ----------------------------------------------------

    def _line_suppressed(self, relpath: str, lineno: int) -> bool:
        lines = self.sources.get(relpath)
        if lines is None or not (1 <= lineno <= len(lines)):
            return False
        return PRAGMA in lines[lineno - 1]

    # -- receiver typing ----------------------------------------------------

    def _receiver_class(self, fn: _FuncInfo, node: ast.AST) -> Optional[str]:
        """Resolve the class of an expression, conservatively."""
        if isinstance(node, ast.Name):
            if node.id == "self" and fn.cls is not None:
                return fn.cls
            name = fn.local_types.get(node.id) or fn.param_types.get(node.id)
            if name is not None:
                return self.index.resolve_class(fn.module, name)
            return None
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = self._receiver_class(fn, node.value)
            if owner is not None:
                for cand in self.index.ancestors(owner):
                    info = self.index.classes.get(cand)
                    if info is not None and node.attr in info.attr_types:
                        return self.index.resolve_class(
                            info.module, info.attr_types[node.attr]
                        )
            return None
        return None

    def _infer_local_types(self, fn: _FuncInfo) -> None:
        """Populate fn.local_types from ctor calls, annotations and typed loops."""
        body = getattr(fn.node, "body", [])
        for stmt in ast.walk(fn.node):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt is not fn.node:
                continue
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                tgt = stmt.targets[0]
                if isinstance(tgt, ast.Name) and isinstance(stmt.value, ast.Call):
                    ctor = _dotted(stmt.value.func)
                    if ctor is not None:
                        resolved = self.index.resolve_class(
                            fn.module, ctor.rsplit(".", 1)[-1]
                        )
                        if resolved is not None:
                            fn.local_types[tgt.id] = resolved.rsplit(".", 1)[-1]
                    if isinstance(stmt.value, ast.Call) and _is_lock_ctor(stmt.value):
                        fn.local_locks.add(tgt.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                name = _ann_class_name(stmt.annotation)
                if name is not None:
                    fn.local_types[stmt.target.id] = name
            elif isinstance(stmt, (ast.For,)):
                self._type_loop_target(fn, stmt)
        del body

    def _type_loop_target(self, fn: _FuncInfo, loop: ast.For) -> None:
        """Type ``for k, link in self._links.items()`` loop variables."""
        it = loop.iter
        call_attr = None
        base = it
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute):
            call_attr = it.func.attr
            base = it.func.value
        if isinstance(it, ast.Call) and call_attr == "list" and it.args:
            base = it.args[0]
            if isinstance(base, ast.Call) and isinstance(base.func, ast.Attribute):
                call_attr = base.func.attr
                base = base.func.value
        if not isinstance(base, ast.Attribute):
            return
        owner = self._receiver_class(fn, base.value)
        if owner is None:
            return
        elem = None
        for cand in self.index.ancestors(owner):
            info = self.index.classes.get(cand)
            if info is not None and base.attr in info.elem_types:
                elem = info.elem_types[base.attr]
                break
        if elem is None:
            return
        tgt = loop.target
        if call_attr in {"values", None} and isinstance(tgt, ast.Name):
            fn.local_types[tgt.id] = elem
        elif call_attr == "items" and isinstance(tgt, ast.Tuple) and len(tgt.elts) == 2:
            second = tgt.elts[1]
            if isinstance(second, ast.Name):
                fn.local_types[second.id] = elem

    # -- lock identity at an acquire site ------------------------------------

    def _lock_id_for(self, fn: _FuncInfo, node: ast.AST) -> Optional[str]:
        """Identity of the lock named by a ``with X`` context expression."""
        # self._lock / obj.lock / obj.locks[m]
        target = node
        lockmap = False
        if isinstance(target, ast.Subscript):
            target = target.value
            lockmap = True
        if isinstance(target, ast.Attribute):
            owner = self._receiver_class(fn, target.value)
            ident = self.index.lock_identity(owner, target.attr)
            if ident is not None:
                if lockmap and not ident.endswith("[]"):
                    ident += "[]"
                return ident
            return None
        if isinstance(target, ast.Name):
            if target.id in fn.local_locks:
                return fn.qual + "." + target.id
            # Closure over a lock local to the parent function.
            parent = fn.parent
            while parent is not None:
                pfn = self.index.functions.get(parent)
                if pfn is None:
                    break
                if target.id in pfn.local_locks:
                    return pfn.qual + "." + target.id
                parent = pfn.parent
            return None
        return None

    # -- call resolution -----------------------------------------------------

    def _resolve_call(self, fn: _FuncInfo, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            # Nested function defined in this function (or an enclosing one).
            scope = fn.qual
            while scope:
                cand = scope + "." + func.id
                if cand in self.index.functions:
                    return cand
                parent = self.index.functions.get(scope)
                scope = parent.parent if parent is not None else None  # type: ignore[assignment]
                if scope is None:
                    break
            mod_names = self.index.names.get(fn.module, {})
            target = mod_names.get(func.id)
            if target in self.index.functions:
                return target
            cand = (fn.module + "." if fn.module else "") + func.id
            if cand in self.index.functions:
                return cand
            return None
        if isinstance(func, ast.Attribute):
            owner = self._receiver_class(fn, func.value)
            if owner is None:
                return None
            found = self.index.lookup_method(owner, func.attr)
            if found is not None:
                return found
            return None
        return None

    # -- main walk -----------------------------------------------------------

    def walk_function(self, qual: str, held: Tuple[str, ...], path: Tuple[str, ...]) -> None:
        key = (qual, held)
        if key in self._visited or len(path) > 24:
            return
        self._visited.add(key)
        fn = self.index.functions.get(qual)
        if fn is None:
            return
        if not fn.local_types and not fn.local_locks:
            self._infer_local_types(fn)
        self._walk_body(fn, list(getattr(fn.node, "body", [])), held, path + (qual,))

    def _walk_body(
        self,
        fn: _FuncInfo,
        body: List[ast.stmt],
        held: Tuple[str, ...],
        path: Tuple[str, ...],
    ) -> None:
        for stmt in body:
            self._walk_stmt(fn, stmt, held, path)

    def _walk_stmt(
        self, fn: _FuncInfo, stmt: ast.stmt, held: Tuple[str, ...], path: Tuple[str, ...]
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.With):
            acquired: List[str] = []
            for item in stmt.items:
                lock_id = self._lock_id_for(fn, item.context_expr)
                if lock_id is not None:
                    self._record_acquire(fn, lock_id, held, path, stmt.lineno)
                    acquired.append(lock_id)
                else:
                    self._scan_expr(fn, item.context_expr, held, path)
            new_held = held + tuple(a for a in acquired if a not in held)
            self._walk_body(fn, stmt.body, new_held, path)
            return
        if isinstance(stmt, ast.If):
            self._scan_expr(fn, stmt.test, held, path)
            self._walk_body(fn, stmt.body, held, path)
            self._walk_body(fn, stmt.orelse, held, path)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(fn, stmt.iter, held, path)
            self._walk_body(fn, stmt.body, held, path)
            self._walk_body(fn, stmt.orelse, held, path)
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(fn, stmt.test, held, path)
            self._walk_body(fn, stmt.body, held, path)
            self._walk_body(fn, stmt.orelse, held, path)
            return
        if isinstance(stmt, ast.Try):
            self._walk_body(fn, stmt.body, held, path)
            for handler in stmt.handlers:
                self._walk_body(fn, handler.body, held, path)
            self._walk_body(fn, stmt.orelse, held, path)
            self._walk_body(fn, stmt.finalbody, held, path)
            return
        # Generic statement: scan expressions for calls / attribute accesses.
        self._scan_stmt_exprs(fn, stmt, held, path)

    def _scan_stmt_exprs(
        self, fn: _FuncInfo, stmt: ast.stmt, held: Tuple[str, ...], path: Tuple[str, ...]
    ) -> None:
        write_bases: Set[int] = set()
        if isinstance(stmt, ast.Assign):
            for tgt in stmt.targets:
                self._mark_write_target(fn, tgt, held, stmt.lineno, write_bases)
            self._scan_expr(fn, stmt.value, held, path)
            return
        if isinstance(stmt, ast.AugAssign):
            self._mark_write_target(fn, stmt.target, held, stmt.lineno, write_bases)
            self._scan_expr(fn, stmt.value, held, path)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_expr(fn, stmt.value, held, path)
            self._mark_write_target(fn, stmt.target, held, stmt.lineno, write_bases)
            return
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Call):
                self._handle_call(fn, node, held, path)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                self._record_attr_access(fn, node, held, write=False, lineno=node.lineno)

    def _mark_write_target(
        self,
        fn: _FuncInfo,
        tgt: ast.AST,
        held: Tuple[str, ...],
        lineno: int,
        seen: Set[int],
    ) -> None:
        node = tgt
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            self._record_attr_access(fn, node, held, write=True, lineno=lineno)
        elif isinstance(node, ast.Tuple):
            for elt in node.elts:
                self._mark_write_target(fn, elt, held, lineno, seen)

    def _scan_expr(
        self, fn: _FuncInfo, expr: ast.AST, held: Tuple[str, ...], path: Tuple[str, ...]
    ) -> None:
        for node in ast.walk(expr):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Call):
                self._handle_call(fn, node, held, path)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                self._record_attr_access(fn, node, held, write=False, lineno=node.lineno)

    def _handle_call(
        self, fn: _FuncInfo, call: ast.Call, held: Tuple[str, ...], path: Tuple[str, ...]
    ) -> None:
        # Thread roots: Thread(target=f) and escaping closures.
        if _is_thread_ctor(call):
            for kw in call.keywords:
                if kw.arg == "target":
                    target = self._resolve_callable_ref(fn, kw.value)
                    if target is not None:
                        self.roots.append(
                            ThreadRoot(
                                func=target,
                                kind="thread-target",
                                spawned_at=f"{fn.relpath}:{call.lineno}",
                            )
                        )
        else:
            # Closures escaping as callback arguments.
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                if isinstance(arg, ast.Name):
                    cand = fn.qual + "." + arg.id
                    if cand in self.index.functions:
                        self.roots.append(
                            ThreadRoot(
                                func=cand,
                                kind="escaping-closure",
                                spawned_at=f"{fn.relpath}:{call.lineno}",
                            )
                        )
        # .acquire() on a known lock.
        if isinstance(call.func, ast.Attribute) and call.func.attr == "acquire":
            lock_id = self._lock_id_for(fn, call.func.value)
            if lock_id is not None:
                self._record_acquire(fn, lock_id, held, path, call.lineno)
        callee = self._resolve_call(fn, call)
        if callee is not None:
            self.calls.setdefault(fn.qual, set()).add(callee)
            if held:
                self.walk_function(callee, held, path)

    def _resolve_callable_ref(self, fn: _FuncInfo, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            cand = fn.qual + "." + node.id
            if cand in self.index.functions:
                return cand
            mod_names = self.index.names.get(fn.module, {})
            target = mod_names.get(node.id)
            if target in self.index.functions:
                return target
            cand = (fn.module + "." if fn.module else "") + node.id
            if cand in self.index.functions:
                return cand
            return None
        if isinstance(node, ast.Attribute):
            owner = self._receiver_class(fn, node.value)
            if owner is not None:
                return self.index.lookup_method(owner, node.attr)
        return None

    def _record_acquire(
        self,
        fn: _FuncInfo,
        lock_id: str,
        held: Tuple[str, ...],
        path: Tuple[str, ...],
        lineno: int,
    ) -> None:
        site = f"{fn.relpath}:{lineno}"
        if lock_id in held and not self.index.is_reentrant(lock_id):
            # Self-deadlock: re-acquiring a non-reentrant lock.
            self._self_loops.setdefault(lock_id, site)
        for h in held:
            if h == lock_id:
                continue
            key = (h, lock_id)
            if key in self.edges:
                self.edges[key].count += 1
            else:
                witness = list(path) + [f"acquire {lock_id} at {site} (holding {h})"]
                self.edges[key] = LockEdge(src=h, dst=lock_id, path=witness)

    def _record_attr_access(
        self,
        fn: _FuncInfo,
        node: ast.Attribute,
        held: Tuple[str, ...],
        write: bool,
        lineno: int,
    ) -> None:
        if node.attr.startswith("__") and node.attr.endswith("__"):
            return
        owner = self._receiver_class(fn, node.value)
        if owner is None:
            return
        # Resolve to the declaring class so subclass accesses share a key.
        decl = owner
        for cand in self.index.ancestors(owner):
            info = self.index.classes.get(cand)
            if info is None:
                continue
            if (
                node.attr in info.attr_types
                or node.attr in info.lock_attrs
                or node.attr in info.methods
                or node.attr in info.elem_types
            ):
                decl = cand
        dinfo = self.index.classes.get(decl)
        if dinfo is not None and node.attr in dinfo.methods:
            return  # method reference, not shared state
        if dinfo is not None and node.attr in dinfo.lock_attrs:
            return  # the lock object itself
        is_init = fn.qual.endswith(".__init__")
        suppressed = self._line_suppressed(fn.relpath, lineno)
        self.accesses.append(
            _Access(
                func=fn.qual,
                key=decl + "." + node.attr,
                attr=node.attr,
                write=write,
                init=is_init,
                held=held,
                site=f"{fn.relpath}:{lineno}",
                suppressed=suppressed,
            )
        )


# ---------------------------------------------------------------------------
# Reachability + reporting
# ---------------------------------------------------------------------------


def _reachable_from(calls: Dict[str, Set[str]], start: str) -> Set[str]:
    out: Set[str] = set()
    stack = [start]
    while stack:
        cur = stack.pop()
        if cur in out:
            continue
        out.add(cur)
        stack.extend(calls.get(cur, ()))
    return out


def _find_cycles(edges: Dict[Tuple[str, str], LockEdge]) -> List[List[str]]:
    """Tarjan SCC over the lock digraph; return non-trivial components."""
    graph: Dict[str, Set[str]] = {}
    for (src, dst) in edges:
        graph.setdefault(src, set()).add(dst)
        graph.setdefault(dst, set())
    index_counter = [0]
    stack: List[str] = []
    lowlink: Dict[str, int] = {}
    number: Dict[str, int] = {}
    on_stack: Set[str] = set()
    result: List[List[str]] = []

    def strongconnect(v: str) -> None:
        work = [(v, iter(sorted(graph.get(v, ()))))]
        number[v] = lowlink[v] = index_counter[0]
        index_counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in number:
                    number[w] = lowlink[w] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[node] = min(lowlink[node], number[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == number[node]:
                comp: List[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1:
                    result.append(sorted(comp))

    for v in sorted(graph):
        if v not in number:
            strongconnect(v)
    return result


def _allow_matches(allow: Sequence[str], key: str, attr: str) -> bool:
    for pat in allow:
        if key == pat or key.endswith("." + pat) or attr == pat:
            return True
    return False


def _build_report(analyzer: _Analyzer, allow: Sequence[str]) -> ConcReport:
    index = analyzer.index
    report = ConcReport()
    report.roots = analyzer.roots
    lock_ids: Set[str] = set()
    for cls_qual, info in index.classes.items():
        for attr in info.lock_attrs:
            suffix = "[]" if attr in info.lockmap_attrs else ""
            lock_ids.add(cls_qual + "." + attr + suffix)
    for fn in index.functions.values():
        for name in fn.local_locks:
            lock_ids.add(fn.qual + "." + name)
    for (src, dst) in analyzer.edges:
        lock_ids.add(src)
        lock_ids.add(dst)
    report.locks = sorted(lock_ids)
    report.edges = [analyzer.edges[k] for k in sorted(analyzer.edges)]
    report.suppressed = analyzer.suppressed

    # Cycles.
    for comp in _find_cycles(analyzer.edges):
        sites: List[str] = []
        for (src, dst), edge in sorted(analyzer.edges.items()):
            if src in comp and dst in comp:
                sites.append(" -> ".join(edge.path))
        report.cycles.append(
            ConcFinding(
                kind="lock-order-cycle",
                message="potential deadlock: locks acquired in conflicting orders: "
                + ", ".join(comp),
                sites=sites,
            )
        )
    for lock_id, site in sorted(analyzer._self_loops.items()):
        report.cycles.append(
            ConcFinding(
                kind="lock-order-cycle",
                message=f"potential self-deadlock: non-reentrant lock {lock_id} "
                "re-acquired while already held",
                sites=[site],
            )
        )

    # Guarded-attribute races.
    root_funcs = {r.func for r in analyzer.roots}
    reach: Dict[str, Set[str]] = {}
    for root in root_funcs:
        reach[root] = _reachable_from(analyzer.calls, root)

    by_key: Dict[str, List[_Access]] = {}
    for acc in analyzer.accesses:
        by_key.setdefault(acc.key, []).append(acc)

    for key in sorted(by_key):
        accs = by_key[key]
        attr = accs[0].attr
        if _allow_matches(allow, key, attr):
            continue
        guard_counts: Dict[str, int] = {}
        for acc in accs:
            if acc.write and not acc.init and acc.held:
                for h in acc.held:
                    guard_counts[h] = guard_counts.get(h, 0) + 1
        if not guard_counts:
            continue  # never written under a lock outside init — out of scope
        guard = max(sorted(guard_counts), key=lambda k: guard_counts[k])
        # Execution contexts that touch this attribute.
        contexts: Set[str] = set()
        for acc in accs:
            if acc.init:
                continue
            owners = [r for r in root_funcs if acc.func in reach[r]]
            if owners:
                contexts.update(owners)
            else:
                contexts.add("<main>")
        if len(contexts) < 2:
            continue
        bad: List[_Access] = []
        suppressed_here = 0
        for acc in accs:
            if acc.init:
                continue
            if guard in acc.held:
                continue
            if acc.suppressed:
                suppressed_here += 1
                continue
            bad.append(acc)
        analyzer.suppressed += suppressed_here
        report.suppressed = analyzer.suppressed
        if not bad:
            continue
        sites = sorted({f"{a.site} ({'write' if a.write else 'read'} in {a.func})" for a in bad})
        report.races.append(
            ConcFinding(
                kind="unguarded-access",
                message=f"{key} is guarded by {guard} at its writes but accessed "
                f"without it ({len(contexts)} execution contexts)",
                sites=sites,
            )
        )
    return report


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _module_name_for(relpath: str) -> str:
    parts = Path(relpath).with_suffix("").parts
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def analyze_sources(
    files: Dict[str, str], *, allow: Sequence[str] = ()
) -> ConcReport:
    """Analyze a mapping of relpath -> source text."""
    index = _Index()
    trees: Dict[str, Tuple[str, ast.Module]] = {}
    lines: Dict[str, List[str]] = {}
    for relpath in sorted(files):
        source = files[relpath]
        tree = ast.parse(source, filename=relpath)
        module = _module_name_for(relpath)
        trees[relpath] = (module, tree)
        lines[relpath] = source.splitlines()
        _index_module(index, tree, module, relpath)
    analyzer = _Analyzer(index, lines, allow=allow)
    # Pre-type every function so closures/receivers resolve before walking.
    for fn in index.functions.values():
        analyzer._infer_local_types(fn)
    # Walk every function once with an empty held set to collect call edges,
    # accesses and thread roots; nested acquisitions recurse with held sets.
    for qual in sorted(index.functions):
        analyzer.walk_function(qual, (), ())
    return _build_report(analyzer, allow)


def analyze_source(source: str, relpath: str = "mod.py", *, allow: Sequence[str] = ()) -> ConcReport:
    """Analyze a single source blob (used by tests and --mutant)."""
    return analyze_sources({relpath: source}, allow=allow)


def analyze_paths(paths: Iterable[Path], *, allow: Sequence[str] = ()) -> ConcReport:
    root = package_root()
    files: Dict[str, str] = {}
    for path in paths:
        path = Path(path)
        candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for f in candidates:
            try:
                rel = str(f.resolve().relative_to(root))
            except ValueError:
                rel = f.name
            files[rel] = f.read_text(encoding="utf-8")
    return analyze_sources(files, allow=allow)


def analyze_package(*, allow: Sequence[str] = ()) -> ConcReport:
    """Analyze the shipped ``repro`` package."""
    return analyze_paths([package_root()], allow=allow)


def mutant_source() -> str:
    """A fixture with a deliberate AB/BA lock inversion (prove the prover)."""
    return '''\
import threading


class Inverted:
    """Two locks, two methods, opposite acquisition orders."""

    def __init__(self):
        self.a = threading.Lock()
        self.b = threading.Lock()
        self.shared = 0

    def flip(self):
        with self.a:
            with self.b:
                self.shared += 1

    def flop(self):
        with self.b:
            with self.a:
                self.shared -= 1

    def run(self):
        t = threading.Thread(target=self.flip)
        t.start()
        self.flop()
        t.join(timeout=5.0)
'''
