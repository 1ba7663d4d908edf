"""Static lock model: acquisition sites, hold sets, and a call graph.

The analyzers here are deliberately *instance-insensitive*: a lock is
identified by where its attribute is created (``Mailbox._lock``,
``_RendezvousState.lock``, ``profiler._attach_lock``), not by object
identity.  That is the right granularity for lock-*order* reasoning —
"some Mailbox lock is taken while some BsendPool lock is held" — and it
is what makes a cross-module graph tractable without running the code.

Recognized acquisition forms::

    with self._lock: ...                  # plain attribute
    with self._plock[peer]: ...           # lock collection (dict/grid)
    with self._peer_lock(src, dst): ...   # lock-returning helper
    with st.lock: ...                     # typed local (st = self._rndv[r])
    something.acquire()                   # explicit acquire

``threading.Condition(self._lock)`` aliases the condition attribute to
its underlying lock, so ``with self._arrival:`` and ``with self._lock:``
acquire the *same* node — and ``self._arrival.wait()`` while holding
only that node is the sanctioned condition-variable pattern, not a
blocking-under-lock defect.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

#: attribute calls that block the calling thread outright
BLOCKING_SOCKET_ATTRS = frozenset({
    "recv", "recv_into", "recvmsg", "recvmsg_into", "sendall", "sendmsg",
    "accept", "connect",
})

#: method names too generic to resolve by uniqueness alone — when the
#: receiver's type is unknown, resolving e.g. ``self.events.append()``
#: to the single in-repo class that happens to define ``append`` would
#: fabricate call edges (and with them, lock-order cycles)
GENERIC_METHOD_NAMES = frozenset({
    "append", "appendleft", "add", "pop", "popleft", "get", "put",
    "get_nowait", "put_nowait", "clear", "remove", "discard", "extend",
    "update", "copy", "insert", "index", "count", "sort", "items",
    "keys", "values", "setdefault", "close", "read", "write", "flush",
    "encode", "decode", "send", "recv", "start", "stop", "run", "join",
    "wait", "set", "acquire", "release", "notify", "notify_all",
})

#: threading primitives whose wait blocks (Event.wait, Request.wait, ...)
WAIT_ATTR = "wait"
JOIN_ATTR = "join"
#: ``Waiter.park``, the sleep behind every request wait: underneath, a
#: ``Lock.acquire`` of a gate only another thread opens
PARK_ATTR = "park"

LOCK_CTORS = {"Lock": "lock", "RLock": "rlock"}


@dataclass
class LockAttr:
    """One lock-ish attribute of a class (or module)."""

    name: str
    kind: str                       # lock | rlock | cond | event | lockmap
    alias: Optional[str] = None     # condition -> underlying lock attr


@dataclass
class ClassModel:
    name: str
    module: str
    bases: list[str]
    locks: dict[str, LockAttr] = field(default_factory=dict)
    #: ``self.x = ClassName(...)`` -> attribute type by simple name
    attr_types: dict[str, str] = field(default_factory=dict)
    #: ``self.x = {k: ClassName() ...}`` -> container element type
    attr_elem_types: dict[str, str] = field(default_factory=dict)
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)


@dataclass
class Acquisition:
    """One lock acquisition event inside a function."""

    node: str            # lock node id, e.g. "Mailbox._lock"
    line: int
    held: tuple          # lock node ids already held at this point
    kind: str            # with | acquire


@dataclass
class BlockSite:
    """One potentially blocking operation inside a function."""

    line: int
    held: tuple
    desc: str            # human-readable operation
    sanctioned: bool     # cond.wait on exactly the (single) held lock


@dataclass
class CallSite:
    line: int
    held: tuple
    callee: Optional[str]    # resolved function key, or None
    desc: str


@dataclass
class FuncModel:
    key: str                 # "module::Class.meth" or "module::func"
    module: str
    path: str
    cls: Optional[ClassModel]
    node: ast.AST
    acquisitions: list[Acquisition] = field(default_factory=list)
    blocks: list[BlockSite] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)


class CodeModel:
    """Whole-tree model: classes, functions, locks, and resolution."""

    def __init__(self):
        self.classes: dict[str, ClassModel] = {}
        self.functions: dict[str, FuncModel] = {}
        #: module-level locks: node id "module.attr"
        self.module_locks: dict[str, str] = {}   # bare name -> node id
        #: lock attr name -> class names defining it (for fallbacks)
        self.lock_attr_index: dict[str, list[str]] = {}
        #: module-level function name -> keys (for call resolution)
        self.func_name_index: dict[str, list[str]] = {}
        #: method name -> class names defining it
        self.method_index: dict[str, list[str]] = {}

    # -- discovery ---------------------------------------------------------
    def add_module(self, module: str, path: str, tree: ast.Module) -> None:
        for st in tree.body:
            if isinstance(st, ast.Assign) and len(st.targets) == 1 \
                    and isinstance(st.targets[0], ast.Name):
                kind = _lock_ctor_kind(st.value)
                if kind in ("lock", "rlock"):
                    name = st.targets[0].id
                    self.module_locks[name] = f"{module}.{name}"
            elif isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{module}::{st.name}"
                self.functions[key] = FuncModel(key, module, path, None, st)
                self.func_name_index.setdefault(st.name, []).append(key)
            elif isinstance(st, ast.ClassDef):
                self._add_class(module, path, st)

    def _add_class(self, module: str, path: str, node: ast.ClassDef) -> None:
        bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
        cm = ClassModel(node.name, module, bases)
        self.classes.setdefault(node.name, cm)
        for st in node.body:
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cm.methods[st.name] = st
                self.method_index.setdefault(st.name, []).append(node.name)
                key = f"{module}::{node.name}.{st.name}"
                self.functions[key] = FuncModel(key, module, path, cm, st)
                _scan_attr_defs(cm, st)

    # -- resolution helpers -------------------------------------------------
    def class_lock(self, cls_name: str, attr: str) -> Optional[str]:
        """Lock node id for ``<cls>.<attr>``, following condition aliases
        and base classes."""
        seen = set()
        stack = [cls_name]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            cm = self.classes.get(name)
            if cm is None:
                continue
            la = cm.locks.get(attr)
            if la is not None:
                target = la.alias or la.name
                suffix = "[]" if la.kind == "lockmap" else ""
                return f"{name}.{target}{suffix}"
            stack.extend(cm.bases)
        return None

    def lock_attr_fallback(self, attr: str) -> Optional[str]:
        """Node for an attr on an *untyped* receiver: unique across the
        model -> that class; ambiguous -> a wildcard node."""
        owners = self.lock_attr_index.get(attr)
        if not owners:
            return None
        if len(owners) == 1:
            return self.class_lock(owners[0], attr)
        return f"*.{attr}"

    def resolve_method(self, cls_name: str, meth: str) -> Optional[str]:
        """Function key of ``cls.meth`` following base classes."""
        seen = set()
        stack = [cls_name]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            cm = self.classes.get(name)
            if cm is None:
                continue
            if meth in cm.methods:
                return f"{cm.module}::{name}.{meth}"
            stack.extend(cm.bases)
        return None

    def finalize(self) -> None:
        """Build the secondary indexes once discovery is complete."""
        self.lock_attr_index.clear()
        for cm in self.classes.values():
            for attr in cm.locks:
                self.lock_attr_index.setdefault(attr, []).append(cm.name)

    # -- analysis ----------------------------------------------------------
    def analyze(self) -> None:
        self.finalize()
        for fm in self.functions.values():
            _FuncScanner(self, fm).run()


def _lock_ctor_kind(expr: ast.AST) -> Optional[str]:
    """'lock'/'rlock'/'cond'/'event' if expr constructs one, else None."""
    if not isinstance(expr, ast.Call):
        return None
    fn = expr.func
    name = None
    if isinstance(fn, ast.Attribute):
        name = fn.attr
    elif isinstance(fn, ast.Name):
        name = fn.id
    if name in LOCK_CTORS:
        return LOCK_CTORS[name]
    if name == "Condition":
        return "cond"
    if name == "Event":
        return "event"
    return None


def _ctor_class_name(expr: ast.AST) -> Optional[str]:
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id
    return None


def _scan_attr_defs(cm: ClassModel, fn: ast.FunctionDef) -> None:
    """Record ``self.x = ...`` lock/type definitions in one method."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.Lambda, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node is not fn:
            continue
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target, value = node.targets[0], node.value
        # self._wlock[i][j] = threading.Lock()  ->  lock collection
        base = target
        depth = 0
        while isinstance(base, ast.Subscript):
            base = base.value
            depth += 1
        if not (isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"):
            continue
        attr = base.attr
        if depth:
            if _lock_ctor_kind(value) in ("lock", "rlock"):
                cm.locks.setdefault(attr, LockAttr(attr, "lockmap"))
            continue
        kind = _lock_ctor_kind(value)
        if kind is not None:
            alias = None
            if kind == "cond" and value.args:
                arg = value.args[0]
                if isinstance(arg, ast.Attribute) \
                        and isinstance(arg.value, ast.Name) \
                        and arg.value.id == "self":
                    alias = arg.attr
            cm.locks[attr] = LockAttr(attr, kind, alias)
            continue
        # containers of locks / typed objects:
        #   self._plock = {p: threading.Lock() for p in peers}
        #   self._rndv = {r: _RendezvousState() for r in ranks}
        elem = _container_elem(value)
        if elem is not None:
            if _lock_ctor_kind(elem) in ("lock", "rlock"):
                cm.locks[attr] = LockAttr(attr, "lockmap")
            else:
                cls = _ctor_class_name(elem)
                if cls is not None:
                    cm.attr_elem_types[attr] = cls
            continue
        cls = _ctor_class_name(value)
        if cls is not None:
            cm.attr_types[attr] = cls


def _container_elem(expr: ast.AST) -> Optional[ast.AST]:
    """Element expression of a dict/list literal or comprehension."""
    if isinstance(expr, ast.DictComp):
        return expr.value
    if isinstance(expr, ast.ListComp):
        return expr.elt
    if isinstance(expr, ast.Dict) and expr.values:
        return expr.values[0]
    if isinstance(expr, (ast.List, ast.Tuple)) and expr.elts:
        return expr.elts[0]
    return None


class _FuncScanner:
    """Walk one function body tracking the set of held locks."""

    def __init__(self, model: CodeModel, fm: FuncModel):
        self.model = model
        self.fm = fm
        self.held: list[str] = []
        #: local variable -> class simple name (flow-insensitive-ish:
        #: updated in statement order)
        self.var_types: dict[str, str] = {}
        #: local variable -> lock node (``lock = threading.Lock()``)
        self.local_locks: dict[str, str] = {}

    def run(self) -> None:
        body = getattr(self.fm.node, "body", [])
        self._scan_block(body)

    # -- statements --------------------------------------------------------
    def _scan_block(self, stmts: list[ast.stmt]) -> None:
        for st in stmts:
            self._scan_stmt(st)

    def _scan_stmt(self, st: ast.stmt) -> None:
        if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
            return   # nested defs run later, not under these locks
        if isinstance(st, (ast.With, ast.AsyncWith)):
            acquired = []
            for item in st.items:
                self._scan_expr(item.context_expr)
                node = self._resolve_lock_expr(item.context_expr)
                if node is not None:
                    self.fm.acquisitions.append(Acquisition(
                        node, item.context_expr.lineno,
                        tuple(self.held), "with"))
                    self.held.append(node)
                    acquired.append(node)
            self._scan_block(st.body)
            for _ in acquired:
                self.held.pop()
            return
        if isinstance(st, ast.Assign):
            self._scan_expr(st.value)
            self._note_assignment(st)
        else:
            for value in ast.iter_child_nodes(st):
                if isinstance(value, ast.expr):
                    self._scan_expr(value)
        for name, field_val in ast.iter_fields(st):
            if not isinstance(field_val, list) or not field_val:
                continue
            if isinstance(field_val[0], ast.stmt):
                self._scan_block(field_val)
            elif isinstance(field_val[0], ast.excepthandler):
                for handler in field_val:
                    self._scan_block(handler.body)

    def _note_assignment(self, st: ast.Assign) -> None:
        if len(st.targets) != 1 or not isinstance(st.targets[0], ast.Name):
            return
        name = st.targets[0].id
        kind = _lock_ctor_kind(st.value)
        if kind in ("lock", "rlock"):
            self.local_locks[name] = f"{self.fm.key}.<{name}>"
            return
        typ = self._expr_type(st.value)
        if typ is not None:
            self.var_types[name] = typ

    # -- expressions -------------------------------------------------------
    def _scan_expr(self, expr: ast.expr) -> None:
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue   # body runs later; not under these locks
            if isinstance(node, ast.Call):
                self._scan_call(node)
            stack.extend(ast.iter_child_nodes(node))

    def _scan_call(self, call: ast.Call) -> None:
        fn = call.func
        held = tuple(self.held)
        if isinstance(fn, ast.Attribute):
            attr = fn.attr
            if attr == "acquire":
                node = self._resolve_lock_expr(fn.value)
                if node is not None:
                    self.fm.acquisitions.append(Acquisition(
                        node, call.lineno, held, "acquire"))
                return
            if attr in BLOCKING_SOCKET_ATTRS:
                self.fm.blocks.append(BlockSite(
                    call.lineno, held, f"socket .{attr}()", False))
            elif attr == WAIT_ATTR:
                self._note_wait(call, fn, held)
            elif attr == JOIN_ATTR:
                self._note_join(call, fn, held)
            elif attr == PARK_ATTR:
                self.fm.blocks.append(BlockSite(
                    call.lineno, held, f"{_expr_text(fn.value)}.park()",
                    False))
            elif attr == "sleep" and isinstance(fn.value, ast.Name) \
                    and fn.value.id == "time":
                self.fm.blocks.append(BlockSite(
                    call.lineno, held, "time.sleep()", False))
            elif attr == "read" and isinstance(fn.value, ast.Name) \
                    and fn.value.id == "cma":
                # repro.transport.cma.read: a whole payload copied out
                # of a peer process, hundreds of microseconds per MiB
                self.fm.blocks.append(BlockSite(
                    call.lineno, held, "cma.read()", False))
        callee = self._resolve_callee(fn)
        if callee is not None:
            self.fm.calls.append(CallSite(
                call.lineno, held, callee, _expr_text(fn)))

    def _note_wait(self, call: ast.Call, fn: ast.Attribute,
                   held: tuple) -> None:
        node = self._resolve_lock_expr(fn.value)
        if node is not None:
            # condition-variable wait: sanctioned exactly when the
            # condition's own lock is the single lock held
            sanctioned = held == (node,)
            self.fm.blocks.append(BlockSite(
                call.lineno, held, f"condition wait on {node}", sanctioned))
            return
        self.fm.blocks.append(BlockSite(
            call.lineno, held, f"{_expr_text(fn.value)}.wait()", False))

    def _note_join(self, call: ast.Call, fn: ast.Attribute,
                   held: tuple) -> None:
        recv = fn.value
        if isinstance(recv, ast.Constant):
            return   # "sep".join(...)
        text = _expr_text(recv)
        typ = self._expr_type(recv)
        threadish = (typ == "Thread"
                     or any(h in text.lower()
                            for h in ("thread", "pump", "writer", "worker")))
        if isinstance(recv, ast.Attribute) and recv.attr == "path":
            return   # os.path.join
        if threadish:
            self.fm.blocks.append(BlockSite(
                call.lineno, held, f"{text}.join()", False))

    # -- type/lock resolution ----------------------------------------------
    def _expr_type(self, expr: ast.expr) -> Optional[str]:
        """Class simple name of an expression, where inferable."""
        cls = _ctor_class_name(expr)
        if cls is not None and cls in self.model.classes:
            return cls
        if cls is not None and cls == "Thread":
            return "Thread"
        if isinstance(expr, ast.Name):
            return self.var_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base_t = self._receiver_type(expr.value)
            if base_t is not None:
                cm = self.model.classes.get(base_t)
                if cm is not None:
                    return cm.attr_types.get(expr.attr)
            return None
        if isinstance(expr, ast.Subscript):
            return self._elem_type_of(expr.value)
        if isinstance(expr, ast.Call) \
                and isinstance(expr.func, ast.Attribute) \
                and expr.func.attr == "get":
            return self._elem_type_of(expr.func.value)
        return None

    def _elem_type_of(self, container: ast.expr) -> Optional[str]:
        """Element type of ``self.attr[...]`` / ``self.attr.get(...)``."""
        if isinstance(container, ast.Attribute):
            base_t = self._receiver_type(container.value)
            if base_t is not None:
                cm = self.model.classes.get(base_t)
                if cm is not None:
                    return cm.attr_elem_types.get(container.attr)
        return None

    def _receiver_type(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self.fm.cls is not None:
                return self.fm.cls.name
            return self.var_types.get(expr.id)
        return self._expr_type(expr)

    def _resolve_lock_expr(self, expr: ast.expr) -> Optional[str]:
        """Lock node id acquired by ``with <expr>:`` (or None)."""
        # unwrap subscripts: self._plock[p], self._wlock[i][j]
        base = expr
        while isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Name):
            if base.id in self.local_locks:
                return self.local_locks[base.id]
            return self.model.module_locks.get(base.id) \
                if self.model.module_locks.get(base.id, "").startswith(
                    self.fm.module + ".") else None
        if isinstance(base, ast.Call):
            # with self._peer_lock(src, dst):
            fn = base.func
            if isinstance(fn, ast.Attribute):
                t = self._receiver_type(fn.value)
                if t is not None and "lock" in fn.attr.lower():
                    return f"{t}.{fn.attr}()"
            return None
        if not isinstance(base, ast.Attribute):
            return None
        recv, attr = base.value, base.attr
        # module attribute: profiler._attach_lock
        if isinstance(recv, ast.Name) and recv.id not in ("self",) \
                and recv.id not in self.var_types:
            for bare, node in self.model.module_locks.items():
                if bare == attr and node.rsplit(".", 2)[-2] == recv.id:
                    return node
        t = self._receiver_type(recv)
        if t is not None:
            node = self.model.class_lock(t, attr)
            if node is not None:
                return node
            return None
        return self.model.lock_attr_fallback(attr)

    def _resolve_callee(self, fn: ast.expr) -> Optional[str]:
        if isinstance(fn, ast.Name):
            key = f"{self.fm.module}::{fn.id}"
            if key in self.model.functions:
                return key
            keys = self.model.func_name_index.get(fn.id, [])
            return keys[0] if len(keys) == 1 else None
        if isinstance(fn, ast.Attribute):
            t = self._receiver_type(fn.value)
            if t is not None:
                return self.model.resolve_method(t, fn.attr)
            if fn.attr in GENERIC_METHOD_NAMES:
                return None
            owners = self.model.method_index.get(fn.attr, [])
            if len(owners) == 1:
                return self.model.resolve_method(owners[0], fn.attr)
        return None


def _expr_text(expr: ast.expr) -> str:
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"


# -- whole-graph reasoning ----------------------------------------------------

def may_acquire(model: CodeModel) -> dict[str, set[str]]:
    """Transitive closure: function key -> lock nodes it may acquire."""
    direct = {k: {a.node for a in fm.acquisitions}
              for k, fm in model.functions.items()}
    return _closure(model, direct)


def may_block(model: CodeModel) -> dict[str, set[str]]:
    """Function key -> descriptions of blocking ops it may perform.

    Sanctioned condition waits (cond-wait under its own, single held
    lock) are still *blocking from the caller's perspective* — the wait
    releases that one lock, not any lock the caller holds — so they
    propagate here; only the direct site is exempt from findings."""
    direct = {k: {b.desc for b in fm.blocks}
              for k, fm in model.functions.items()}
    return _closure(model, direct)


def _closure(model: CodeModel,
             facts: dict[str, set[str]]) -> dict[str, set[str]]:
    out = {k: set(v) for k, v in facts.items()}
    changed = True
    while changed:
        changed = False
        for k, fm in model.functions.items():
            for cs in fm.calls:
                if cs.callee and cs.callee in out:
                    extra = out[cs.callee] - out[k]
                    if extra:
                        out[k].update(extra)
                        changed = True
    return out
