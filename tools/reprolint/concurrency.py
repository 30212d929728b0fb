"""Concurrency-correctness rules: lock discipline, ordering, hold-and-call.

Three rules grow reprolint from style/contract checks into a static
concurrency suite over the threaded subsystems (``serve/``, ``obs/``,
``resilience/``):

* **lock-discipline** — for every class that creates a
  ``threading.Lock`` / ``RLock`` / ``Condition`` in ``__init__``, infer
  the *guarded attribute set* (attributes written inside ``with
  self._lock:`` blocks anywhere in the class) and flag reads or writes
  of those attributes outside the lock in other methods.  Private
  helpers whose every intra-class call site holds the lock *inherit*
  that lock (the caller-must-hold pattern), so ``_dispatch_ready`` style
  internals need no annotations.
* **lock-ordering** — build the intra-class lock-acquisition graph
  (nested ``with`` blocks, followed through intra-class call edges) and
  report cycles as potential deadlocks.  Re-acquiring a non-reentrant
  ``Lock`` on any intra-class path is a definite deadlock and is always
  reported.  An ``RLock`` asks for trouble only when its reentrancy is
  undocumented: the creation line must carry a ``# reentrant: <chain>``
  comment naming the re-entrant call path, which is the code-level
  invariant this rule (and readers) can check.
* **hold-and-call** — flag work that must never run under a lock:
  ``time.sleep``, ``open()``, ``os``/``shutil``/``subprocess``/``socket``
  calls, and calls through *injected callables* (attributes assigned
  from an ``__init__`` parameter, e.g. user validators/handlers).
  Intentional cases — the queue's non-blocking validate/journal hooks,
  the WAL's write-under-lock — are suppressed inline with the invariant
  spelled out next to the call.

Scope and limits: the analysis is per class, per module.  It does not
follow calls across object boundaries (``self.store.publish()`` from
inside the service) and sees a lock taken through a context-manager
method (``with self.dispatch_barrier():``) as a call, not an
acquisition, so cross-class lock ordering — and the rank of such an
order-only mutex — is enforced at runtime by
:mod:`reprolint.sanitizer` instead; the two halves share one
lock-hierarchy contract (DESIGN.md §12).
"""

from __future__ import annotations

import ast
import functools
import inspect
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from reprolint.core import (
    Rule,
    SourceFile,
    Violation,
    dotted_name,
    register_rule,
)

#: callables whose result counts as creating a lock when assigned to
#: ``self.<attr>`` inside ``__init__`` (matched on the last path item so
#: ``threading.Lock``, ``Lock`` and ``mp.Lock`` all register)
LOCK_FACTORIES = ("Lock", "RLock", "Condition")

#: method names that mutate their receiver in place; a call like
#: ``self._buffer.append(...)`` counts as a *write* of ``self._buffer``
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "add", "discard", "update", "setdefault", "move_to_end",
        "appendleft", "popleft", "sort", "reverse",
    }
)

#: dotted-call prefixes that mean blocking I/O / process work
_IO_PREFIXES = ("os.", "shutil.", "subprocess.", "socket.", "requests.", "urllib.")
#: ``os.path`` is pure string manipulation, not I/O
_IO_EXEMPT_PREFIXES = ("os.path.", "os.environ",)

#: marker comment a reentrant lock's creation line must carry
REENTRANT_MARKER = "# reentrant:"


@dataclass(frozen=True)
class _LockInfo:
    """One lock attribute created in ``__init__``."""

    attr: str
    kind: str  # "Lock" | "RLock" | "Condition"
    lineno: int
    col: int


@dataclass(frozen=True)
class _Access:
    """One read/write of ``self.<attr>`` with the locks held around it."""

    method: str
    attr: str
    lineno: int
    col: int
    is_write: bool
    held: FrozenSet[str]


@dataclass(frozen=True)
class _Acquisition:
    """One ``with self.<lock>:`` entry with the locks already held."""

    method: str
    lock: str
    lineno: int
    col: int
    held: FrozenSet[str]


@dataclass(frozen=True)
class _SelfCall:
    """An intra-class call ``self.<method>(...)`` with the locks held."""

    method: str
    callee: str
    lineno: int
    col: int
    held: FrozenSet[str]


@dataclass(frozen=True)
class _RiskyCall:
    """A blocking / injected-callable call with the locks held."""

    method: str
    desc: str
    lineno: int
    col: int
    held: FrozenSet[str]


@dataclass
class _ClassModel:
    """Everything the three rules need to know about one class."""

    name: str
    lineno: int
    locks: Dict[str, _LockInfo] = field(default_factory=dict)
    methods: Set[str] = field(default_factory=set)
    callback_attrs: Set[str] = field(default_factory=set)
    accesses: List[_Access] = field(default_factory=list)
    acquisitions: List[_Acquisition] = field(default_factory=list)
    self_calls: List[_SelfCall] = field(default_factory=list)
    risky_calls: List[_RiskyCall] = field(default_factory=list)
    #: locks a private helper inherits because every call site holds them
    inherited: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    def effective_held(self, method: str, held: FrozenSet[str]) -> FrozenSet[str]:
        return held | self.inherited.get(method, frozenset())

    def guarded(self) -> Dict[str, Set[str]]:
        """Per lock, the attributes written while it is held."""
        guarded: Dict[str, Set[str]] = {lock: set() for lock in self.locks}
        for access in self.accesses:
            if access.is_write:
                for lock in self.effective_held(access.method, access.held):
                    if lock in guarded:
                        guarded[lock].add(access.attr)
        return guarded


def _self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is exactly ``self.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_lock_factory_call(node: ast.AST) -> Optional[str]:
    """The lock kind when ``node`` is ``threading.Lock()``-like, else None."""
    if not isinstance(node, ast.Call):
        return None
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    last = dotted.rsplit(".", 1)[-1]
    return last if last in LOCK_FACTORIES else None


class _MethodWalker(ast.NodeVisitor):
    """One pass over a method body tracking the held-lock stack.

    ``with self.<lock>:`` pushes; leaving the block pops.  Everything
    interesting (attribute accesses, intra-class calls, acquisitions,
    risky calls) is recorded together with the locks held at that point.
    Nested functions inherit the enclosing held set — conservative for
    closures that escape, exact for the immediate-call idiom.
    """

    def __init__(self, model: _ClassModel, method: str):
        self.model = model
        self.method = method
        self._held: List[str] = []
        #: attribute nodes already recorded as writes (skip as reads)
        self._consumed: Set[int] = set()

    # ------------------------------------------------------------- held stack

    def _held_set(self) -> FrozenSet[str]:
        return frozenset(self._held)

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node) -> None:
        acquired: List[str] = []
        for item in node.items:
            attr = _self_attr(item.context_expr)
            if attr is not None and attr in self.model.locks:
                self.model.acquisitions.append(
                    _Acquisition(
                        self.method,
                        attr,
                        item.context_expr.lineno,
                        item.context_expr.col_offset,
                        self._held_set(),
                    )
                )
                acquired.append(attr)
            else:
                self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        self._held.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        if acquired:
            del self._held[-len(acquired):]

    # -------------------------------------------------------------- mutations

    def _record_access(self, attr: str, node: ast.AST, is_write: bool) -> None:
        if attr in self.model.locks or attr in self.model.methods:
            return
        self.model.accesses.append(
            _Access(
                self.method,
                attr,
                node.lineno,
                node.col_offset,
                is_write,
                self._held_set(),
            )
        )

    def _record_write_target(self, target: ast.AST) -> None:
        """Peel subscripts/tuples so ``self.buf[i] = v`` writes ``buf``."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_write_target(elt)
            return
        base = target
        while isinstance(base, ast.Subscript):
            self.visit(base.slice)
            base = base.value
        attr = _self_attr(base)
        if attr is not None:
            self._record_access(attr, base, is_write=True)
            self._consumed.add(id(base))
        else:
            self.visit(base)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_write_target(target)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_write_target(node.target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_write_target(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_write_target(target)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if id(node) in self._consumed:
            return
        attr = _self_attr(node)
        if attr is not None:
            self._record_access(
                attr, node, is_write=isinstance(node.ctx, (ast.Store, ast.Del))
            )
            return
        self.generic_visit(node)

    # ------------------------------------------------------------------ calls

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            receiver = _self_attr(func.value)
            if receiver is not None:
                # ``self._buffer.append(...)`` mutates ``self._buffer``
                self._record_access(receiver, func.value, is_write=True)
                self._consumed.add(id(func.value))
        attr = _self_attr(func)
        if attr is not None:
            if attr in self.model.methods:
                self.model.self_calls.append(
                    _SelfCall(
                        self.method,
                        attr,
                        node.lineno,
                        node.col_offset,
                        self._held_set(),
                    )
                )
            elif attr in self.model.callback_attrs:
                self.model.risky_calls.append(
                    _RiskyCall(
                        self.method,
                        f"call through injected callable `self.{attr}`",
                        node.lineno,
                        node.col_offset,
                        self._held_set(),
                    )
                )
            self._consumed.add(id(func))
        else:
            desc = self._blocking_desc(func)
            if desc is not None:
                self.model.risky_calls.append(
                    _RiskyCall(
                        self.method,
                        desc,
                        node.lineno,
                        node.col_offset,
                        self._held_set(),
                    )
                )
        self.generic_visit(node)

    @staticmethod
    def _blocking_desc(func: ast.AST) -> Optional[str]:
        dotted = dotted_name(func)
        if dotted is None:
            return None
        if dotted == "time.sleep":
            return "`time.sleep`"
        if dotted == "open":
            return "`open()`"
        if dotted.startswith(_IO_EXEMPT_PREFIXES):
            return None
        if dotted.startswith(_IO_PREFIXES):
            return f"I/O call `{dotted}`"
        return None


def _init_param_names(init: ast.FunctionDef) -> Set[str]:
    args = init.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    for star in (args.vararg, args.kwarg):
        if star is not None:
            names.add(star.arg)
    names.discard("self")
    return names


def _analyze_class(node: ast.ClassDef) -> Optional[_ClassModel]:
    """Build the class model; None when the class creates no locks."""
    model = _ClassModel(name=node.name, lineno=node.lineno)
    init: Optional[ast.FunctionDef] = None
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            model.methods.add(stmt.name)
            if stmt.name == "__init__":
                init = stmt
    if init is None:
        return None
    params = _init_param_names(init)
    for stmt in ast.walk(init):
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            attr = _self_attr(target)
            if attr is None:
                continue
            kind = _is_lock_factory_call(stmt.value)
            if kind is not None:
                model.locks[attr] = _LockInfo(
                    attr, kind, stmt.value.lineno, stmt.value.col_offset
                )
            elif any(
                isinstance(n, ast.Name) and n.id in params
                for n in ast.walk(stmt.value)
            ):
                model.callback_attrs.add(attr)
    if not model.locks:
        return None

    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if stmt.name == "__init__":
            continue  # construction happens-before publication to threads
        walker = _MethodWalker(model, stmt.name)
        for sub in stmt.body:
            walker.visit(sub)

    _solve_inherited(model)
    return model


def _solve_inherited(model: _ClassModel) -> None:
    """Fixpoint: private helpers whose every call site holds lock L hold L.

    ``inherited[m]`` is the intersection over all intra-class call sites
    of (locks held at the call ∪ locks the caller itself inherited).  A
    public method or a helper with no call sites inherits nothing — it
    must take its locks explicitly.
    """
    sites: Dict[str, List[_SelfCall]] = {}
    for call in model.self_calls:
        sites.setdefault(call.callee, []).append(call)
    eligible = {
        m
        for m in model.methods
        if m.startswith("_") and not m.startswith("__") and m in sites
    }
    inherited: Dict[str, FrozenSet[str]] = {m: frozenset() for m in model.methods}
    for _ in range(len(model.methods) + 1):
        changed = False
        for m in eligible:
            candidate: Optional[FrozenSet[str]] = None
            for call in sites[m]:
                at_site = call.held | inherited.get(call.method, frozenset())
                candidate = at_site if candidate is None else candidate & at_site
            candidate = (candidate or frozenset()) & frozenset(model.locks)
            if candidate != inherited[m]:
                inherited[m] = candidate
                changed = True
        if not changed:
            break
    model.inherited = inherited


def _analyze_module(sf: SourceFile) -> List[_ClassModel]:
    models = []
    for node in sf.tree.body:
        if isinstance(node, ast.ClassDef):
            model = _analyze_class(node)
            if model is not None:
                models.append(model)
    return models


@functools.lru_cache(maxsize=None)
def infer_guarded(cls: type) -> Dict[str, FrozenSet[str]]:
    """What ``lock-discipline`` infers each of ``cls``'s locks guards,
    read off the class's own source (the runtime sanitizer audits
    exactly these sets)."""
    tree = ast.parse(inspect.getsource(inspect.getmodule(cls)))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
            model = _analyze_class(node)
            if model is not None:
                return {k: frozenset(v) for k, v in model.guarded().items()}
    raise ValueError(f"{cls.__name__} creates no locks in its module's source")


@register_rule
class LockDisciplineRule(Rule):
    """Guarded attributes must only be touched under their lock."""

    id = "lock-discipline"
    description = (
        "attributes written under a class's lock are guarded: reads and "
        "writes outside the lock (in any non-__init__ method) are races"
    )

    def check_file(self, sf: SourceFile) -> Iterator[Violation]:
        for model in _analyze_module(sf):
            guarded = model.guarded()
            for access in model.accesses:
                held = model.effective_held(access.method, access.held)
                for lock, attrs in guarded.items():
                    if access.attr not in attrs or lock in held:
                        continue
                    action = "written" if access.is_write else "read"
                    yield Violation(
                        path=sf.rel,
                        line=access.lineno,
                        col=access.col,
                        rule=self.id,
                        message=(
                            f"{model.name}.{access.method}: `self.{access.attr}` "
                            f"is guarded by `self.{lock}` but {action} without "
                            "holding it"
                        ),
                    )


@register_rule
class LockOrderingRule(Rule):
    """The intra-class lock-acquisition graph must stay acyclic."""

    id = "lock-ordering"
    description = (
        "nested lock acquisitions (direct or through intra-class calls) "
        "must not form cycles; RLocks must document their reentrant path"
    )

    def check_file(self, sf: SourceFile) -> Iterator[Violation]:
        for model in _analyze_module(sf):
            yield from self._check_class(sf, model)

    def _check_class(self, sf: SourceFile, model: _ClassModel) -> Iterator[Violation]:
        # locks each method may end up acquiring, transitively
        acquires: Dict[str, Set[str]] = {m: set() for m in model.methods}
        for acq in model.acquisitions:
            acquires[acq.method].add(acq.lock)
        for _ in range(len(model.methods) + 1):
            changed = False
            for call in model.self_calls:
                before = len(acquires[call.method])
                acquires[call.method] |= acquires.get(call.callee, set())
                changed = changed or len(acquires[call.method]) != before
            if not changed:
                break

        edges: Dict[Tuple[str, str], Tuple[int, int, str]] = {}
        reacquired = set()
        for acq in model.acquisitions:
            for held in model.effective_held(acq.method, acq.held):
                key = (held, acq.lock)
                where = (acq.lineno, acq.col, acq.method)
                if held == acq.lock:
                    reacquired.add((acq.lock, where))
                else:
                    edges.setdefault(key, where)
        for call in model.self_calls:
            for held in model.effective_held(call.method, call.held):
                for lock in acquires.get(call.callee, ()):  # transitive
                    key = (held, lock)
                    where = (call.lineno, call.col, call.method)
                    if held == lock:
                        reacquired.add((lock, where))
                    else:
                        edges.setdefault(key, where)

        for lock, (lineno, col, method) in sorted(reacquired):
            kind = model.locks[lock].kind
            if kind == "RLock":
                continue  # reentrancy is the point; documentation checked below
            yield Violation(
                path=sf.rel,
                line=lineno,
                col=col,
                rule=self.id,
                message=(
                    f"{model.name}.{method}: re-acquires non-reentrant "
                    f"`self.{lock}` while already holding it — guaranteed "
                    "deadlock (use a caller-must-hold helper or an RLock)"
                ),
            )

        adjacency: Dict[str, Set[str]] = {}
        for a, b in edges:
            adjacency.setdefault(a, set()).add(b)
        reported: Set[FrozenSet[str]] = set()
        for (a, b), (lineno, col, method) in sorted(edges.items()):
            path = self._path(adjacency, b, a)
            if path is None:
                continue
            cycle = frozenset([a, b, *path])
            if cycle in reported:
                continue
            reported.add(cycle)
            chain = " -> ".join([a, b, *path])
            yield Violation(
                path=sf.rel,
                line=lineno,
                col=col,
                rule=self.id,
                message=(
                    f"{model.name}.{method}: lock-ordering cycle "
                    f"{chain} — potential deadlock between threads taking "
                    "these locks in opposite orders"
                ),
            )

        lines = sf.text.splitlines()
        for info in model.locks.values():
            if info.kind != "RLock":
                continue
            if self._has_reentrant_doc(lines, info.lineno):
                continue
            yield Violation(
                path=sf.rel,
                line=info.lineno,
                col=info.col,
                rule=self.id,
                message=(
                    f"{model.name}: RLock `self.{info.attr}` has no "
                    f"documented reentrant path; add `{REENTRANT_MARKER} "
                    "<call chain>` on or above the creation line, or "
                    "demote to Lock"
                ),
            )

    @staticmethod
    def _has_reentrant_doc(lines: List[str], lineno: int) -> bool:
        """True when the creation line, or the contiguous comment block
        directly above it, documents the reentrant call chain."""
        if REENTRANT_MARKER in lines[lineno - 1]:
            return True
        i = lineno - 2
        while i >= 0 and lines[i].lstrip().startswith("#"):
            if REENTRANT_MARKER in lines[i]:
                return True
            i -= 1
        return False

    @staticmethod
    def _path(
        adjacency: Dict[str, Set[str]], start: str, goal: str
    ) -> Optional[List[str]]:
        """DFS path ``start -> ... -> goal`` (goal excluded), else None."""
        stack: List[Tuple[str, List[str]]] = [(start, [])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            for nxt in sorted(adjacency.get(node, ())):
                if nxt == goal:
                    return path + [nxt]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None


@register_rule
class HoldAndCallRule(Rule):
    """No sleeping, I/O, or user callbacks while holding a lock."""

    id = "hold-and-call"
    description = (
        "time.sleep, file/OS I/O and injected callables must not run "
        "while a lock is held — they stall every thread behind the lock"
    )

    def check_file(self, sf: SourceFile) -> Iterator[Violation]:
        for model in _analyze_module(sf):
            for call in model.risky_calls:
                held = model.effective_held(call.method, call.held)
                if not held:
                    continue
                locks = ", ".join(f"`self.{lock}`" for lock in sorted(held))
                yield Violation(
                    path=sf.rel,
                    line=call.lineno,
                    col=call.col,
                    rule=self.id,
                    message=(
                        f"{model.name}.{call.method}: {call.desc} while "
                        f"holding {locks}"
                    ),
                )
