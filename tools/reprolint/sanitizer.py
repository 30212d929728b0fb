"""Runtime lock sanitizer: order-inversion and unguarded-write detection.

The static rules in :mod:`reprolint.concurrency` stop at the class
boundary; this module watches the *running* system.  Inside a
:func:`threadcheck` block every audited class (the serving queue, the
embedding store, the top-K index, the metrics primitives, the service
itself and the WAL/checkpoint writers) is patched so that:

* its lock is wrapped in a :class:`SanitizedLock` which records, per
  thread, the stack of locks currently held.  Acquiring lock *B* while
  holding lock *A* registers the order edge ``A -> B``; a later
  acquisition of *A* while holding *B* — on any thread, any instance —
  is a **lock-order inversion** (the classic ABBA deadlock seed) and is
  reported with both acquisition sites;
* writes to the attributes its lock guards (per class, what the static
  ``lock-discipline`` rule infers from its source) are verified to
  happen while the lock is held — anything else is an **unguarded
  write** report.

Monitoring is pure recording: no RNG is drawn, no float is touched, no
exception is raised into the audited code path, so a run under
``threadcheck()`` stays bitwise identical to an unsanitized run (the
fault-injection state machine's sanitized-run test asserts this).
:meth:`LockMonitor.assert_clean` puts the whole report into its
assertion message.

Order edges are keyed by ``ClassName.lock_attr`` — rank, not instance —
which makes the checker enforce the lock *hierarchy* documented in
DESIGN.md §12 (dispatch mutex -> queue [-> admission, WAL] -> service
state -> store -> index -> metrics):
two instances of the same rank never nest in this codebase, and a
violation between ranks is a design break even when the particular
interleaving did not deadlock this time.
"""

from __future__ import annotations

import json
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

_LOCK_TYPE = type(threading.Lock())
_RLOCK_TYPE = type(threading.RLock())

#: attribute flag set on instances while their ``__init__`` runs —
#: construction happens-before publication to other threads, so writes
#: during it are exempt from the guarded-write check
_IN_INIT_FLAG = "_threadcheck_in_init"


@dataclass(frozen=True)
class Audit:
    """One class under runtime audit: its lock and what the lock guards."""

    cls: type
    lock_attr: str
    guarded: FrozenSet[str]

    @property
    def lock_name(self) -> str:
        return f"{self.cls.__name__}.{self.lock_attr}"


def _site(skip: int = 3, depth: int = 4) -> List[str]:
    """A short ``file:line in func`` stack slice at the event site."""
    frames = traceback.extract_stack()[: -skip][-depth:]
    return [f"{f.filename}:{f.lineno} in {f.name}" for f in frames]


class SanitizedLock:
    """Drop-in wrapper over a ``threading.Lock``/``RLock`` that reports
    every acquisition to a :class:`LockMonitor`.

    Delegates blocking semantics entirely to the wrapped lock — the
    wrapper adds bookkeeping, never synchronisation of its own, so the
    audited program's interleavings (and results) are unchanged.
    """

    def __init__(self, monitor: "LockMonitor", name: str, inner) -> None:
        self._monitor = monitor
        self.name = name
        self._inner = inner
        self.reentrant = isinstance(inner, _RLOCK_TYPE)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._monitor.before_acquire(self)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._monitor.after_acquire(self)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._monitor.after_release(self)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def held_by_current_thread(self) -> bool:
        return self._monitor.holds(self)


class LockMonitor:
    """Collects acquisition order, inversions and unguarded writes.

    One monitor lives per :func:`threadcheck` block.  Thread-local
    state tracks the per-thread held stack; the shared order graph and
    report lists are guarded by the monitor's own lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: first-seen site per order edge ``(outer, inner)``
        self._order: Dict[Tuple[str, str], List[str]] = {}
        self.acquisitions: Dict[str, int] = {}
        self.inversions: List[Dict[str, object]] = []
        self.unguarded_writes: List[Dict[str, object]] = []

    # ------------------------------------------------------------ held stacks

    def _stack(self) -> List[Tuple[int, str, int]]:
        """This thread's held stack: ``(lock id, rank name, depth)``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def holds(self, lock: SanitizedLock) -> bool:
        return any(entry[0] == id(lock) for entry in self._stack())

    # ----------------------------------------------------------- acquisition

    def before_acquire(self, lock: SanitizedLock) -> None:
        stack = self._stack()
        if any(entry[0] == id(lock) for entry in stack):
            if lock.reentrant:
                return  # same-instance reentry: RLock's contract
            self._record_inversion(
                lock.name,
                [lock.name],
                kind="self-deadlock",
                prior_site=None,
            )
            return
        outer_names = {entry[1] for entry in stack if entry[0] != id(lock)}
        with self._lock:
            for outer in outer_names:
                if outer == lock.name:
                    continue  # same rank, different instance: not ordered
                edge = (outer, lock.name)
                inverse = self._order.get((lock.name, outer))
                if inverse is not None and edge not in self._order:
                    self._record_inversion_locked(
                        lock.name,
                        sorted(outer_names),
                        kind="order-inversion",
                        prior_site=inverse,
                    )
                self._order.setdefault(edge, _site())

    def after_acquire(self, lock: SanitizedLock) -> None:
        stack = self._stack()
        for entry in stack:
            if entry[0] == id(lock):
                stack[stack.index(entry)] = (entry[0], entry[1], entry[2] + 1)
                return
        stack.append((id(lock), lock.name, 1))
        with self._lock:
            self.acquisitions[lock.name] = self.acquisitions.get(lock.name, 0) + 1

    def after_release(self, lock: SanitizedLock) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i][0] == id(lock):
                lock_id, name, depth = stack[i]
                if depth > 1:
                    stack[i] = (lock_id, name, depth - 1)
                else:
                    del stack[i]
                return

    def _record_inversion(self, acquiring, holding, kind, prior_site) -> None:
        with self._lock:
            self._record_inversion_locked(acquiring, holding, kind, prior_site)

    def _record_inversion_locked(self, acquiring, holding, kind, prior_site) -> None:
        self.inversions.append(
            {
                "kind": kind,
                "thread": threading.current_thread().name,
                "acquiring": acquiring,
                "holding": list(holding),
                "site": _site(skip=5),
                "prior_site": prior_site,
            }
        )

    # -------------------------------------------------------- guarded writes

    def record_unguarded_write(self, cls_name: str, attr: str) -> None:
        with self._lock:
            self.unguarded_writes.append(
                {
                    "class": cls_name,
                    "attr": attr,
                    "thread": threading.current_thread().name,
                    "site": _site(skip=4),
                }
            )

    # -------------------------------------------------------------- reporting

    @property
    def ok(self) -> bool:
        with self._lock:
            return not self.inversions and not self.unguarded_writes

    def order_edges(self) -> List[Tuple[str, str]]:
        with self._lock:
            return sorted(self._order)

    def report(self) -> Dict[str, object]:
        """A JSON-serialisable summary of everything observed."""
        with self._lock:
            return {
                "ok": not self.inversions and not self.unguarded_writes,
                "acquisitions": dict(sorted(self.acquisitions.items())),
                "order_edges": [list(edge) for edge in sorted(self._order)],
                "inversions": list(self.inversions),
                "unguarded_writes": list(self.unguarded_writes),
            }

    def assert_clean(self) -> None:
        """Raise ``AssertionError`` with the full report unless clean."""
        if not self.ok:
            raise AssertionError(
                "threadcheck found concurrency violations:\n"
                + json.dumps(self.report(), indent=2, sort_keys=True)
            )


def default_audits() -> List[Audit]:
    """The audited classes: every lock owner in serve/obs/resilience.

    Imports live here (not module top) so ``reprolint`` stays
    importable without dragging in numpy-heavy serving modules.  Each
    row names a lock; what it guards is what the static
    ``lock-discipline`` rule infers from the class's source
    (:func:`~reprolint.concurrency.infer_guarded`), so the two
    halves of the suite cannot drift apart.
    """
    from reprolint.concurrency import infer_guarded
    from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
    from repro.replicate.follower import ReplicationFollower
    from repro.resilience.checkpoint import CheckpointManager
    from repro.resilience.wal import WalTailer, WriteAheadLog
    from repro.serve.admission import AdmissionController
    from repro.serve.dispatch import DispatchWorker
    from repro.serve.index import TopKIndex
    from repro.serve.ingest import EventQueue
    from repro.serve.service import RecommendationService
    from repro.serve.store import (
        DecayedEmbeddingStore,
        DecayedSnapshot,
        VersionedEmbeddingStore,
    )

    return [
        Audit(cls, lock_attr, infer_guarded(cls)[lock_attr])
        for cls, lock_attr in (
            (EventQueue, "_lock"),
            # The dispatch mutex guards no attribute, only order (cuts
            # and handler runs, one at a time); audited for its rank
            # above the queue lock.
            (EventQueue, "_dispatch_lock"),
            (AdmissionController, "_lock"),
            (DispatchWorker, "_lock"),
            (VersionedEmbeddingStore, "_lock"),
            (DecayedEmbeddingStore, "_lock"),
            (DecayedSnapshot, "_lock"),
            (TopKIndex, "_lock"),
            (Counter, "_lock"),
            (Gauge, "_lock"),
            (Histogram, "_lock"),
            (MetricsRegistry, "_lock"),
            (RecommendationService, "_state_lock"),
            (WriteAheadLog, "_lock"),
            (CheckpointManager, "_lock"),
            (WalTailer, "_lock"),
            (ReplicationFollower, "_lock"),
        )
    ]


def _patch_class(cls: type, audit: Audit, monitor: LockMonitor):
    """Wrap ``cls.__init__``/``__setattr__`` for the audit; returns undo."""
    orig_init = cls.__dict__.get("__init__")
    orig_setattr = cls.__dict__.get("__setattr__")
    base_init = cls.__init__
    base_setattr = cls.__setattr__
    guarded = audit.guarded
    lock_attr = audit.lock_attr
    lock_name = audit.lock_name
    cls_name = cls.__name__

    def patched_init(self, *args, **kwargs):
        object.__setattr__(self, _IN_INIT_FLAG, True)
        try:
            base_init(self, *args, **kwargs)
        finally:
            inner = self.__dict__.get(lock_attr)
            if isinstance(inner, (_LOCK_TYPE, _RLOCK_TYPE)):
                self.__dict__[lock_attr] = SanitizedLock(
                    monitor, lock_name, inner
                )
            object.__setattr__(self, _IN_INIT_FLAG, False)

    def patched_setattr(self, name, value):
        if name in guarded and not getattr(self, _IN_INIT_FLAG, False):
            lock = self.__dict__.get(lock_attr)
            if isinstance(lock, SanitizedLock) and not lock.held_by_current_thread():
                monitor.record_unguarded_write(cls_name, name)
        base_setattr(self, name, value)

    cls.__init__ = patched_init
    cls.__setattr__ = patched_setattr

    def undo():
        if orig_init is not None:
            cls.__init__ = orig_init
        else:  # inherited __init__: drop our override entirely
            del cls.__init__
        if orig_setattr is not None:
            cls.__setattr__ = orig_setattr
        else:
            del cls.__setattr__

    return undo


@contextmanager
def threadcheck(audits: Optional[Sequence[Audit]] = None) -> Iterator[LockMonitor]:
    """Audit every lock acquisition and guarded write within the block.

    Instances *constructed inside the block* of the audited classes get
    their locks wrapped; pre-existing instances are untouched.  Usage::

        with threadcheck() as monitor:
            ...  # exercise the threaded system
        monitor.assert_clean()

    ``audits`` overrides the audited class set (see :class:`Audit`).
    Patching is restored exactly on exit, even on error.  Blocks must
    not be nested over the same classes.
    """
    monitor = LockMonitor()
    undos = [
        _patch_class(audit.cls, audit, monitor)
        for audit in (default_audits() if audits is None else audits)
    ]
    try:
        yield monitor
    finally:
        for undo in reversed(undos):
            undo()
