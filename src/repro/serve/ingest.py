"""Bounded event ingestion: queue → micro-batch → InsLearn hand-off.

Live platforms deliver interaction events slightly out of order and
occasionally malformed.  The :class:`EventQueue` absorbs both:

* accepted events buffer in arrival order; once ``batch_size`` are
  pending, they are cut into an :class:`~repro.graph.streams.EdgeStream`
  micro-batch (construction re-sorts any out-of-order arrivals) and
  handed to the update handler — the resumable
  :meth:`~repro.core.inslearn.InsLearnTrainer.train_one_batch` step;
* malformed events (unknown edge type, out-of-range ids, non-finite
  timestamps, ...) never reach the model: a validator rejects them into
  a bounded deadletter buffer with the reason preserved;
* events arriving *too far* behind the accepted-timestamp watermark are
  deadlettered as ``"late event"`` when a ``late_tolerance`` is set —
  the engine's replay/RNG contract assumes batches are cut from a
  near-ordered stream, so stale stragglers must not silently reorder it;
* when updates cannot keep up, the queue exerts **backpressure** at
  ``capacity``: raise to the producer, shed the new event, or evict the
  oldest buffered one, per the configured overflow policy.

Dispatch can be paused (``pause()``/``resume()``) so a service can defer
updates — e.g. while degraded — and drain later with :meth:`flush`.

With ``defer_dispatch=True`` the queue never dispatches from ``put()``
at all: a dispatcher thread (:mod:`repro.serve.dispatch`) drains ready
micro-batches via :meth:`dispatch_next`, so producers pay only the
accept/journal cost.  Batch boundaries are cut by *count* over the
accepted FIFO either way, which is why a drained deferred queue is
bitwise-identical to the inline path (DESIGN.md §15).  Admission
control (:mod:`repro.serve.admission`) sheds into the same deadletter
ledger — :meth:`shed_oldest` evicts the head under a ``drop_head``
decision, and ``shed`` tallies admission denials separately from
malformed (``rejected``) and backpressure (``dropped``) events;
:meth:`deadletters_by_reason` exposes the per-category tallies for
reconciliation against the WAL's decision ledger.

Dispatch itself stays strictly serial — one micro-batch at a time, in
cut order — because InsLearn's replay/RNG contract is sequential over
batches.  What serialises it is a *dispatch mutex* of its own
(:meth:`EventQueue.dispatch_barrier`), ranked above the queue lock and
taken first: one cut-then-apply routine holds it across "cut a batch,
run the handler", and takes the queue lock inside it only to journal
the ``batch`` record, slice the buffer and bump the counters.  The
handler — a whole train + publish step — therefore runs with the queue
lock *released*: ``put()``, ``pending``, ``has_ready`` and
``shed_oldest()`` never wait on an update, whichever thread runs it
(DESIGN.md §12).

For durability, a ``journal`` hook receives every queue *decision*
(``accept`` / ``evict`` / ``batch``) **before** the matching state
change — the write-ahead ordering :mod:`repro.resilience.wal` needs to
replay the queue bit-exactly after a crash.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.graph.streams import EdgeStream, StreamEdge

#: overflow policies accepted by :class:`EventQueue`
OVERFLOW_POLICIES = ("raise", "drop_new", "drop_oldest")

Validator = Callable[[StreamEdge], Optional[str]]
BatchHandler = Callable[[EdgeStream], None]
#: journal hook: (kind, edge-or-None, batch size, reason) — see module
#: docstring; ``reason`` is non-empty only for admission-driven evictions
Journal = Callable[[str, Optional[StreamEdge], int, str], None]


class BackpressureError(RuntimeError):
    """Raised by ``put`` when the queue is full under the ``raise`` policy."""


@dataclass
class DeadLetter:
    """A rejected event and why it was rejected."""

    edge: StreamEdge
    reason: str


class EventQueue:
    """Bounded buffer turning an event firehose into update micro-batches.

    Parameters
    ----------
    handler:
        Called with each ready :class:`EdgeStream` micro-batch.
    batch_size:
        Events per micro-batch (the serving-side ``S_batch``).
    capacity:
        Maximum buffered events before backpressure applies.
    validator:
        Returns a rejection reason for a malformed event, ``None`` to
        accept.  ``None`` (default) accepts everything.
    overflow:
        One of ``"raise"`` (default), ``"drop_new"``, ``"drop_oldest"``.
    max_deadletters:
        Deadletter entries retained (oldest evicted first); rejection
        *counts* are never truncated.
    late_tolerance:
        Maximum allowed timestamp regression behind the accepted-event
        watermark; older events deadletter as ``"late event"``.  ``None``
        (default) accepts any ordering.
    journal:
        Write-ahead hook called with every queue decision before it
        takes effect: ``("accept", edge, 0, "")``,
        ``("evict", edge, 0, reason)``, ``("batch", None, size, "")``.
        The reason is non-empty only for admission-driven evictions
        (:meth:`shed_oldest`).  An exception from the hook aborts the
        decision (the event is not accepted), keeping the journal
        strictly ahead of the state.
    defer_dispatch:
        When True, ``put()`` never dispatches; ready micro-batches wait
        for an external drainer calling :meth:`dispatch_next` (the
        async dispatcher).  :meth:`flush` still drains explicitly.
    """

    def __init__(
        self,
        handler: BatchHandler,
        batch_size: int = 256,
        capacity: int = 2048,
        validator: Optional[Validator] = None,
        overflow: str = "raise",
        max_deadletters: int = 1024,
        late_tolerance: Optional[float] = None,
        journal: Optional[Journal] = None,
        defer_dispatch: bool = False,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if capacity < batch_size:
            raise ValueError(
                f"capacity ({capacity}) must be >= batch_size ({batch_size})"
            )
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow must be one of {OVERFLOW_POLICIES}, got {overflow!r}"
            )
        if late_tolerance is not None and late_tolerance < 0:
            raise ValueError(
                f"late_tolerance must be >= 0 or None, got {late_tolerance}"
            )
        self._handler = handler
        self.batch_size = batch_size
        self.capacity = capacity
        self._validator = validator
        self.overflow = overflow
        self.max_deadletters = max_deadletters
        self.late_tolerance = late_tolerance
        self._journal = journal
        self._buffer: List[StreamEdge] = []
        # Guards the buffer, the pause flag and the ledger counters.
        # Never held across the handler, and nothing re-enters it: the
        # hooks that do run under it (validator, journal) are
        # non-blocking by contract and never call back into the queue.
        self._lock = threading.Lock()
        # The dispatch mutex: guards no attribute, only *order* — cuts
        # and handler runs happen one at a time, in cut order.  Ranked
        # above the queue lock (taken first, DESIGN.md §12); the one
        # lock held across the handler is the one that exists to
        # serialise it.
        # reentrant: dispatch_next/flush/resume/put -> _cut_and_apply
        #            -> handler -> (service) _maybe_checkpoint
        #            -> checkpoint -> dispatch_barrier
        self._dispatch_lock = threading.RLock()
        self._paused = False
        self.defer_dispatch = bool(defer_dispatch)
        self.deadletters: List[DeadLetter] = []
        #: rejection tallies bucketed by reason category (the part of the
        #: reason before the first ":"), never truncated
        self.reason_counts: Dict[str, int] = {}
        #: highest timestamp among accepted events (the late watermark)
        self.max_timestamp = float("-inf")
        self.accepted = 0
        self.rejected = 0
        self.dropped = 0
        self.shed = 0
        self.batches_dispatched = 0

    # ---------------------------------------------------------------- control

    @property
    def pending(self) -> int:
        """Events buffered but not yet handed to the handler."""
        with self._lock:
            return len(self._buffer)

    @property
    def paused(self) -> bool:
        with self._lock:
            return self._paused

    def pause(self) -> None:
        """Stop dispatching micro-batches; events keep buffering.

        The update handler calls this mid-dispatch when the circuit
        breaker trips; the drain loop re-checks the flag before every cut.
        """
        with self._lock:
            self._paused = True

    def resume(self) -> None:
        """Re-enable dispatch and drain any ready micro-batches."""
        with self._lock:
            self._paused = False
            ready = self._ready()
        if ready:
            self._drain_ready()

    # ----------------------------------------------------------------- intake

    def put(self, edge: StreamEdge) -> bool:
        """Offer one event; returns True when buffered for an update.

        Malformed events are deadlettered (returns False).  At capacity
        the overflow policy applies: ``raise`` raises
        :class:`BackpressureError`, ``drop_new`` sheds ``edge`` (returns
        False), ``drop_oldest`` evicts the oldest buffered event.
        """
        with self._lock:
            if self._validator is not None:
                # The validate/journal/buffer sequence is one atomic
                # queue decision: the deadletter ledger, the WAL and the
                # buffer must agree event-for-event, so the injected
                # hooks run under the lock by contract.  Hooks must be
                # non-blocking (DESIGN.md §12).
                reason = self._validator(edge)  # reprolint: disable=hold-and-call
                if reason is not None:
                    self._dead_letter(edge, reason)
                    return False
            if (
                self.late_tolerance is not None
                and edge.t < self.max_timestamp - self.late_tolerance
            ):
                self._dead_letter(
                    edge,
                    f"late event: t={edge.t!r} more than {self.late_tolerance!r} "
                    f"behind watermark {self.max_timestamp!r}",
                )
                return False
            if len(self._buffer) >= self.capacity:
                if self.overflow == "raise":
                    raise BackpressureError(
                        f"event queue at capacity ({self.capacity}); "
                        "flush() or resume() before ingesting more"
                    )
                if self.overflow == "drop_new":
                    self._dead_letter(edge, "backpressure: queue at capacity")
                    return False
                if self._journal is not None:
                    # write-ahead: journal the eviction before it happens
                    self._journal("evict", self._buffer[0], 0, "")  # reprolint: disable=hold-and-call
                evicted = self._buffer.pop(0)
                self._dead_letter(evicted, "backpressure: evicted oldest")
            if self._journal is not None:
                # write-ahead: journal the acceptance before buffering
                self._journal("accept", edge, 0, "")  # reprolint: disable=hold-and-call
            self._buffer.append(edge)
            self.accepted += 1
            if edge.t > self.max_timestamp:
                self.max_timestamp = float(edge.t)
            ready = self._ready()
        # Inline dispatch happens after the queue lock is released: only
        # the producer whose accept completed a batch goes on to train;
        # the others keep buffering (up to ``capacity``) meanwhile.
        if ready:
            self._drain_ready()
        return True

    @property
    def has_ready(self) -> bool:
        """True when a full micro-batch is buffered and dispatch is live."""
        with self._lock:
            return self._ready()

    def dispatch_next(self) -> int:
        """Dispatch at most one ready micro-batch; returns events cut.

        The async dispatcher's drain primitive.  Batches are cut by
        *count* in FIFO order — exactly how the inline path cuts them —
        so a drained deferred queue walks the same batch boundaries as
        an inline queue fed the same accepted events.  Returns 0 while
        paused or when fewer than ``batch_size`` events are pending.
        """
        return self._cut_and_apply()

    def shed_oldest(self, reason: str) -> Optional[StreamEdge]:
        """Evict the queue head under an admission ``drop_head`` decision.

        Journals the eviction *with the reason* before popping — replay
        treats it like any other eviction (the head pops), but the WAL
        decision ledger can tell an admission shed from plain
        backpressure.  The head is deadlettered under ``reason``.
        Returns the shed event, or ``None`` when nothing is buffered.
        """
        if not reason:
            raise ValueError("shed_oldest requires a non-empty reason")
        with self._lock:
            if not self._buffer:
                return None
            if self._journal is not None:
                # write-ahead: journal the shed-eviction before it happens
                self._journal("evict", self._buffer[0], 0, reason)  # reprolint: disable=hold-and-call
            head = self._buffer.pop(0)
            self._dead_letter(head, reason)
            return head

    def flush(self) -> int:
        """Dispatch everything pending (final batch may be short).

        Flushing overrides ``pause`` — it is the explicit drain.  It
        waits for a batch in flight on another thread, then drains in
        FIFO order.  Returns the number of events dispatched.
        """
        drained = 0
        with self.dispatch_barrier():
            while True:
                cut = self._cut_and_apply(force=True)
                if not cut:
                    return drained
                drained += cut

    @contextmanager
    def dispatch_barrier(self) -> Iterator[None]:
        """Hold off dispatch: no batch is cut and no handler runs on any
        other thread inside the ``with`` body, and none is in flight when
        it is entered.  Producers keep buffering meanwhile.

        This *is* the dispatch mutex — the queue's own cut-then-apply
        routine runs inside it — so an owner that needs the handler's
        side effects at a batch boundary (a checkpoint) takes it too.
        """
        with self._dispatch_lock:
            yield

    # ------------------------------------------------------- recovery support

    def buffered(self) -> Tuple[StreamEdge, ...]:
        """Snapshot of not-yet-dispatched events, oldest first."""
        with self._lock:
            return tuple(self._buffer)

    def buffered_at(
        self, position: Callable[[], int]
    ) -> Tuple[int, Tuple[StreamEdge, ...]]:
        """``(position(), buffered())`` read at one instant.

        ``position`` reads the journal's write position (the WAL's last
        sequence number).  Every journaled decision is written under the
        queue lock, so reading both inside one hold of it yields a pair
        that describes a single point of the log — what a checkpoint
        records as ``(seq, residue)``.  Must not block or call back in.
        """
        with self._lock:
            return position(), tuple(self._buffer)

    def preload(self, edges: Iterable[StreamEdge]) -> None:
        """Restore recovered, already-journaled events into the buffer.

        Skips validation, journaling and dispatch: the caller
        (:mod:`repro.resilience.recovery`) replays events whose
        acceptance was already journaled and validated in a previous
        process life.
        """
        with self._lock:
            for edge in edges:
                self._buffer.append(edge)
                self.accepted += 1
                if edge.t > self.max_timestamp:
                    self.max_timestamp = float(edge.t)

    def restore_accounting(
        self,
        accepted: Optional[int] = None,
        max_timestamp: Optional[float] = None,
    ) -> None:
        """Adopt ledger state recovered from a previous process life.

        Recovery replays the WAL into a fresh queue; the cumulative
        ``accepted`` count and the late-event watermark must continue
        across the crash rather than restart from zero.  The watermark
        only ever advances.
        """
        with self._lock:
            if accepted is not None:
                self.accepted = int(accepted)
            if max_timestamp is not None and max_timestamp > self.max_timestamp:
                self.max_timestamp = float(max_timestamp)

    def dead_letter(self, edge: StreamEdge, reason: str) -> None:
        """Deadletter an event on the owner's behalf (e.g. a batch whose
        update failed after it left the buffer, or an admission denial
        that never reached ``put``)."""
        with self._lock:
            self._dead_letter(edge, reason)

    def deadletters_by_reason(self) -> Dict[str, int]:
        """Per-category rejection tallies (never truncated).

        Categories are the reason text before the first ``":"`` —
        ``shed`` / ``throttle`` for admission denials, ``backpressure``
        for overflow, validator text for malformed events — so
        reconciliation can assert per-reason ledgers against the WAL's
        :func:`~repro.resilience.wal.decision_ledger`.
        """
        with self._lock:
            return dict(self.reason_counts)

    # --------------------------------------------------------------- internals

    def _ready(self) -> bool:
        # caller holds the queue lock
        return not self._paused and len(self._buffer) >= self.batch_size

    def _drain_ready(self) -> None:
        # The inline drain; under defer_dispatch the dispatcher thread
        # owns it.  Pause is re-checked at every cut: a handler (e.g. a
        # tripped circuit breaker) may pause the queue mid-drain.
        if self.defer_dispatch:
            return
        while self._cut_and_apply():
            pass

    def _cut_and_apply(self, force: bool = False) -> int:
        """Cut one micro-batch and run the handler on it; returns the
        events cut (0: nothing ready).  ``force`` cuts whatever is
        buffered, paused or not (the flush path).

        The one routine behind ``put()``'s inline dispatch,
        ``dispatch_next()``, ``flush()`` and ``resume()``.  The barrier
        is taken first and spans cut + handler, so batches train one at
        a time in cut order; the queue lock covers the cut alone —
        journal record, buffer slice, counter — and is released before
        the handler starts.
        """
        with self.dispatch_barrier():
            with self._lock:
                size = min(self.batch_size, len(self._buffer))
                if not (size if force else self._ready()):
                    return 0
                if self._journal is not None:
                    # write-ahead: journal the batch cut before it happens
                    self._journal("batch", None, size, "")  # reprolint: disable=hold-and-call
                batch, self._buffer = self._buffer[:size], self._buffer[size:]
                self.batches_dispatched += 1
            self._handler(EdgeStream(batch))
            return size

    def _dead_letter(self, edge: StreamEdge, reason: str) -> None:
        category = reason.split(":", 1)[0]
        self.reason_counts[category] = self.reason_counts.get(category, 0) + 1
        if category in ("shed", "throttle"):
            # admission denials are policy, not pathology: counted apart
            # from malformed (rejected) and backpressure (dropped)
            self.shed += 1
        elif reason.startswith("backpressure"):
            self.dropped += 1
        else:
            self.rejected += 1
        self.deadletters.append(DeadLetter(edge, reason))
        overflow = len(self.deadletters) - self.max_deadletters
        if overflow > 0:
            del self.deadletters[:overflow]
