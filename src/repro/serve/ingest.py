"""Bounded event ingestion: one intake decision → micro-batch → InsLearn.

Live platforms deliver interaction events slightly out of order,
occasionally malformed and sometimes faster than updates can absorb.
:meth:`EventQueue.put` is the one place an offered event is judged, in
one hold of the queue lock::

    validate → late → admit → capacity → journal → buffer

It ends either *buffered* or *refused* through :meth:`EventQueue._refuse`
with a typed kind (the refusal table of DESIGN.md §8): ``malformed`` (the
validator said why), ``late`` (further than ``late_tolerance`` behind
the accepted-timestamp watermark — the replay/RNG contract assumes a
near-ordered stream), ``throttle`` /
``shed`` (the :class:`~repro.serve.admission.AdmissionController`,
consulted with the exact buffer depth) and
``backpressure`` (``capacity`` reached: raise to the producer, shed the
new event, or evict the oldest, per ``overflow``).  Validation of
outside input precedes policy, so a refused offer charges no token and
evicts nothing: the head is evicted (``drop_oldest``) only once the new
event is certain to be buffered.

Accepted events buffer in arrival order with their accept time; once
``batch_size`` are pending they are cut into an
:class:`~repro.graph.streams.EdgeStream` micro-batch (construction
re-sorts any out-of-order arrivals) and handed to the update handler —
the resumable :meth:`~repro.core.inslearn.InsLearnTrainer.train_one_batch`
step.  The stamps give, at each cut, every event's queue wait.  Batch boundaries are cut by *count*
over the accepted FIFO, so with ``defer_dispatch=True`` — ``put()`` never
dispatches, a dispatcher thread (:mod:`repro.serve.dispatch`) drains via
:meth:`dispatch_next` — a drained queue is bitwise-identical to the
inline path.  Dispatch can be paused (``pause()``/``resume()``) and
drained explicitly with :meth:`flush`.

Dispatch stays strictly serial — one micro-batch at a time, in cut
order — because InsLearn's replay/RNG contract is sequential over
batches.  What serialises it is a *dispatch mutex* of its own
(:meth:`EventQueue.dispatch_barrier`), ranked above the queue lock: the
one cut-then-apply routine holds it across "cut a batch, run the
handler" and takes the queue lock inside it only for the cut, so the
handler — a whole train + publish step — runs with the queue lock
*released* and ``put()`` and ``pending`` never wait on an
update, whichever thread runs it (DESIGN.md §12).

For durability the queue writes every *decision* to its ``journal`` —
the :class:`~repro.resilience.wal.WriteAheadLog` — **before** the
matching state change: ``accept`` / ``evict`` / ``batch`` replay the
queue bit-exactly after a crash, ``shed`` / ``throttle`` are the audit
ledger :meth:`deadletters_by_reason` reconciles against.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.graph.streams import EdgeStream, StreamEdge

#: overflow policies accepted by :class:`EventQueue`
OVERFLOW_POLICIES = ("raise", "drop_new", "drop_oldest")

#: An event is deadlettered under a *kind*: the five ways ``put()``
#: refuses an offer — ``malformed``, ``late``, ``throttle``, ``shed``,
#: ``backpressure`` — plus ``failed``, a batch whose update raised after
#: it left the buffer (:meth:`EventQueue.dead_letter`).  A kind's
#: ``reason_counts`` bucket is its own name, except for the two that
#: keep their reason-prefix name:
_BUCKETS = {"late": "late event", "failed": "update failure"}

Validator = Callable[[StreamEdge], Optional[str]]
BatchHandler = Callable[[EdgeStream], None]


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
        The write-ahead log (or anything with its five ``append_accept``
        / ``append_evict`` / ``append_shed`` / ``append_throttle`` /
        ``append_batch`` methods), called with every queue decision
        before it takes effect.  An exception from it aborts the
        decision (the event is not accepted), keeping the journal
        strictly ahead of the state.  ``None`` journals nothing;
        :meth:`set_journal` attaches one later.
    defer_dispatch:
        When True, ``put()`` never dispatches; ready micro-batches wait
        for an external drainer calling :meth:`dispatch_next` (the
        async dispatcher).  :meth:`flush` still drains explicitly.
    admission:
        The :class:`~repro.serve.admission.AdmissionController` consulted
        for every valid, timely offer; ``None`` admits everything.
    clock:
        Monotonic seconds for the accept stamps (queue wait); defaults to :func:`time.monotonic`.
    waits:
        Histogram (``observe(seconds)``) receiving each event's wait
        from its accept to the cut that dispatches it.
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
        journal=None,
        defer_dispatch: bool = False,
        admission=None,
        clock: Optional[Callable[[], float]] = None,
        waits=None,
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
        self._admission = admission
        self._clock = clock if clock is not None else time.monotonic
        self._waits = waits
        #: ``(event, accept stamp)`` in arrival order; a preloaded event
        #: carries no stamp (``None``)
        self._buffer: List[Tuple[StreamEdge, Optional[float]]] = []
        # Guards the stamped buffer, the journal binding, the pause flag
        # and the ledger counters.  Never held across the handler, and
        # nothing re-enters it: what runs under it (validator, admission
        # controller, journal) is non-blocking by contract and never
        # calls back into the queue.
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
        #: deadletter tallies per bucket (the refusal kind, under its
        #: reason-prefix name), never truncated
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

    def set_journal(self, journal) -> None:
        """Journal into ``journal`` from the next decision on (a promoted
        follower gains a log of its own)."""
        with self._lock:
            self._journal = journal

    # ----------------------------------------------------------------- intake

    def put(self, edge: StreamEdge) -> bool:
        """Offer one event; returns True when buffered for an update.

        The whole judgement is one hold of the queue lock, so the
        deadletter ledger, the admission tallies, the journal and the
        buffer agree event-for-event.  A refused event is deadlettered
        (returns False); at capacity under ``overflow="raise"`` the
        producer gets :class:`BackpressureError` instead.
        """
        now = self._clock()  # outside the lock: clocks may be injected
        with self._lock:
            if self._validator is not None:
                # non-blocking by contract: a pure check of the event
                reason = self._validator(edge)  # reprolint: disable=hold-and-call
                if reason is not None:
                    return self._refuse(edge, "malformed", reason)
            if (
                self.late_tolerance is not None
                and edge.t < self.max_timestamp - self.late_tolerance
            ):
                return self._refuse(
                    edge,
                    "late",
                    f"late event: t={edge.t!r} more than {self.late_tolerance!r} "
                    f"behind watermark {self.max_timestamp!r}",
                )
            if self._admission is not None:
                decision = self._admission.admit(
                    edge, queue_depth=len(self._buffer), capacity=self.capacity
                )
                if not decision.admitted:
                    return self._refuse(edge, decision.action, decision.reason)
            if len(self._buffer) >= self.capacity:
                if self.overflow == "raise":
                    raise BackpressureError(
                        f"event queue at capacity ({self.capacity}); "
                        "flush() or resume() before ingesting more"
                    )
                if self.overflow == "drop_new":
                    return self._refuse(
                        edge, "backpressure", "backpressure: queue at capacity"
                    )
                # drop_oldest: the event will be buffered, so the head goes
                self._evict_head()
            # the event will be buffered: write-ahead, then state
            if self._journal is not None:
                self._journal.append_accept(edge)
            self._buffer.append((edge, now))
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

    def dispatch_next(self) -> int:
        """Dispatch at most one ready micro-batch; returns events cut.

        The async dispatcher's drain primitive.  Batches are cut by
        *count* in FIFO order — exactly how the inline path cuts them —
        so a drained deferred queue walks the same batch boundaries as
        an inline queue fed the same accepted events.  Returns 0 while
        paused or when fewer than ``batch_size`` events are pending.
        """
        return self._cut_and_apply()[0]

    def flush(self) -> int:
        """Dispatch everything pending (final batch may be short).

        Flushing overrides ``pause`` — it is the explicit drain.  It
        waits for a batch in flight on another thread, then drains in
        FIFO order.  Returns the number of events dispatched.
        """
        drained, more = 0, True
        with self.dispatch_barrier():
            while more:
                cut, more = self._cut_and_apply(force=True)
                drained += cut
        return drained

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

    def buffered_at(
        self, position: Callable[[], int]
    ) -> Tuple[int, Tuple[StreamEdge, ...]]:
        """``position()`` and the buffered events (oldest first), read at
        one instant.

        ``position`` reads the journal's write position (the WAL's last
        sequence number).  Every journaled decision is written under the
        queue lock, so reading both inside one hold of it yields a pair
        that describes a single point of the log — what a checkpoint
        records as ``(seq, residue)``.  Must not block or call back in.
        """
        with self._lock:
            return position(), tuple(edge for edge, _ in self._buffer)

    def restore(
        self, residue: Iterable[StreamEdge], accepted: int, watermark: float
    ) -> None:
        """Adopt the queue a journal ends with, then cut what it makes ready.

        ``residue`` goes back into the buffer without validation or
        journaling: its acceptance was journaled and validated in a
        previous process life — which is also why the events carry no
        accept stamp and observe no queue wait.  The cumulative
        ``accepted`` ledger (residue included) and the late-event
        ``watermark`` continue across the restart rather than start from
        zero; the watermark only ever advances.  A log can end with a
        whole batch or more buffered (the writer was paused, or its last
        ``batch`` record was torn), so the restore ends like
        :meth:`resume`: every ready micro-batch is cut, journaled, now.
        """
        with self._lock:
            self._buffer.extend((edge, None) for edge in residue)
            self.accepted = int(accepted)
            self.max_timestamp = max(self.max_timestamp, float(watermark))
            ready = self._ready()
        if ready:
            self._drain_ready()

    def dead_letter(self, edge: StreamEdge, reason: str) -> None:
        """Deadletter an event of a batch whose update failed after it
        left the buffer (kind ``failed``; counted ``rejected``)."""
        with self._lock:
            self._dead_letter(edge, "failed", reason)

    def deadletters_by_reason(self) -> Dict[str, int]:
        """Per-bucket deadletter tallies (never truncated).

        Buckets are the refusal kinds under their reason-prefix names —
        ``malformed``, ``late event``, ``throttle``, ``shed``,
        ``backpressure``, ``update failure`` — so reconciliation can
        assert per-reason ledgers against the WAL's
        :func:`~repro.resilience.wal.decision_ledger`.
        """
        with self._lock:
            return dict(self.reason_counts)

    # ---------- internals (all but the last two: caller holds the queue lock)

    def _ready(self) -> bool:
        return not self._paused and len(self._buffer) >= self.batch_size

    def _refuse(self, edge: StreamEdge, kind: str, reason: str) -> bool:
        """The one way ``put()`` turns an offer down: the ledger record
        for a policy denial (write-ahead of the deadletter), the kind's
        tally, the deadletter.  Returns ``put()``'s answer, False."""
        if self._journal is not None:
            if kind == "shed":
                self._journal.append_shed(edge, reason)
            elif kind == "throttle":
                self._journal.append_throttle(edge, reason)
        self._dead_letter(edge, kind, reason)
        return False

    def _evict_head(self) -> None:
        """Evict the oldest buffered event in favour of one about to be
        buffered (``drop_oldest`` backpressure)."""
        head = self._buffer[0][0]
        if self._journal is not None:
            self._journal.append_evict(head)
        del self._buffer[0]
        self._dead_letter(head, "backpressure", "backpressure: evicted oldest")

    def _dead_letter(self, edge: StreamEdge, kind: str, reason: str) -> None:
        if kind in ("shed", "throttle"):
            # admission denials are policy, not pathology: counted apart
            # from malformed / late / failed (rejected) and backpressure
            self.shed += 1
        elif kind == "backpressure":
            self.dropped += 1
        else:
            self.rejected += 1
        bucket = _BUCKETS.get(kind, kind)
        self.reason_counts[bucket] = self.reason_counts.get(bucket, 0) + 1
        self.deadletters.append(DeadLetter(edge, reason))
        overflow = len(self.deadletters) - self.max_deadletters
        if overflow > 0:
            del self.deadletters[:overflow]

    def _drain_ready(self) -> None:
        # The inline drain; under defer_dispatch the dispatcher thread
        # owns it.  Every cut re-checks pause under the queue lock: a
        # handler (e.g. a tripped circuit breaker) may pause mid-drain.
        more = not self.defer_dispatch
        while more:
            _, more = self._cut_and_apply()

    def _cut_and_apply(self, force: bool = False) -> Tuple[int, bool]:
        """Cut one micro-batch and run the handler on it; returns the
        events cut (0: nothing ready) and whether another cut was ready
        behind it.  ``force`` cuts whatever is buffered, paused or not
        (the flush path).

        The one routine behind ``put()``'s inline dispatch,
        ``dispatch_next()``, ``flush()`` and ``resume()``.  The barrier
        is taken first and spans cut + handler, so batches train one at
        a time in cut order; the queue lock covers the cut alone —
        journal record, buffer slice, counter — and is released before
        the handler starts.
        """
        with self.dispatch_barrier():
            now = self._clock()
            with self._lock:
                size = min(self.batch_size, len(self._buffer))
                if not (size if force else self._ready()):
                    return 0, False
                if self._journal is not None:
                    # write-ahead: journal the batch cut before it happens
                    self._journal.append_batch(size)
                batch, self._buffer = self._buffer[:size], self._buffer[size:]
                self.batches_dispatched += 1
                more = bool(self._buffer) if force else self._ready()
            if self._waits is not None:
                for _, stamp in batch:
                    if stamp is not None:
                        self._waits.observe(now - stamp)
            self._handler(EdgeStream([edge for edge, _ in batch]))
            return size, more
