"""The online recommendation service: ingest → update → publish → serve.

:class:`RecommendationService` keeps a live SUPA model deployable while
it learns (the paper's InsLearn premise) by interleaving three loops
that never block each other:

1. **Ingest** — ``ingest(edge)`` offers events to a bounded
   :class:`~repro.serve.ingest.EventQueue`; malformed events are
   deadlettered, overload triggers backpressure.
2. **Update** — each ready micro-batch runs one resumable
   :meth:`~repro.core.inslearn.InsLearnTrainer.train_one_batch` step,
   then the touched nodes' time-free Eq. 14 components are **published
   atomically** as a new copy-on-write snapshot, which reads Eq. 14 at
   its own clock.  The step runs under the queue's dispatch mutex only —
   the queue lock that ``ingest()`` and ``recommend()`` take is released
   before it starts.
3. **Serve** — ``recommend(user, k)`` pins the latest published
   snapshot and answers from the top-K index, whose cache every publish
   clears.  While an update is mid-flight the pinned snapshot is simply
   the last published one, so service degrades to *bounded staleness*,
   never inconsistency; a staleness gauge records how many
   applied-but-unpublished and queued events the answer is behind.

Consistency model: an answer always reflects a single snapshot version
(never a half-applied update); after ``flush()`` on a quiesced service,
answers equal the offline ranking pipeline exactly.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.inslearn import InsLearnConfig, InsLearnTrainer
from repro.core.model import SUPA
from repro.datasets.base import Dataset
from repro.graph.streams import EdgeStream, StreamEdge
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.serve.admission import (
    DEPTH_LOWWATER,
    SHEDDING,
    AdmissionConfig,
    AdmissionController,
)
from repro.serve.dispatch import DispatchWorker
from repro.serve.index import TopKIndex
from repro.serve.ingest import EventQueue
from repro.serve.store import DecayedEmbeddingStore

#: consecutive update failures that open the circuit breaker
BREAKER_THRESHOLD = 3
#: ingests while the breaker is open before a half-open probe
BREAKER_COOLDOWN_EVENTS = 64


@dataclass
class ServeConfig:
    """Serving-side knobs (model/training knobs stay on their configs)."""

    batch_size: int = 256  # events per update micro-batch (serving S_batch)
    capacity: int = 2048  # queue bound before backpressure
    overflow: str = "raise"  # backpressure policy: raise | drop_new | drop_oldest
    cache_size: int = 1024  # (user, k) entries in the top-K LRU cache
    read_only: bool = False  # reject ingest (replica mode); reads still served
    # --- resilience (repro.resilience); all off by default -----------------
    wal_path: Optional[str] = None  # journal accepted events/batches here
    wal_fsync: bool = False  # fsync every WAL append (OS-crash durability)
    checkpoint_dir: Optional[str] = None  # atomic state snapshots live here
    checkpoint_every: int = 0  # checkpoint every N applied updates; 0 = never
    late_tolerance: Optional[float] = None  # deadletter events older than this
    #: injectable monotonic clock for the intake stamps: each accepted
    #: event is stamped as it is buffered, which gives, at the batch
    #: cut, its queue wait in the ``latency.queue_wait_seconds``
    #: histogram — time spent buffered, apart from service time proper.
    #: The token buckets refill on the same clock.  ``None`` (the
    #: default) is ``time.monotonic``; the benchmark spine passes
    #: ``time.perf_counter``, tests a fake clock.
    clock_fn: Optional[Callable[[], float]] = None
    # --- async dispatch + admission control (DESIGN.md §8) ----------------
    #: run updates on a dispatcher thread instead of inline in ``put()``:
    #: ``ingest()`` returns after the journaled accept decision.  The
    #: worker starts lazily on the first ingest (so recovery replay never
    #: races it) and is closed by :meth:`RecommendationService.close`.
    async_dispatch: bool = False
    #: admission control in front of the queue (rate limiting, overload
    #: shedding); ``None`` admits everything.  See
    #: :class:`~repro.serve.admission.AdmissionConfig`.
    admission: Optional[AdmissionConfig] = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.capacity < self.batch_size:
            raise ValueError(
                f"capacity ({self.capacity}) must be >= batch_size "
                f"({self.batch_size})"
            )
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
        # Batches are cut by count alone, so SHEDDING must stand down
        # with a whole batch still buffered: below that, the remainder
        # nothing can cut keeps the depth above the low watermark and
        # every later event is shed (a livelock).
        if (
            self.admission is not None
            and DEPTH_LOWWATER * self.capacity < self.batch_size
        ):
            raise ValueError(
                f"admission DEPTH_LOWWATER ({DEPTH_LOWWATER}) x "
                f"capacity ({self.capacity}) must hold one batch "
                f"(batch_size {self.batch_size}): shedding could never stand down"
            )


class ReadOnlyServiceError(RuntimeError):
    """Ingest was offered to a service serving in read-only replica mode."""


@dataclass(frozen=True)
class QueryResult:
    """A :meth:`RecommendationService.query` answer with its health.

    ``degraded`` marks answers served while the system is shedding load
    or breaker-paused — still correct against the last published
    snapshot, just staler than the SLO promises.  ``reason`` says which
    signal tripped; ``snapshot_version`` pins the version the items came
    from.
    """

    items: np.ndarray
    degraded: bool = False
    reason: str = ""
    snapshot_version: int = -1


class RecommendationService:
    """Serve top-K recommendations while learning from the event stream.

    Parameters
    ----------
    dataset:
        Fixes the node universe, schema, candidate catalogue and the
        served relation (its first target edge type, else schema's).
    model / train_config:
        The :class:`SUPA` model (a fresh one when omitted) and the
        config of the :class:`InsLearnTrainer` the service builds on it.
    config:
        Serving knobs; see :class:`ServeConfig`.
    trace:
        ``True`` records ``repro.obs`` spans — ingest/update/query
        here, and the model's training phases nested inside update —
        into a tree shared with the service's metrics registry.  Default
        off: the no-op tracer keeps the serve path overhead-free.
    """

    def __init__(
        self,
        dataset: Dataset,
        model: Optional[SUPA] = None,
        config: Optional[ServeConfig] = None,
        train_config: Optional[InsLearnConfig] = None,
        trace: bool = False,
        initial_clock: float = 0.0,
    ):
        self.config = config or ServeConfig()
        self.dataset = dataset
        self.model = model if model is not None else SUPA.for_dataset(dataset)
        self.trainer = InsLearnTrainer(
            self.model,
            train_config
            or InsLearnConfig(
                batch_size=self.config.batch_size,
                max_iterations=4,
                validation_interval=2,
                validation_size=25,
                patience=1,
            ),
        )

        schema = dataset.schema
        targets = dataset.target_edge_types
        self.edge_type = targets[0] if targets else schema.edge_types[0]
        self.user_type, self.item_type = schema.endpoints_of(self.edge_type)
        self.users = dataset.nodes_of_type(self.user_type)
        self.items = dataset.nodes_of_type(self.item_type)

        self.metrics = MetricsRegistry()
        self.tracer = Tracer(registry=self.metrics) if trace else NULL_TRACER
        if trace:
            # Nest the model's training spans (core.inslearn.*,
            # core.engine.*) under this service's update span.
            self.model.tracer = self.tracer
        # Guards the service's scalar runtime state (_clock,
        # _update_in_flight, _updates_applied, breaker fields,
        # _read_only).  Leaf-like by contract: never call into the
        # queue, store, index or metrics while holding it (DESIGN.md §12).
        self._state_lock = threading.Lock()
        self._clock = float(initial_clock)  # latest applied event timestamp
        self._update_in_flight = False
        self._updates_applied = 0
        self._read_only = bool(self.config.read_only)
        # --- resilience wiring (function-level imports keep repro.serve
        # importable on its own and avoid a serve <-> resilience cycle)
        self.wal = None
        self.checkpoints = None
        self._consecutive_update_failures = 0
        self._breaker_open = False
        self._breaker_cooldown = 0
        if self.config.wal_path is not None:
            self._open_wal()
        if self.config.checkpoint_dir is not None:
            self._open_checkpoints()

        # The store versions Eq. 14's time-free components and reads the
        # formula at each snapshot's clock, so a publish costs O(touched
        # rows) even though a clock advance moves every decayed row.
        memory = self.model.memory
        self._context_slot = memory.context_slot(schema.edge_type_id(self.edge_type))
        all_nodes = np.arange(dataset.num_nodes, dtype=np.int64)
        self.store = DecayedEmbeddingStore(
            self._components(all_nodes),
            last_times=self.model.graph.last_interaction_times(all_nodes),
            alpha=memory.alpha,
            alpha_slots=memory.alpha_slots(self.model._node_type_ids),
            config=self.model.config,
            clock=self._clock,
        )
        self.index = TopKIndex(self.items, cache_size=self.config.cache_size)
        # Admission is consulted by the queue, inside its one intake
        # decision (DESIGN.md §8); the service only reads its tallies.
        self.admission: Optional[AdmissionController] = (
            AdmissionController(self.config.admission, clock=self.config.clock_fn)
            if self.config.admission is not None
            else None
        )
        # Every callback another component holds reaches the service
        # through this one weak reference, never a bound method or a
        # closure over ``self`` (DESIGN.md §8): the service is then no
        # reference cycle and frees the moment its last user drops it.
        # A callback fired after that raises ReferenceError.
        me = weakref.proxy(self)
        self.queue = EventQueue(
            handler=lambda batch: me._apply_batch(batch),
            batch_size=self.config.batch_size,
            capacity=self.config.capacity,
            validator=lambda edge: me._validate_event(edge),
            overflow=self.config.overflow,
            late_tolerance=self.config.late_tolerance,
            journal=self.wal,  # None until attach_durability() on a follower
            defer_dispatch=self.config.async_dispatch,
            admission=self.admission,
            clock=self.config.clock_fn,
            waits=self.metrics.histogram("latency.queue_wait_seconds"),
        )
        # Created eagerly, started lazily on the first ingest: recovery
        # replay (apply_recovered_batch) must never race a live worker.
        self.dispatcher: Optional[DispatchWorker] = (
            DispatchWorker(
                self.queue, on_error=lambda exc: me._register_dispatch_failure(exc)
            )
            if self.config.async_dispatch
            else None
        )
        if self.dispatcher is not None:
            # A service dropped without close() must not leave its worker
            # polling a queue whose handler target is gone.  The callback
            # holds the worker, never the service, and only signals it.
            weakref.finalize(self, self.dispatcher.stop)
        self._register_metrics(me)

    def _register_metrics(self, me: "RecommendationService") -> None:
        """Every instrument, registered once so exports are fully
        populated before the first event.  A tally a component already
        keeps is *sourced* — read from its one owner at ``.value`` /
        export time, never copied — and the service keeps handles to
        the instruments it moves itself on the per-event paths.  A
        source that reads the service reads it through ``me``, the
        service's weak proxy."""
        metrics, queue, index, store = self.metrics, self.queue, self.index, self.store
        admission = self.admission
        for name, source in (
            ("ingest.accepted", lambda: queue.accepted),
            ("ingest.rejected", lambda: queue.rejected),
            ("ingest.dropped", lambda: queue.dropped),
            ("ingest.shed", lambda: queue.shed),
            ("ingest.late", lambda: queue.deadletters_by_reason().get("late event", 0)),
            ("updates.applied", lambda: me.updates_applied),
            ("cache.hits", lambda: index.hits),
            ("cache.misses", lambda: index.misses),
            ("cache.invalidated", lambda: index.invalidations),
            ("cache.evictions", lambda: index.evictions),
            # recovery and promotion attach the log and the checkpoint
            # manager after construction: these read 0 until then
            ("wal.appends", lambda: me.wal.appends if me.wal else 0),
            ("wal.bytes_appended", lambda: me.wal.bytes_appended if me.wal else 0),
            ("wal.torn_records_dropped", lambda: me.wal.torn_records_dropped if me.wal else 0),
            ("checkpoint.writes", lambda: me.checkpoints.writes if me.checkpoints else 0),
        ):
            metrics.counter(name, source=source)
        for key in ("admitted", "throttled", "shed", "escalations"):
            metrics.counter(
                f"admission.{key}",
                source=(lambda key=key: admission.counts()[key]) if admission else None,
            )
        for name, source in (
            ("queue.pending", lambda: queue.pending),
            ("queue.depth_fraction", lambda: queue.pending / queue.capacity),
            ("store.version", lambda: store.version),
            ("admission.state", lambda: admission is not None and admission.state == SHEDDING),
            ("breaker.state", lambda: me.breaker_open),
        ):
            metrics.gauge(name, source=source)
        for name in (
            "updates.failed",
            "checkpoint.fallbacks",
            "recovery.replayed_events",
            "breaker.opened",
            "serve.degraded",
        ):
            metrics.counter(name)
        # Stage histograms: queue wait (accept → batch cut, observed by
        # the queue) and the train/publish split inside each update.
        for name in ("latency.update_seconds", "stage.train_seconds", "stage.publish_seconds"):
            metrics.histogram(name)
        self._offered = metrics.counter("ingest.offered")
        self._recommendations = metrics.counter("serve.recommendations")
        self._stale_serves = metrics.counter("serve.stale_serves")
        self._events_behind = metrics.gauge("staleness.events_behind")
        self._recommend_seconds = metrics.histogram("latency.recommend_seconds")

    # ------------------------------------------------------------------ intake

    def _validate_event(self, edge: StreamEdge) -> Optional[str]:
        """Reject events the model could not apply (deadletter reason).

        Runs first in the queue's intake decision (kind ``malformed``):
        outside input is checked before any policy sees it.
        """
        try:
            u, v = int(edge.u), int(edge.v)
        except (TypeError, ValueError):
            return f"malformed: non-integer node ids ({edge.u!r}, {edge.v!r})"
        n = self.dataset.num_nodes
        if not (0 <= u < n and 0 <= v < n):
            return f"malformed: node id outside universe of {n} nodes"
        try:
            self.dataset.schema.edge_type_id(edge.edge_type)
        except (KeyError, ValueError):
            return f"malformed: unknown edge type {edge.edge_type!r}"
        if not np.isfinite(edge.t):
            return f"malformed: non-finite timestamp {edge.t!r}"
        return None

    def ingest(self, edge: StreamEdge) -> bool:
        """Offer one interaction event; True when accepted for learning.

        With inline dispatch a full micro-batch triggers an update +
        snapshot publish before this returns; with ``async_dispatch``
        the call returns right after the journaled accept decision and
        the dispatcher thread runs the update.  The event is judged
        once, inside :meth:`EventQueue.put`: malformed, late, throttled
        or shed events return False (see ``deadletters``).
        While the circuit breaker is open, events keep buffering
        (bounded-stale serving) and every ingest counts toward the
        cooldown that triggers a half-open probe.
        """
        with self._state_lock:
            if self._read_only:
                raise ReadOnlyServiceError(
                    "service is in read-only replica mode; promote it "
                    "before ingesting"
                )
            probe = False
            if self._breaker_open:
                self._breaker_cooldown -= 1
                probe = self._breaker_cooldown <= 0
        if probe:
            self._probe_breaker()
        self._offered.inc()
        dispatcher = self.dispatcher
        if dispatcher is not None:
            dispatcher.start()  # idempotent; lazy so recovery never races
        with self.tracer.span("serve.service.ingest"):
            accepted = self.queue.put(edge)
        if accepted and dispatcher is not None:
            dispatcher.notify()
        return accepted

    def _register_dispatch_failure(self, exc: Exception) -> None:
        """Dispatcher ``on_error`` hook: a crash escaping the worker's
        dispatch round (e.g. a WAL append failure while journaling a
        batch cut — the inline path would raise it into the producer)
        counts toward the circuit breaker exactly like an update
        failure, so a persistently failing async path degrades to
        bounded-stale serving instead of spinning."""
        self._count_failure()

    def flush(self) -> int:
        """Drain every buffered event through updates; returns the count.

        After ``flush()`` the published snapshot reflects all accepted
        events — the service is *quiesced* and answers match the offline
        ranking pipeline exactly.
        """
        return self.queue.flush()

    @property
    def deadletters(self):
        """Rejected/shed events with reasons (bounded, newest retained)."""
        return self.queue.deadletters

    # ----------------------------------------------------------------- updates

    def _apply_batch(self, batch: EdgeStream) -> None:
        """One background InsLearn step + atomic snapshot publication.

        A failing update never poisons the ingest path: the batch is
        deadlettered (reason ``"update failure: ..."``), the failure
        counted, and after ``BREAKER_THRESHOLD`` consecutive failures
        the circuit breaker opens — dispatch pauses and the service
        degrades to bounded-stale reads until a cooldown probe.
        """
        with self._state_lock:
            self._update_in_flight = True
        try:
            with self.tracer.span("serve.service.update", events=len(batch)):
                with self.metrics.histogram("latency.update_seconds").time():
                    try:
                        self._train_and_publish(batch)
                    except Exception as exc:
                        # breaker boundary: record + degrade, never raise
                        # into the producer's ingest call
                        self._register_update_failure(batch, exc)
                        return
            with self._state_lock:
                self._updates_applied += 1
                self._consecutive_update_failures = 0
            self._maybe_checkpoint()
        finally:
            with self._state_lock:
                self._update_in_flight = False

    def _train_and_publish(self, batch: EdgeStream) -> None:
        """The transactional core of one update."""
        with self._state_lock:
            batch_index = self._updates_applied
        with self.metrics.histogram("stage.train_seconds").time():
            report = self.trainer.train_one_batch(batch, batch_index=batch_index)
        with self._state_lock:
            self._clock = max(self._clock, float(batch[len(batch) - 1].t))
            clock = self._clock
        # touched_nodes is a sorted tuple by contract
        rows = np.asarray(report.touched_nodes, dtype=np.int64)
        with self.metrics.histogram("stage.publish_seconds").time():
            with self.tracer.span("serve.store.publish", rows=int(rows.size)):
                snapshot = self.store.publish(
                    rows,
                    self._components(rows),
                    last_times=self.model.graph.last_interaction_times(rows),
                    alpha=self.model.memory.alpha,
                    clock=clock,
                )
            with self.tracer.span("serve.index.invalidate"):
                self.index.invalidate(snapshot)

    def _components(self, rows: np.ndarray) -> np.ndarray:
        """The store's time-free rows ``concat(h^L, h^S, c^r)`` for ``rows``."""
        memory = self.model.memory
        context = memory.context[self._context_slot]
        return np.concatenate(
            (memory.long[rows], memory.short[rows], context[rows]), axis=1
        )

    def _register_update_failure(self, batch: EdgeStream, exc: Exception) -> None:
        """Deadletter a failed batch; trip the breaker at the threshold."""
        reason = f"update failure: {type(exc).__name__}: {exc}"
        for edge in batch:
            self.queue.dead_letter(edge, reason)
        self._count_failure()

    def _count_failure(self) -> None:
        """One more consecutive failure; at ``BREAKER_THRESHOLD`` the
        breaker opens: dispatch pauses until a cooldown probe."""
        with self._state_lock:
            self._consecutive_update_failures += 1
            trip = (
                self._consecutive_update_failures >= BREAKER_THRESHOLD
                and not self._breaker_open
            )
            if trip:
                self._breaker_open = True
                self._breaker_cooldown = BREAKER_COOLDOWN_EVENTS
        self.metrics.counter("updates.failed").inc()
        if trip:
            self.queue.pause()
            self.metrics.counter("breaker.opened").inc()

    def _probe_breaker(self) -> None:
        """Half-open: re-enable dispatch; the next failure re-opens."""
        with self._state_lock:
            self._breaker_open = False
        self.queue.resume()

    @property
    def breaker_open(self) -> bool:
        """True while the update circuit breaker has dispatch paused."""
        with self._state_lock:
            return self._breaker_open

    # ------------------------------------------------------------ replica mode

    def set_writable(self) -> None:
        """Flip a read-only replica to writable (follower promotion)."""
        with self._state_lock:
            self._read_only = False

    def attach_durability(
        self, wal_path: str, checkpoint_dir: str, recovered=None
    ) -> None:
        """Wire a WAL and checkpoints into the bare service
        :func:`~repro.resilience.recovery.catch_up` returns.

        Two callers, one call each: promotion, and
        :func:`~repro.resilience.recovery.recover`, which passes the
        :func:`~repro.resilience.wal.scan` it replayed as ``recovered``
        so the log opens (and repairs its torn tail) from that walk
        instead of reading itself again.  Call while no producers are
        ingesting; journal coverage starts with the first decision made
        after the attach.
        """
        if self.wal is not None:
            raise ValueError("service already has a write-ahead log")
        # on a copy: the caller's ServeConfig may build other services,
        # and one journal must never gain a second writer
        self.config = replace(
            self.config, wal_path=wal_path, checkpoint_dir=checkpoint_dir
        )
        self._open_wal(recovered)
        self._open_checkpoints()
        self.queue.set_journal(self.wal)

    def _open_wal(self, recovered=None) -> None:
        from repro.resilience.wal import WriteAheadLog

        self.wal = WriteAheadLog(
            self.config.wal_path,
            fsync=self.config.wal_fsync,
            recovered=recovered,
        )

    def _open_checkpoints(self) -> None:
        from repro.resilience.checkpoint import CheckpointManager

        self.checkpoints = CheckpointManager(self.config.checkpoint_dir)

    # -------------------------------------------------------------- durability

    def _maybe_checkpoint(self) -> None:
        every = self.config.checkpoint_every
        if self.checkpoints is None or every < 1 or self.updates_applied % every != 0:
            return
        self.checkpoint()

    def checkpoint(self) -> Optional[str]:
        """Write one atomic checkpoint now; returns its path.

        ``None`` when no ``checkpoint_dir`` is configured.  The snapshot
        is keyed to the WAL position (``wal.last_seq``) so recovery can
        replay exactly the suffix this checkpoint has not seen.  Safe
        from any thread: the queue's dispatch barrier keeps every update
        out while the model's live arrays are written to disk (a call
        from inside an update — the auto-checkpoint — re-enters it), and
        ``(seq, residue)`` are read in one hold of the queue lock, so the
        checkpoint describes exactly one batch boundary.
        """
        if self.checkpoints is None:
            return None
        from repro.resilience.checkpoint import Checkpoint

        wal = self.wal
        with self.queue.dispatch_barrier():
            with self._state_lock:
                updates_applied = self._updates_applied
                clock = self._clock
            seq, residue = self.queue.buffered_at(
                lambda: wal.last_seq if wal is not None else 0
            )
            ckpt = Checkpoint(
                seq=seq,
                updates_applied=updates_applied,
                clock=clock,
                residue=list(residue),
                model_state=self.model.state_views(),  # no copy: under the barrier
                model_rng_state=self.model.rng.bit_generator.state,
                trainer_rng_state=self.trainer.rng_state(),
                num_nodes=self.dataset.num_nodes,
            )
            # saved inside the barrier too: concurrent callers at one
            # boundary would otherwise race on the same ckpt-<seq> file
            return self.checkpoints.save(ckpt)

    def restore_runtime(self, *, updates_applied: int) -> None:
        """Adopt the update count restored from a checkpoint, so replay's
        ``batch_index`` continues where the checkpointed process stood
        (:func:`repro.resilience.recovery.restore_service`)."""
        with self._state_lock:
            self._updates_applied = int(updates_applied)

    def apply_recovered_batch(self, batch: EdgeStream) -> None:
        """Re-run one journaled micro-batch during WAL replay.

        The batch bypasses the queue, so nothing is journaled — the
        record being replayed already exists in the log — and a
        replaying service has no checkpoints until
        :meth:`attach_durability`, so none is taken at a mid-replay WAL
        position.  The benchmark spine's probes bind this name.
        """
        self._apply_batch(batch)

    def close(self) -> None:
        """Release pooled resources (idempotent): the dispatcher thread
        (joined after draining ready batches — quiescence contract,
        DESIGN.md §8) and the WAL file handle (a crashed process
        releases these for free; tests and drivers call it before
        recovering).
        A partial trailing micro-batch stays buffered; call ``flush()``
        first when the run must quiesce completely."""
        if self.dispatcher is not None:
            self.dispatcher.close()
        if self.wal is not None:
            self.wal.close()

    # ----------------------------------------------------------------- serving

    def recommend(self, user: int, k: int = 10) -> np.ndarray:
        """Top-``k`` item ids for ``user`` from the published snapshot.

        Never blocks on learning: a mid-flight update leaves the pinned
        snapshot (the last published one) serving, and the staleness
        gauge records how many events the answer is behind.
        """
        return self._serve(user, k)[0]

    def _serve(self, user: int, k: int) -> Tuple[np.ndarray, int]:
        """One read: the items and the version of the snapshot they came
        from (pinned once, so the two can never disagree)."""
        if not 0 <= int(user) < self.dataset.num_nodes:
            raise IndexError(
                f"user {user} outside universe of {self.dataset.num_nodes} nodes"
            )
        with self.tracer.span("serve.service.query"):
            with self._recommend_seconds.time():
                snapshot = self.store.snapshot()  # pin: reads stay on one version
                items = self.index.top_k(snapshot, int(user), int(k))
        self._recommendations.inc()
        stale_by = self.queue.pending
        with self._state_lock:
            if self._update_in_flight:
                stale_by += self.config.batch_size
        if stale_by:
            self._stale_serves.inc()
        self._events_behind.set(stale_by)
        return items, snapshot.version

    def query(self, user: int, k: int = 10) -> "QueryResult":
        """Overload-aware :meth:`recommend`: answers never error under
        pressure, they degrade.

        When the circuit breaker is open or admission is shedding, the
        answer still comes from the last published snapshot (exactly
        what :meth:`recommend` serves) but carries ``degraded=True`` and
        the reason — the SLO-visible marker that bounded staleness is
        currently *unbounded by fresh updates*.
        """
        reason = ""
        with self._state_lock:
            if self._breaker_open:
                reason = "breaker open"
        admission = self.admission
        if not reason and admission is not None and admission.state == SHEDDING:
            reason = "admission shedding"
        items, version = self._serve(user, k)
        if reason:
            self.metrics.counter("serve.degraded").inc()
        return QueryResult(
            items=items,
            degraded=bool(reason),
            reason=reason,
            snapshot_version=version,
        )

    def offline_top_k(self, user: int, k: int = 10) -> np.ndarray:
        """The offline ranking pipeline's answer (Eq. 15, full catalogue).

        Scores with the live model exactly as ``eval/ranking`` does; on a
        quiesced service this must equal :meth:`recommend`.
        """
        return self.model.recommend(int(user), self.items, self.edge_type, self.clock, k=k)

    # ------------------------------------------------------------- observation

    @property
    def snapshot_version(self) -> int:
        return self.store.version

    @property
    def clock(self) -> float:
        """Latest event timestamp applied to the model."""
        with self._state_lock:
            return self._clock

    @property
    def updates_applied(self) -> int:
        """Micro-batches trained and published so far."""
        with self._state_lock:
            return self._updates_applied

    def stats(self) -> Dict[str, float]:
        """A flat convenience summary of the busiest metrics."""
        return {
            "events_accepted": float(self.queue.accepted),
            "events_rejected": float(self.queue.rejected),
            "events_dropped": float(self.queue.dropped),
            "events_pending": float(self.queue.pending),
            "updates_applied": float(self.updates_applied),
            "snapshot_version": float(self.store.version),
            "cache_hit_rate": self.index.hit_rate,
            "recommend_p95_seconds": self._recommend_seconds.percentile(95.0),
        }
