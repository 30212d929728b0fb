"""The follower role: bootstrap from a checkpoint, tail the WAL, serve.

A :class:`ReplicationFollower` is crash recovery that never stops: it
bootstraps with recovery's own
:func:`~repro.resilience.recovery.catch_up` over the shipped directory,
read through one :class:`~repro.resilience.wal.WalTailer`, then feeds
every record that tailer's later :meth:`poll` calls return through
recovery's own :class:`~repro.resilience.recovery.QueueLogState` into
its store and index.  By the replay argument of
:mod:`repro.resilience.recovery` its published snapshots are bitwise
equal to the primary's at every applied sequence number.

Reads are served from the replica's latest published snapshot with
**bounded staleness**: gauges ``replica.seq_lag`` (records behind at
the start of the last poll), ``replica.lag_seconds`` (age of the
newest heartbeat stamp on the follower clock, as of the last poll) and
``replica.backlog_bytes`` (unshipped bytes on disk) expose the bound;
all three read 0 once the follower is promoted.  Every ``replica.*``
counter and gauge reads the follower or its tailer, which keep the one
copy of each tally.

Promotion (:meth:`promote`) is the failover state machine's last step:
drain the shipped log to its end, *inherit* it — the log file is
copied into the replica's own directory so the new timeline keeps the
full decision history — attach its WAL and checkpoints the way
:func:`~repro.resilience.recovery.recover` does, flip the service
writable, restore the surviving FIFO residue, and checkpoint
immediately so the promoted node is recoverable from its own state
from the first post-promotion event.

Threading: one driver thread calls ``bootstrap``/``poll``/``promote``;
the internal lock makes the replication position and lag observables
safely readable from other threads (serving threads, metric scrapes).
"""

from __future__ import annotations

import os
import shutil
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Iterator, Optional

import numpy as np

from repro.core.config import SUPAConfig
from repro.core.inslearn import InsLearnConfig
from repro.datasets.base import Dataset
from repro.graph.streams import EdgeStream, StreamEdge
from repro.replicate.config import checkpoint_dir, wal_path
from repro.resilience.recovery import QueueLogState, RecoveryError, catch_up
from repro.resilience.wal import WalRecord, WalTailer
from repro.serve.service import RecommendationService, ServeConfig

#: follower lifecycle states (the promote state machine, DESIGN.md §13)
BOOTSTRAPPING = "bootstrapping"
TAILING = "tailing"
PROMOTED = "promoted"


class ReplicationError(RuntimeError):
    """The shipped log contradicts the replica, or a protocol misuse."""


@contextmanager
def _replication_errors() -> Iterator[None]:
    """Shared replay code raises :class:`RecoveryError`; on this side of
    the wire the same contradiction is a :class:`ReplicationError`."""
    try:
        yield
    except RecoveryError as exc:
        raise ReplicationError(str(exc)) from exc


class ReplicationFollower:
    """Tail a primary's WAL into a read-only serving replica.

    Parameters
    ----------
    dataset:
        Must be the primary's dataset (checkpoints cross-check
        ``num_nodes``).
    state_dir:
        The *primary's* state directory (shipped WAL + checkpoints).
    replica_dir:
        This replica's own directory, used only on promotion; may also
        be passed to :meth:`promote` directly.
    serve_config / model_config / train_config:
        Must match the primary's — replay re-derives state, it does not
        ship hyper-parameters.  The follower forces ``read_only=True``;
        like every catch-up, its service has no WAL and no checkpoints
        until :meth:`promote` attaches its own, and
        ``serve_config.checkpoint_every`` is the promoted replica's
        checkpoint cadence.
    clock:
        Injectable time source (seconds) for heartbeat-age accounting;
        defaults to :func:`time.monotonic` and must share a clock
        domain with the primary's heartbeat stamps.
    """

    def __init__(
        self,
        dataset: Dataset,
        state_dir: str,
        replica_dir: Optional[str] = None,
        serve_config: Optional[ServeConfig] = None,
        model_config: Optional[SUPAConfig] = None,
        train_config: Optional[InsLearnConfig] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.dataset = dataset
        self.state_dir = state_dir
        self.replica_dir = replica_dir
        self._model_config = model_config
        self._train_config = train_config
        self._clock = clock if clock is not None else time.monotonic
        self._serve_config = replace(serve_config or ServeConfig(), read_only=True)
        self.service: Optional[RecommendationService] = None
        self.tailer: Optional[WalTailer] = None
        # Guards the replication position (applied seq, the mirrored
        # queue-log state, heartbeat observations, lifecycle state) so
        # lag probes and serving threads read a consistent view while
        # the poll thread advances it.
        self._lock = threading.Lock()
        self._log = QueueLogState()
        self._state = BOOTSTRAPPING
        self._last_seq_applied = 0
        self._last_hb_primary_t: Optional[float] = None
        self._heartbeats_seen = 0
        self._lag_records = 0
        self._lag_seconds = 0.0

    # -------------------------------------------------------------- bootstrap

    def bootstrap(self) -> "ReplicationFollower":
        """Catch up with the shipped directory — recovery's own
        :func:`~repro.resilience.recovery.catch_up` over one tailer
        drained to quiescence — and keep the queue it ends with as the
        mirror.  The tailer stays where the catch-up stopped.  Returns
        ``self`` for chaining."""
        if self.service is not None:
            raise ReplicationError("follower is already bootstrapped")
        tailer = WalTailer(wal_path(self.state_dir))
        with _replication_errors():
            caught = catch_up(
                self.dataset,
                self._serve_config,
                checkpoint_dir(self.state_dir),
                self._shipped(tailer),
                self._model_config,
                self._train_config,
            )
        metrics = caught.service.metrics
        metrics.counter("replica.batches_applied").inc(caught.replayed_batches)
        metrics.counter("checkpoint.fallbacks").inc(caught.checkpoint_fallbacks)
        # the follower owns the service: its sources reach back weakly,
        # as the service's own do (DESIGN.md §8)
        me = weakref.proxy(self)
        for name, source in (
            ("replica.records_applied", lambda: me.applied_seq),
            ("replica.bytes_shipped", lambda: tailer.bytes_read),
            ("replica.heartbeats_seen", lambda: me.heartbeats_seen),
        ):
            metrics.counter(name, source=source)
        for name, source in (
            ("replica.seq_lag", lambda: me.lag_records),
            ("replica.backlog_bytes", lambda: 0 if me.state == PROMOTED else tailer.backlog_bytes),
            ("replica.lag_seconds", lambda: me.lag_seconds),
        ):
            metrics.gauge(name, source=source)
        self.service = caught.service
        self.tailer = tailer
        with self._lock:
            self._log = caught.log
            self._state = TAILING
        self._polled(caught.last_seq - caught.checkpoint_seq)
        return self

    def _shipped(self, tailer: WalTailer) -> Iterator[WalRecord]:
        """Drain ``tailer`` to quiescence, observing each record as it
        passes (the catch-up folds and retrains them)."""
        while True:
            records = tailer.poll()
            if not records:
                return
            for record in records:
                self._observe(record)
                yield record

    # ---------------------------------------------------------------- tailing

    def poll(self, max_records: Optional[int] = None) -> int:
        """Fetch and apply newly shipped records; returns the count.

        Applies every complete record the tailer returns — a torn tail
        at the shipped log's EOF simply stays pending for the next
        poll.  Records its staleness afterwards.  A promoted follower
        is the writer: its state comes from its own log, so it polls no
        other.
        """
        if self.tailer is None:
            raise ReplicationError("call bootstrap() before poll()")
        if self.state == PROMOTED:
            raise ReplicationError("a promoted follower polls no log")
        records = self.tailer.poll(max_records=max_records)
        for record in records:
            self._apply(record)
        self._polled(len(records))
        return len(records)

    def _apply(self, record: WalRecord) -> None:
        """Replay one shipped record into the replica's state."""
        with self._lock, _replication_errors():
            chunk = self._log.apply(record)
        self._observe(record)
        if chunk is None:
            return
        # batch: hand the chunk to the deterministic replay machinery
        self.service.apply_recovered_batch(EdgeStream(chunk))
        self.service.metrics.counter("replica.batches_applied").inc()

    def _observe(self, record: WalRecord) -> None:
        """Move the replication position past ``record``; a heartbeat
        also refreshes the primary stamp the lag gauge ages."""
        with self._lock:
            if record.kind == "heartbeat":
                self._heartbeats_seen += 1
                self._last_hb_primary_t = record.t
            self._last_seq_applied = record.seq

    def _polled(self, lag_records: int) -> None:
        """Record a finished poll's staleness: the records it fetched,
        and the newest heartbeat's age on the follower clock now."""
        now = self._clock()
        with self._lock:
            self._lag_records = lag_records
            if self._last_hb_primary_t is not None:
                self._lag_seconds = max(0.0, now - self._last_hb_primary_t)

    # ---------------------------------------------------------------- serving

    def recommend(self, user: int, k: int = 10) -> np.ndarray:
        """Read-only top-``k`` from the replica's published snapshot
        (bounded-stale: see the ``replica.*`` lag gauges)."""
        if self.service is None:
            raise ReplicationError("call bootstrap() before recommend()")
        return self.service.recommend(user, k)

    # ------------------------------------------------------------- promotion

    def promote(self, replica_dir: Optional[str] = None) -> None:
        """Flip the drained replica into a writable primary-in-waiting.

        The sequence (each step idempotent-safe to observe mid-way):

        1. drain — poll until the shipped log yields nothing more;
        2. inherit — copy the primary's WAL file into
           ``replica_dir`` so the new timeline owns the full decision
           history (its own ``recover()`` replays it end to end);
        3. attach — open the inherited WAL + a fresh checkpoint manager
           on the service and flip it writable;
        4. restore — hand the surviving FIFO residue, accepted-event
           ledger and watermark over to the queue, which cuts any whole
           batch of it into the inherited log at once;
        5. checkpoint — immediately, so the promoted node is
           recoverable without replaying the whole inherited log.
        """
        if self.service is None:
            raise ReplicationError("call bootstrap() before promote()")
        with self._lock:
            if self._state == PROMOTED:
                raise ReplicationError("follower is already promoted")
        target = replica_dir if replica_dir is not None else self.replica_dir
        if target is None:
            raise ReplicationError("promote() needs a replica_dir")
        if os.path.abspath(target) == os.path.abspath(self.state_dir):
            raise ReplicationError(
                "replica_dir must differ from the primary's state_dir"
            )
        while self.poll():
            pass

        shipped_wal = wal_path(self.state_dir)
        own_wal = wal_path(target)
        os.makedirs(target, exist_ok=True)
        if os.path.exists(shipped_wal):  # a primary that never opened one
            shutil.copyfile(shipped_wal, own_wal)

        service = self.service
        service.attach_durability(own_wal, checkpoint_dir(target))
        with self._lock:
            log = self._log
            applied_seq = self._last_seq_applied
        if service.wal.last_seq != applied_seq:
            raise ReplicationError(
                f"inherited WAL ends at seq {service.wal.last_seq} but the "
                f"replica applied through seq {applied_seq}"
            )
        log.hand_over(service)
        service.set_writable()
        with self._lock:
            self._state = PROMOTED
            self._lag_seconds = 0.0  # the drain's empty last poll zeroed lag_records
        self.replica_dir = target
        service.checkpoint()

    def ingest(self, edge: StreamEdge) -> bool:
        """Offer one event to a *promoted* replica (the new writer)."""
        with self._lock:
            state = self._state
        if state != PROMOTED:
            raise ReplicationError(
                "follower is read-only until promoted; reads only"
            )
        return self.service.ingest(edge)

    def flush(self) -> int:
        """Drain the promoted replica's buffered events (quiesce)."""
        with self._lock:
            state = self._state
        if state != PROMOTED:
            raise ReplicationError("only a promoted follower can flush")
        return self.service.flush()

    # ------------------------------------------------------------- inspection

    @property
    def state(self) -> str:
        """Lifecycle state: bootstrapping → tailing → promoted."""
        with self._lock:
            return self._state

    @property
    def applied_seq(self) -> int:
        """Newest shipped sequence number applied to the replica."""
        with self._lock:
            return self._last_seq_applied

    @property
    def accepted_total(self) -> int:
        """Accept records applied so far (the inherited ledger)."""
        with self._lock:
            return self._log.accepted

    @property
    def residue(self) -> int:
        """Accepted-but-untrained events mirrored from the primary queue."""
        with self._lock:
            return len(self._log.fifo)

    @property
    def heartbeats_seen(self) -> int:
        with self._lock:
            return self._heartbeats_seen

    @property
    def lag_records(self) -> int:
        """Records the replica was behind at the start of its last poll."""
        with self._lock:
            return self._lag_records

    @property
    def lag_seconds(self) -> float:
        """The newest heartbeat's age at the last poll (0 once promoted)."""
        with self._lock:
            return self._lag_seconds

    def lag_from(self, primary_seq: int) -> int:
        """Records behind a known primary position (external measure)."""
        with self._lock:
            return max(0, int(primary_seq) - self._last_seq_applied)

    def close(self) -> None:
        """Release the replica's own WAL handle, if promotion opened one."""
        if self.service is not None:
            self.service.close()
