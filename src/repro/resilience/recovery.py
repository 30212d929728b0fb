"""Catch-up: newest valid checkpoint + one pass over the WAL.

:func:`catch_up` builds a :class:`~repro.serve.service.RecommendationService`
whose learned state is **bitwise identical** to the writer's at its last
journaled decision — the same golden-parity discipline as
``tests/core/test_engine_parity.py``.  :func:`recover` (crash recovery)
and a replication follower's bootstrap are its two callers; both make
the bare service it returns durable with one ``attach_durability`` call
(``recover()`` at once, a follower on promotion).  The argument, step
by step:

1. The WAL (:mod:`repro.resilience.wal`) is the queue's decision log:
   ``accept``/``evict``/``batch`` records written *before* each state
   change.  Replaying it reconstructs the exact FIFO evolution of the
   queue — in particular the exact micro-batch boundaries the trainer
   saw, independent of when pauses or flushes happened to trigger
   dispatch.  (Ledger-only kinds — ``heartbeat`` liveness stamps and
   the ``shed``/``throttle`` admission decisions — fold to a no-op:
   they audit what was *denied*, which by construction never touched
   queue or model state.)
2. Rebuilding the graph consumes no randomness: ``SUPA.observe`` only
   inserts edges and ticks the (degree-derived, RNG-free) negative
   sampler's refresh schedule.  Observing the trained prefix therefore
   reproduces graph, caches-by-invalidation and sampler tables exactly.
3. All training randomness flows through exactly two generators —
   ``model.rng`` (walk/negative sampling) and the trainer's validation
   RNG — whose full PCG64 states live in the checkpoint.  Restoring
   the learned state (``load_state_dict`` of the checkpoint's flat
   name → array map, which also re-seeds both Adams' step bounds) + both
   RNG states puts the model on the identical stochastic path.
4. Replaying the post-checkpoint ``batch`` records through
   ``train_one_batch`` with the restored ``updates_applied`` as
   ``batch_index`` then re-derives every post-checkpoint update
   bit-for-bit; the surviving FIFO tail is handed back to the queue
   as residue.

With no usable checkpoint, the catch-up degrades gracefully to replaying
the *entire* WAL from a fresh model — slower, same parity guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional

from repro.core.config import SUPAConfig
from repro.core.inslearn import InsLearnConfig
from repro.core.model import SUPA
from repro.datasets.base import Dataset
from repro.graph.streams import EdgeStream, StreamEdge
from repro.resilience.checkpoint import Checkpoint, CheckpointManager
from repro.resilience.wal import (
    LEDGER_ONLY_KINDS,
    WalRecord,
    iter_records,  # unused here; bound so the spine's probes can wrap it
    scan,
)
from repro.serve.service import RecommendationService, ServeConfig
from repro.utils.timer import Timer


class RecoveryError(RuntimeError):
    """The WAL and checkpoint disagree in a way replay cannot reconcile."""


@dataclass
class RecoveryResult:
    """What :func:`catch_up` built, plus replay accounting."""

    service: RecommendationService
    #: the queue the log ends with — residue, accepted ledger, watermark
    #: (its trained events live in the model now: ``trained`` is empty)
    log: QueueLogState
    #: WAL position of the checkpoint the catch-up started from (0 = none)
    checkpoint_seq: int
    #: last WAL record folded
    last_seq: int
    #: accept records re-applied from the WAL suffix
    replayed_events: int
    #: micro-batches re-trained from the WAL suffix
    replayed_batches: int
    #: events left in ``log.fifo`` (accepted, never trained)
    residue_events: int
    #: corrupt checkpoints skipped to reach ``checkpoint_seq``
    checkpoint_fallbacks: int = 0
    #: torn/corrupt trailing records the WAL scan dropped (``recover`` only)
    torn_records_dropped: int = 0
    #: wall-clock seconds the whole recovery took (``recover`` only)
    recovery_seconds: float = 0.0


@dataclass
class QueueLogState:
    """FIFO evolution folded out of a WAL prefix."""

    #: events handed to the trainer, in micro-batch order
    trained: List[StreamEdge] = field(default_factory=list)
    #: events accepted but still buffered (the queue residue)
    fifo: List[StreamEdge] = field(default_factory=list)
    #: total ``accept`` records folded (ledger accounting)
    accepted: int = 0
    #: newest accepted-event timestamp (late-arrival watermark)
    watermark: float = float("-inf")

    def apply(self, record: WalRecord) -> Optional[List[StreamEdge]]:
        """The one per-record transition every replayer drives (prefix
        fold, recovery suffix, follower tail): ledger-only kinds are
        no-ops, ``accept`` appends, ``evict`` pops the head it names,
        ``batch`` cuts ``count`` events off the head and returns them
        (``None`` otherwise) for the caller to observe or retrain."""
        if record.kind in LEDGER_ONLY_KINDS:
            return None
        if record.kind == "accept":
            self.fifo.append(record.edge)
            self.accepted += 1
            self.watermark = max(self.watermark, record.edge.t)
            return None
        if record.kind == "evict":
            if not self.fifo or self.fifo[0] != record.edge:
                raise RecoveryError(
                    f"evict record #{record.seq} does not match the queue head"
                )
            self.fifo.pop(0)
            return None
        if record.count > len(self.fifo):
            raise RecoveryError(
                f"batch record #{record.seq} dispatches {record.count} "
                f"events but only {len(self.fifo)} are buffered"
            )
        chunk = self.fifo[: record.count]
        del self.fifo[: record.count]
        return chunk

    def hand_over(self, service: RecommendationService) -> None:
        """Give ``service`` the queue this log ends with: residue
        buffered, accepted-event ledger and late-event watermark
        continued (every ``accept`` on record is one it inherits), and
        any whole batch of residue cut and trained through the journal,
        as the live queue would have."""
        service.queue.restore(self.fifo, self.accepted, self.watermark)


def restore_service(
    dataset: Dataset,
    serve_config: ServeConfig,
    ckpt: Optional[Checkpoint],
    prefix: QueueLogState,
    model_config: Optional[SUPAConfig] = None,
    train_config: Optional[InsLearnConfig] = None,
) -> RecommendationService:
    """The one restore (steps 2–3 above): a service at ``ckpt``'s learned
    state, clock and update count, over the graph that ``prefix`` — the
    log folded up to ``ckpt.seq``, or an empty fold without a checkpoint
    — implies.  Replaying the log past ``ckpt.seq`` is the caller's job.
    """
    if ckpt is not None:
        if list(ckpt.residue) != prefix.fifo:
            raise RecoveryError(
                "checkpoint residue disagrees with the WAL prefix "
                f"({len(ckpt.residue)} vs {len(prefix.fifo)} buffered events)"
            )
        if ckpt.num_nodes and ckpt.num_nodes != dataset.num_nodes:
            raise RecoveryError(
                f"checkpoint was taken over {ckpt.num_nodes} nodes but "
                f"the dataset has {dataset.num_nodes}"
            )
    model = SUPA.for_dataset(dataset, model_config)
    for edge in prefix.trained:
        model.observe(edge.u, edge.v, edge.edge_type, edge.t)
    if ckpt is not None:
        model.load_state_dict(ckpt.model_state)
        model.rng.bit_generator.state = ckpt.model_rng_state
    # an omitted train_config falls back to the service's own default,
    # i.e. the one the crashed writer was built with
    service = RecommendationService(
        dataset,
        model=model,
        config=serve_config,
        train_config=train_config,
        initial_clock=ckpt.clock if ckpt is not None else 0.0,
    )
    if ckpt is not None:
        service.trainer.set_rng_state(ckpt.trainer_rng_state)
    service.restore_runtime(
        updates_applied=ckpt.updates_applied if ckpt is not None else 0
    )
    return service


def catch_up(
    dataset: Dataset,
    serve_config: ServeConfig,
    checkpoint_dir: str,
    records: Iterable[WalRecord],
    model_config: Optional[SUPAConfig] = None,
    train_config: Optional[InsLearnConfig] = None,
) -> RecoveryResult:
    """The one catch-up: newest checkpoint + log → a bare service.

    ``records`` is the log from seq 1, read once: batches cut up to the
    checkpoint's seq are only observed (the checkpoint holds their
    learning), later ones retrain through ``apply_recovered_batch``.  A
    checkpoint newer than the log is refused — no history produces that
    state.  The service has no WAL and no checkpoints, whatever
    ``serve_config`` sets, so replay can neither journal nor checkpoint;
    attaching them and handing the queue over is the caller's job.
    """
    checkpoints = CheckpointManager(checkpoint_dir)
    ckpt = checkpoints.latest()
    base_seq = ckpt.seq if ckpt is not None else 0
    state = QueueLogState()
    prefix: Optional[QueueLogState] = None
    suffix_batches: List[List[StreamEdge]] = []
    last_seq = 0
    for record in records:
        if prefix is None and record.seq > base_seq:
            prefix = replace(state, fifo=list(state.fifo))
        chunk = state.apply(record)
        if chunk is not None:
            if prefix is None:
                state.trained.extend(chunk)
            else:
                suffix_batches.append(chunk)
        last_seq = record.seq
    if base_seq > last_seq:
        raise RecoveryError(
            f"WAL ends at seq {last_seq} but the newest "
            f"checkpoint covers seq {base_seq} (log truncated?)"
        )
    if prefix is None:  # the log ends at the checkpoint
        prefix = state
    bare = replace(serve_config, wal_path=None, checkpoint_dir=None)
    service = restore_service(dataset, bare, ckpt, prefix, model_config, train_config)
    for chunk in suffix_batches:
        service.apply_recovered_batch(EdgeStream(chunk))
    state.trained = []
    return RecoveryResult(
        service=service,
        log=state,
        checkpoint_seq=base_seq,
        last_seq=last_seq,
        replayed_events=state.accepted - prefix.accepted,
        replayed_batches=len(suffix_batches),
        residue_events=len(state.fifo),
        checkpoint_fallbacks=checkpoints.fallbacks,
    )


def recover(
    dataset: Dataset,
    serve_config: ServeConfig,
    model_config: Optional[SUPAConfig] = None,
    train_config: Optional[InsLearnConfig] = None,
) -> RecoveryResult:
    """Rebuild the service from ``serve_config``'s WAL + checkpoints:
    :func:`catch_up` over the log, then attach durability and hand the
    queue over, as a follower's promotion does.

    ``model_config`` / ``train_config`` must match the crashed process's
    (recovery re-derives, it does not store hyper-parameters); omitted
    values fall back to the same defaults ``RecommendationService``
    itself would use.
    """
    if serve_config.wal_path is None or serve_config.checkpoint_dir is None:
        raise ValueError(
            "serve_config must set wal_path and checkpoint_dir to recover"
        )
    timer = Timer()
    with timer:
        # the one read of the log: its records feed the catch-up, and the
        # WAL opens from the same walk — cut back to its valid prefix,
        # appending from last_seq — once the service is caught up
        status = scan(serve_config.wal_path)
        result = catch_up(
            dataset,
            serve_config,
            serve_config.checkpoint_dir,
            status.records,
            model_config,
            train_config,
        )
        service = result.service
        service.attach_durability(
            serve_config.wal_path, serve_config.checkpoint_dir, recovered=status
        )
        result.log.hand_over(service)
        service.metrics.counter("recovery.replayed_events").inc(
            result.replayed_events
        )
        service.metrics.counter("checkpoint.fallbacks").inc(
            result.checkpoint_fallbacks
        )
    result.torn_records_dropped = status.dropped_records
    result.recovery_seconds = timer.elapsed
    return result
