"""Crash recovery: newest valid checkpoint + WAL-suffix replay.

:func:`recover` rebuilds a :class:`~repro.serve.service.RecommendationService`
whose learned state is **bitwise identical** to the crashed process at
its last journaled decision — the same golden-parity discipline as
``tests/core/test_engine_parity.py``.  The argument, step by step:

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
   ``state_dict`` + both RNG states puts the model on the identical
   stochastic path.
4. Replaying the post-checkpoint ``batch`` records through
   ``train_one_batch`` with the restored ``updates_applied`` as
   ``batch_index`` then re-derives every post-checkpoint update
   bit-for-bit; the surviving FIFO tail is preloaded back into the
   queue as residue.

With no usable checkpoint, recovery degrades gracefully to replaying
the *entire* WAL from a fresh model — slower, same parity guarantee.
The WAL is streamed (:func:`~repro.resilience.wal.iter_records`), never
materialised whole, so recovery memory is bounded by the *learned*
state, not the log length.
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
    iter_records,
    scan,
)
from repro.serve.service import RecommendationService, ServeConfig
from repro.utils.timer import Timer


class RecoveryError(RuntimeError):
    """The WAL and checkpoint disagree in a way replay cannot reconcile."""


@dataclass
class RecoveryResult:
    """What :func:`recover` rebuilt, plus replay accounting."""

    service: RecommendationService
    #: WAL position of the checkpoint recovery started from (0 = none)
    checkpoint_seq: int
    #: accept records re-applied from the WAL suffix
    replayed_events: int
    #: micro-batches re-trained from the WAL suffix
    replayed_batches: int
    #: events restored into the queue buffer (accepted, never trained)
    residue_events: int
    #: torn/corrupt trailing records the WAL scan dropped
    torn_records_dropped: int
    #: wall-clock seconds the whole recovery took
    recovery_seconds: float


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
        continued (every ``accept`` on record is one it inherits)."""
        if self.fifo:
            service.queue.preload(self.fifo)
        service.queue.restore_accounting(
            accepted=self.accepted, max_timestamp=self.watermark
        )


def fold_queue_log(
    records: Iterable[WalRecord], upto_seq: Optional[int] = None
) -> QueueLogState:
    """Fold queue decisions up to ``upto_seq`` into a :class:`QueueLogState`.

    Accepts any record iterable — a :func:`~repro.resilience.wal.iter_records`
    stream or an in-memory list — and stops without exhausting it once
    ``upto_seq`` is passed.
    """
    state = QueueLogState()
    for record in records:
        if upto_seq is not None and record.seq > upto_seq:
            break
        state.trained.extend(state.apply(record) or ())
    return state


def restore_service(
    dataset: Dataset,
    serve_config: ServeConfig,
    ckpt: Optional[Checkpoint],
    prefix: QueueLogState,
    model_config: Optional[SUPAConfig] = None,
    train_config: Optional[InsLearnConfig] = None,
    trace: bool = False,
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
        trace=trace,
        initial_clock=ckpt.clock if ckpt is not None else 0.0,
    )
    if ckpt is not None:
        service.trainer.set_rng_state(ckpt.trainer_rng_state)
    service.restore_runtime(
        updates_applied=ckpt.updates_applied if ckpt is not None else 0,
        max_timestamp=prefix.watermark,
    )
    return service


def recover(
    dataset: Dataset,
    serve_config: ServeConfig,
    model_config: Optional[SUPAConfig] = None,
    train_config: Optional[InsLearnConfig] = None,
    trace: bool = False,
) -> RecoveryResult:
    """Rebuild the service from ``serve_config``'s WAL + checkpoints.

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
        manager = CheckpointManager(serve_config.checkpoint_dir)
        ckpt = manager.latest()
        status = scan(serve_config.wal_path, collect_records=False)
        base_seq = ckpt.seq if ckpt is not None else 0
        if base_seq > status.last_seq:
            raise RecoveryError(
                f"WAL ends at seq {status.last_seq} but the newest "
                f"checkpoint covers seq {base_seq} (log truncated?)"
            )
        # one pass: batches cut up to the checkpoint are only observed
        # (the checkpoint holds their learning), later ones retrain
        state = QueueLogState()
        prefix: Optional[QueueLogState] = None
        suffix_batches: List[List[StreamEdge]] = []
        for record in iter_records(serve_config.wal_path):
            if prefix is None and record.seq > base_seq:
                prefix = replace(state, fifo=list(state.fifo))
            chunk = state.apply(record)
            if chunk is not None:
                if prefix is None:
                    state.trained.extend(chunk)
                else:
                    suffix_batches.append(chunk)
        if prefix is None:  # the log ends at the checkpoint
            prefix = state

        # the service's WAL reopens self-repairing and keeps appending
        # from last_seq
        service = restore_service(
            dataset, serve_config, ckpt, prefix, model_config, train_config, trace
        )
        for chunk in suffix_batches:
            service.apply_recovered_batch(EdgeStream(chunk))
        state.hand_over(service)
        replayed_events = state.accepted - prefix.accepted
        service.metrics.counter("recovery.replayed_events").inc(replayed_events)
        service.warm_cache()
    return RecoveryResult(
        service=service,
        checkpoint_seq=base_seq,
        replayed_events=replayed_events,
        replayed_batches=len(suffix_batches),
        residue_events=len(state.fifo),
        torn_records_dropped=status.dropped_records,
        recovery_seconds=timer.elapsed,
    )
