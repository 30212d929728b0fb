"""InsLearn: the single-pass incremental training workflow (Algorithm 1).

The stream is cut into chronological batches of ``S_batch`` edges; the
last ``S_valid`` edges of each batch form its validation set.  Within a
batch the model trains for up to ``N_iter`` replays, validating every
``I_valid`` iterations with early stopping at patience ``mu`` and
best-model restore, then moves to the next batch.  Because training
never revisits earlier batches, the model stays deployable on the live
platform while it learns.

The restore costs what the batch touched, not what the model weighs:
the "best model" is the state at the last mark of the optimiser's undo
log (:meth:`repro.core.memory.MemoryOptimizer.mark`), and line 20 writes
the logged pre-images home instead of reloading a full copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.engine import kernels
from repro.core.model import SUPA
from repro.core.updater import active_interval
from repro.graph.streams import EdgeStream, StreamEdge
from repro.utils.rng import RngLike, new_rng


@dataclass
class InsLearnConfig:
    """Workflow hyper-parameters (paper defaults in Section IV-C)."""

    batch_size: int = 1024  # S_batch
    max_iterations: int = 30  # N_iter
    validation_interval: int = 8  # I_valid
    validation_size: int = 150  # S_valid
    patience: int = 3  # mu
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.validation_interval < 1:
            raise ValueError(
                f"validation_interval must be >= 1, got {self.validation_interval}"
            )
        if self.validation_size < 0:
            raise ValueError(
                f"validation_size must be >= 0, got {self.validation_size}"
            )
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")


@dataclass
class BatchReport:
    """Training trace for one batch.

    ``touched_nodes`` is the union of every node whose memory rows were
    written while training this batch (a superset of the rows that
    actually differ after best-model restore) — the serving layer uses
    it to publish the touched rows of the next embedding snapshot.
    It is a *sorted tuple* so that serialised reports (replay logs,
    JSON traces) are byte-deterministic across runs.
    """

    batch_index: int
    num_train_edges: int
    num_valid_edges: int
    iterations_run: int
    best_score: float
    mean_loss: float
    touched_nodes: Tuple[int, ...] = ()


@dataclass
class TrainingReport:
    """Per-batch traces for the whole stream."""

    batches: List[BatchReport] = field(default_factory=list)


_Record = Tuple[StreamEdge, float, float]


def _record_and_observe(model: SUPA, edges: Sequence[StreamEdge]) -> List[_Record]:
    """Capture each edge's pre-insertion active intervals, then insert it.

    Replayed training iterations reuse these intervals so every replay
    sees the same ``Delta_V`` the edge had when it arrived.
    """
    records: List[_Record] = []
    for e in edges:
        du = active_interval(model.graph.last_interaction_time(e.u), e.t)
        dv = active_interval(model.graph.last_interaction_time(e.v), e.t)
        records.append((e, du, dv))
        model.observe(e.u, e.v, e.edge_type, e.t)
    return records


def _train_pass(
    model: SUPA, records: Sequence[_Record], touched: Optional[Set[int]] = None
) -> float:
    losses = model.train_batch(records)
    if touched is not None:
        touched.update(model.last_touched_nodes)
    # Left-to-right sum matches the scalar accumulation this loop
    # historically used, keeping logged losses bit-stable.
    return kernels.sequential_sum(losses) / max(1, len(records))


def validation_mrr(
    model: SUPA,
    edges: Sequence[StreamEdge],
    num_candidates: int = 100,
    rng: RngLike = 0,
) -> float:
    """Sampled-candidate MRR used as the validation score ``theta``.

    For each held-out edge the true node is ranked against
    ``num_candidates - 1`` random same-type distractors — a cheap,
    monotone proxy for the full-catalogue ranking metrics.

    One ``rng.choice`` per scored edge, in edge order, on the int64 pool
    (a pool of one node draws nothing); then one embedding pass over the
    whole tail, and per edge its own ``(n_k, d) @ (d,)`` matvec on a
    fresh block — another gemv shape need not give :meth:`SUPA.score`'s
    bits.
    """
    if not len(edges):
        return 0.0
    rng = new_rng(rng)
    graph = model.graph
    blocks, rel_ids, times = [], [], []
    for e in edges:
        src_type, _ = model.schema.endpoints_of(e.edge_type)
        if graph.node_type(e.u) == src_type:
            query, true = e.u, e.v
        else:
            # the record arrived (target, source); swap roles
            query, true = e.v, e.u
        pool = graph.nodes_of_type(graph.node_type(true))
        if len(pool) <= 1:
            continue
        distractors = rng.choice(
            pool, size=min(num_candidates - 1, len(pool)), replace=False
        )
        blocks.append(np.concatenate(([query, true], distractors[distractors != true])))
        rel_ids.append(model.schema.edge_type_id(e.edge_type))
        times.append(e.t)
    if not blocks:
        return 0.0
    sizes = [len(b) for b in blocks]
    h = model.final_embedding_rows(
        np.concatenate(blocks),
        np.repeat(model.memory.context_slots(rel_ids), sizes),
        np.repeat(np.asarray(times, dtype=np.float64), sizes),
    )
    reciprocal = []
    lo = 0
    for size in sizes:
        # row ``lo`` is the query, the next ``size - 1`` its candidates
        scores = h[lo + 1 : lo + size].copy() @ h[lo]
        lo += size
        ahead = np.count_nonzero(scores > scores[0])
        rank = 1.0 + ahead + 0.5 * np.count_nonzero(scores[1:] == scores[0])
        reciprocal.append(1.0 / rank)
    return float(np.mean(reciprocal))


class InsLearnTrainer:
    """Runs Algorithm 1 over a chronological edge stream."""

    def __init__(self, model: SUPA, config: Optional[InsLearnConfig] = None):
        self.model = model
        self.config = config or InsLearnConfig()
        self._rng = new_rng(self.config.seed)

    def rng_state(self):
        """JSON-serialisable snapshot of the validation RNG.

        Together with ``model.rng`` this is the trainer's only
        cross-batch mutable state, so checkpointing it
        (:mod:`repro.resilience.checkpoint`) makes a recovered trainer
        resume the exact validation-sampling stream.
        """
        return self._rng.bit_generator.state

    def set_rng_state(self, state) -> None:
        """Restore a snapshot captured by :meth:`rng_state`."""
        self._rng.bit_generator.state = state

    def fit(self, stream: EdgeStream) -> TrainingReport:
        """Train the model on ``stream`` batch by batch (single pass)."""
        report = TrainingReport()
        for index, batch in enumerate(stream.sequential_batches(self.config.batch_size)):
            report.batches.append(self.train_one_batch(batch, batch_index=index))
        return report

    def train_one_batch(self, batch: EdgeStream, batch_index: int = 0) -> BatchReport:
        """Run Algorithm 1's inner loop (lines 4-20) on a single batch.

        This is the resumable unit the online serving layer drives: each
        call splits off the batch's validation tail, replays the training
        edges up to ``N_iter`` times with early stopping, restores the
        best-validated state and inserts the validation edges — exactly
        what one iteration of :meth:`fit`'s loop does.  The returned
        report carries the batch's touched-node set for the serve
        store's row publish.
        """
        if not len(batch):
            # Nothing to replay or validate.  The empty call clears the
            # model's last-batch report, as a pass over no edges would.
            self.model.train_batch(())
            return BatchReport(
                batch_index,
                num_train_edges=0,
                num_valid_edges=0,
                iterations_run=0,
                best_score=0.0,
                mean_loss=0.0,
            )
        cfg = self.config
        tracer = self.model.tracer
        touched: Set[int] = set()
        with tracer.span("core.inslearn.batch", edges=len(batch)):
            train, valid = batch.split_train_valid(cfg.validation_size)
            with tracer.span("core.inslearn.observe", edges=len(train)):
                records = _record_and_observe(self.model, list(train))

            # Best model = the state at the undo log's last mark (module
            # docstring).  A batch that never validates (no validation
            # tail, or an interval past the iteration cap) has no
            # best-validated state to restore: no rollback, so no log.
            optimizer = self.model.optimizer
            best_score = 0.0
            patience_used = 0
            losses: List[float] = []
            iterations_run = 0
            validates = (
                len(valid) > 0 and cfg.validation_interval <= cfg.max_iterations
            )
            if validates:
                optimizer.mark()
            try:
                for iteration in range(1, cfg.max_iterations + 1):
                    with tracer.span("core.inslearn.replay", edges=len(records)):
                        losses.append(_train_pass(self.model, records, touched))
                    iterations_run = iteration
                    if validates and iteration % cfg.validation_interval == 0:
                        with tracer.span("core.inslearn.validate", edges=len(valid)):
                            score = validation_mrr(
                                self.model, list(valid), rng=self._rng
                            )
                        if score > best_score:
                            best_score = score
                            optimizer.mark()
                            patience_used = 0
                        else:
                            patience_used += 1
                            if patience_used > cfg.patience:
                                break

                with tracer.span("core.inslearn.restore"):
                    if validates:
                        # Line 20: carry the best-validated parameters forward.
                        optimizer.rollback()
                    # Validation edges join the graph before the next batch
                    # arrives.
                    _record_and_observe(self.model, list(valid))
            finally:
                optimizer.release()
            touched.update(e.u for e in batch)
            touched.update(e.v for e in batch)

        return BatchReport(
            batch_index=batch_index,
            num_train_edges=len(train),
            num_valid_edges=len(valid),
            iterations_run=iterations_run,
            best_score=best_score,
            mean_loss=float(np.mean(losses)) if losses else 0.0,
            touched_nodes=tuple(sorted(touched)),
        )


def train_conventional(
    model: SUPA, stream: EdgeStream, epochs: int = 5
) -> TrainingReport:
    """The SUPA_w/oIns baseline: multi-epoch training, no batching or
    validation (Section IV-G.3).

    The first epoch streams edges in order (recording their arrival-time
    ``Delta_V``); later epochs replay the full edge set.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    report = TrainingReport()
    records: List[_Record] = []
    losses = []
    for e in stream:
        du = active_interval(model.graph.last_interaction_time(e.u), e.t)
        dv = active_interval(model.graph.last_interaction_time(e.v), e.t)
        losses.append(model.train_step(e.u, e.v, e.edge_type, e.t, du, dv))
        model.observe(e.u, e.v, e.edge_type, e.t)
        records.append((e, du, dv))
    for _ in range(epochs - 1):
        losses.append(_train_pass(model, records))
    report.batches.append(
        BatchReport(
            batch_index=0,
            num_train_edges=len(stream),
            num_valid_edges=0,
            iterations_run=epochs,
            best_score=0.0,
            mean_loss=float(np.mean(losses)) if losses else 0.0,
        )
    )
    return report
