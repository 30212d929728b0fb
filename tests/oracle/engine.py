"""The per-edge oracle of the execution engine (DESIGN.md §9).

:class:`ReferenceEngine` runs the semantics of
:class:`~repro.core.engine.engine.BatchedEngine` — conflict-free rounds,
every gradient of a round taken against round-start memory, applied at
the round barrier in edge order — with Python objects for walks and
hops, dict-based gradient accumulation and one optimiser step per edge
(:func:`optimizer_step`).  It is easy to audit line by line against the
paper.  No configuration selects it: tests install it on a freshly built
model (``model.engine = ReferenceEngine()``, see
``tests.core.build_model``).  Like the production engine it holds no
model; each entry point takes the model it trains.

Both route every float through kernels — the engine through the fused
round kernels (:mod:`repro.core.engine.kernels`), the oracle through
the split forms they are pinned to (:mod:`tests.oracle.kernels`) —
take a pass's randomness from the same two draws (:func:`~repro.core.engine.plan.draw_pass`, before any
walk), and gate optimiser updates on the same "did this parameter get a
gradient" conditions, which makes their results *bitwise* identical —
losses, memories, Adam moments, touched-node sets and RNG state — as
``tests/core/test_engine_parity.py`` enforces.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine.plan import draw_pass
from repro.core.engine.schedule import partition_round_indices
from repro.core.memory import MemoryOptimizer, NodeMemory
from repro.graph.streams import StreamEdge

from tests.oracle import kernels
from tests.oracle.interactor import interaction_loss, interaction_loss_backward
from tests.oracle.propagation import propagation_loss, propagation_loss_backward
from tests.oracle.sampling import InfluencedGraph, sample_influenced_graph_compiled
from tests.oracle.updater import target_embedding, target_embedding_backward

_Record = Tuple[StreamEdge, float, float]


def context_row(memory: NodeMemory, slot: int, node: int) -> int:
    """Row of context embedding ``(slot, node)`` within the context
    block (table row ``memory.context_offset`` + this)."""
    return slot * memory.num_nodes + node


def optimizer_step(
    optimizer: MemoryOptimizer,
    long_grads: Dict[int, np.ndarray],
    short_grads: Dict[int, np.ndarray],
    context_grads: Dict[int, np.ndarray],
    alpha_grads: Optional[Dict[int, float]] = None,
) -> None:
    """Apply accumulated per-row gradients in one sparse Adam step.

    The oracle's per-edge apply: long rows keyed by node, short rows by
    node, context rows by :func:`context_row`, written at
    their table offsets.  With the undo log open, the keys are the rows
    to save.
    """
    memory = optimizer.memory
    groups = (
        (long_grads, 0),
        (short_grads, memory.short_offset),
        (context_grads, memory.context_offset),
    )
    rows = [offset + row for grads, offset in groups for row in grads]
    if rows:
        rows = np.asarray(rows, dtype=np.int64)
        optimizer.table.save_rows(rows)
        optimizer.table.update_rows(
            rows, np.stack([g for grads, _ in groups for g in grads.values()])
        )
    if alpha_grads:
        rows = np.fromiter(alpha_grads, dtype=np.int64, count=len(alpha_grads))
        grads = np.asarray([alpha_grads[r] for r in rows])[:, None]
        optimizer.alpha.save_rows(rows)
        optimizer.alpha.update_rows(rows, grads)


class _EdgeSample(NamedTuple):
    """One edge's stochastic decisions, realised from the pass's draws."""

    influenced: Optional[InfluencedGraph]
    #: u-side then v-side negative draws (``None`` with Eq. 12 off)
    negatives: Optional[Tuple[np.ndarray, np.ndarray]]


class _EdgeGradients(NamedTuple):
    """One edge's loss terms and per-row gradients, not yet applied."""

    components: Dict[str, float]
    long: Dict[int, np.ndarray]
    short: Dict[int, np.ndarray]
    context: Dict[int, np.ndarray]
    alpha: Dict[int, float]


class ReferenceEngine:
    """The per-edge object path (the correctness oracle)."""

    def train_step(
        self,
        model,
        u: int,
        v: int,
        edge_type: str,
        t: float,
        delta_u: float,
        delta_v: float,
    ) -> float:
        """One edge is a micro-batch of one (a single round)."""
        record = (StreamEdge(u=u, v=v, edge_type=edge_type, t=t), delta_u, delta_v)
        return float(self.train_batch(model, (record,))[0])

    def _sample_pass(
        self, model, records: Sequence[_Record], uv: np.ndarray
    ) -> List[_EdgeSample]:
        """Every edge's walks and negatives, as objects, from the pass's
        :func:`~repro.core.engine.plan.draw_pass` over the ``(B, 2)``
        endpoints ``uv`` — the draws
        :func:`~repro.core.engine.plan.compile_plan` makes."""
        cfg = model.config
        draws = draw_pass(model, uv)
        negs = draws.negatives
        bounds = draws.neg_offsets.tolist()
        samples = []
        for b, (edge, _, _) in enumerate(records):
            influenced = None
            if draws.walks is not None:
                influenced = sample_influenced_graph_compiled(
                    model.graph,
                    edge.u,
                    edge.v,
                    model.schema.edge_type_id(edge.edge_type),
                    edge.t,
                    model._compiled_metapaths,
                    num_walks=cfg.num_walks,
                    walk_length=cfg.walk_length,
                    uniforms=draws.walks[b],
                )
            negatives = None
            if cfg.use_neg and cfg.num_negatives > 0:
                lo, mid, hi = bounds[2 * b : 2 * b + 3]
                negatives = (negs[lo:mid], negs[mid:hi])
            samples.append(_EdgeSample(influenced, negatives))
        return samples

    def _edge_gradients(
        self, model, record: _Record, sample: _EdgeSample
    ) -> _EdgeGradients:
        """Eq. 5/7/10/12 forward and backward for one edge against the
        memory as it stands; writes nothing."""
        edge, delta_u, delta_v = record
        u, v, t = edge.u, edge.v, edge.t
        cfg = model.config
        tracer = model.tracer
        memory = model.memory
        node_type_ids = model._node_type_ids
        slot = memory.context_slot(model.schema.edge_type_id(edge.edge_type))

        grad_h_star_u = np.zeros(cfg.dim, dtype=np.float64)
        grad_h_star_v = np.zeros(cfg.dim, dtype=np.float64)
        context_grads: Dict[int, np.ndarray] = {}
        components: Dict[str, float] = {}

        def add_context_grad(row: int, grad: np.ndarray) -> None:
            if row in context_grads:
                context_grads[row] = context_grads[row] + grad
            else:
                context_grads[row] = grad

        # --- target update + interaction loss (Eq. 5, Eq. 7) -------------
        with tracer.span("core.engine.update"):
            fwd_u = target_embedding(memory, u, node_type_ids[u], delta_u, cfg)
            fwd_v = target_embedding(memory, v, node_type_ids[v], delta_v, cfg)
            if cfg.use_inter:
                c_u = memory.context[slot, u]
                c_v = memory.context[slot, v]
                inter = interaction_loss(fwd_u.h_star, c_u, fwd_v.h_star, c_v)
                g_hu, g_cu, g_hv, g_cv = interaction_loss_backward(inter)
                grad_h_star_u += g_hu
                grad_h_star_v += g_hv
                add_context_grad(context_row(memory, slot, u), g_cu)
                add_context_grad(context_row(memory, slot, v), g_cv)
                components["inter"] = inter.loss

        # --- propagation loss (Eq. 10) ----------------------------------
        if sample.influenced is not None:
            with tracer.span("core.engine.propagate"):
                prop = propagation_loss(
                    memory, sample.influenced, fwd_u.h_star, fwd_v.h_star, t, cfg
                )
                if prop.steps:
                    g_u, g_v, ctx = propagation_loss_backward(
                        memory, prop, fwd_u.h_star, fwd_v.h_star
                    )
                    grad_h_star_u += g_u
                    grad_h_star_v += g_v
                    for ctx_slot, node, grad in ctx:
                        add_context_grad(
                            context_row(memory, ctx_slot, node), grad
                        )
                components["prop"] = prop.loss

        # --- negative sampling loss (Eq. 12) -----------------------------
        if sample.negatives is not None:
            with tracer.span("core.engine.negative"):
                neg_loss = 0.0
                sides = (
                    (fwd_u, grad_h_star_u, sample.negatives[0]),
                    (fwd_v, grad_h_star_v, sample.negatives[1]),
                )
                for fwd, grad_h_star, samples in sides:
                    if samples.size:
                        side_loss, ctx_grads, grad_h_add = (
                            kernels.negative_forward_backward(
                                memory.context[slot, samples], fwd.h_star
                            )
                        )
                        neg_loss += side_loss
                        grad_h_star += grad_h_add
                        for i in range(samples.size):
                            add_context_grad(
                                context_row(memory, slot, int(samples[i])),
                                ctx_grads[i],
                            )
                components["neg"] = neg_loss

        # --- backprop through the updater --------------------------------
        long_grads: Dict[int, np.ndarray] = {}
        short_grads: Dict[int, np.ndarray] = {}
        alpha_grads: Dict[int, float] = {}
        for fwd, grad in ((fwd_u, grad_h_star_u), (fwd_v, grad_h_star_v)):
            g_long, g_short, g_alpha = target_embedding_backward(
                memory, fwd, grad, cfg
            )
            long_grads[fwd.node] = long_grads.get(fwd.node, 0.0) + g_long
            if g_short is not None:
                short_grads[fwd.node] = short_grads.get(fwd.node, 0.0) + g_short
            if g_alpha is not None:
                alpha_grads[fwd.alpha_slot] = (
                    alpha_grads.get(fwd.alpha_slot, 0.0) + g_alpha
                )
        return _EdgeGradients(
            components, long_grads, short_grads, context_grads, alpha_grads
        )

    def train_batch(self, model, records: Sequence[_Record]) -> np.ndarray:
        """Train ``model`` on ``records`` round by round; returns per-edge losses.

        Leaves the union of the batch's touched nodes (sorted tuple) on
        ``model.last_touched_nodes`` and the last record's loss terms on
        ``model.last_loss_components``, as
        :class:`~repro.core.engine.engine.BatchedEngine` does.
        """
        tracer = model.tracer
        losses = np.empty(len(records), dtype=np.float64)
        if not len(records):
            model.last_touched_nodes = ()
            model.last_loss_components = {}
            return losses
        uv = np.asarray([(edge.u, edge.v) for edge, _, _ in records], dtype=np.int64)
        with tracer.span("core.engine.sample", edges=len(records)):
            samples = self._sample_pass(model, records, uv)
        num_nodes = model.memory.num_nodes
        touched: set = set()
        for round_edges in partition_round_indices(uv):
            # Every gradient of the round before any write of the round.
            gradients = [
                self._edge_gradients(model, records[b], samples[b])
                for b in round_edges
            ]
            with tracer.span("core.engine.apply", edges=len(round_edges)):
                for b, grads in zip(round_edges, gradients):
                    optimizer_step(
                        model.optimizer,
                        grads.long,
                        grads.short,
                        grads.context,
                        grads.alpha,
                    )
                    losses[b] = float(sum(grads.components.values()))
                    touched.update(grads.long)
                    touched.update(row % num_nodes for row in grads.context)
                    if b == len(records) - 1:
                        model.last_loss_components = grads.components
        model.last_touched_nodes = tuple(sorted(touched))
        return losses
