"""The execution engine behind ``SUPA.train_step`` and its oracle.

One semantics, two implementations (DESIGN.md §9).  A micro-batch is
partitioned into conflict-free *rounds* — edges with pairwise-disjoint
endpoints (:func:`repro.core.engine.schedule.partition_round_indices`).
Rounds run in order; within a round every edge's gradients are taken
against round-start memory and applied at the round barrier, in edge
order on the rows several of its edges share.  A single streamed edge
is a round of one, so ``train_step`` is plain per-edge SGD.

:class:`BatchedEngine` is the engine every model is built with: it
compiles the micro-batch into a round-major
:class:`~repro.core.engine.plan.BatchPlan` (all sampling up front,
:mod:`repro.core.engine.plan`) and executes each round, a contiguous
slice of it, as a handful of stacked ``[round, dim]`` kernels — Python
dispatch is paid per round, not per edge.

:class:`ReferenceEngine` is the per-edge oracle of the same semantics:
Python objects for walks and hops, dict-based gradient accumulation,
one optimiser step per edge.  It is easy to audit line-by-line against
the paper, and no configuration selects it — tests install it on a
freshly built model (``model.engine = ReferenceEngine()``).  Neither
holds a model: each entry point takes the model it trains.

Both route every float through the same kernels
(:mod:`repro.core.engine.kernels`), take a pass's randomness from the
same two draws (:func:`~repro.core.engine.plan.draw_pass`, before any
walk), and gate optimiser updates on
the same "did this parameter get a gradient" conditions, which makes
their results *bitwise* identical — losses, memories, Adam moments,
touched-node sets and RNG state — as enforced by
``tests/core/test_engine_parity.py``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import kernels
from repro.core.engine.plan import compile_plan, draw_pass
from repro.core.interactor import interaction_loss, interaction_loss_backward
from repro.core.engine.schedule import partition_round_indices
from repro.core.propagation import propagation_loss, propagation_loss_backward
from repro.core.updater import target_embedding, target_embedding_backward
from repro.graph.sampling import InfluencedGraph, sample_influenced_graph_compiled
from repro.graph.streams import StreamEdge

_Record = Tuple[StreamEdge, float, float]


class _EngineBase:
    """Shared wiring: an engine executes gradient steps for the model it
    is handed.  It holds no model — the model holds its engine, and a
    back-reference would make every model a reference cycle."""

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

    def train_batch(self, model, records: Sequence[_Record]) -> np.ndarray:
        """Train ``model`` on ``records`` round by round; returns per-edge losses.

        Leaves the union of the batch's touched nodes (sorted tuple) on
        ``model.last_touched_nodes`` and the last record's loss terms on
        ``model.last_loss_components``.
        """
        raise NotImplementedError


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


class ReferenceEngine(_EngineBase):
    """The per-edge object path (the correctness oracle)."""

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
                add_context_grad(model.optimizer.context_row(slot, u), g_cu)
                add_context_grad(model.optimizer.context_row(slot, v), g_cv)
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
                            model.optimizer.context_row(ctx_slot, node), grad
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
                                model.optimizer.context_row(slot, int(samples[i])),
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
        tracer = model.tracer
        losses = np.empty(len(records), dtype=np.float64)
        if not len(records):
            model.last_touched_nodes = ()
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
                    model.optimizer.step(
                        grads.long, grads.short, grads.context, grads.alpha
                    )
                    losses[b] = float(sum(grads.components.values()))
                    touched.update(grads.long)
                    touched.update(row % num_nodes for row in grads.context)
                    if b == len(records) - 1:
                        model.last_loss_components = grads.components
        model.last_touched_nodes = tuple(sorted(touched))
        return losses


class BatchedEngine(_EngineBase):
    """Plan-compiled, round-stacked execution (the production engine)."""

    def train_batch(self, model, records: Sequence[_Record]) -> np.ndarray:
        """Compile the micro-batch, then execute the plan round by round.

        The two halves get their own spans (``core.engine.compile`` /
        ``core.engine.execute``); with the default no-op tracer a span
        is one shared do-nothing context manager per batch.
        """
        if not len(records):
            model.last_touched_nodes = ()
            return np.empty(0, dtype=np.float64)
        tracer = model.tracer
        with tracer.span("core.engine.compile", edges=len(records)):
            plan = compile_plan(model, records)
        with tracer.span("core.engine.execute", edges=plan.num_edges):
            return self._execute_plan(model, plan)

    def _record_plan_metrics(self, plan, registry) -> None:
        """Plan- and round-size telemetry."""
        if registry is None:
            return
        registry.counter("engine.plan.edges").inc(plan.num_edges)
        registry.counter("engine.plan.walk_steps").inc(len(plan.step_rows))
        registry.counter("engine.plan.negatives").inc(len(plan.neg_rows))
        registry.counter("engine.plan.ctx_rows").inc(len(plan.ctx_rows))
        registry.counter("engine.plan.rounds").inc(plan.num_rounds)
        registry.counter("engine.plan.contended_ctx_rows").inc(
            plan.contended_ctx_rows
        )
        round_edges = registry.histogram(
            "engine.round.edges", min_value=1.0, max_value=1e4
        )
        for size in np.diff(plan.edge_bounds).tolist():
            round_edges.observe(size)

    def _execute_plan(self, model, plan) -> np.ndarray:
        """Execute a compiled plan as conflict-free rounds.

        Each round is one pass of stacked kernels over its ``k`` edges'
        ``(2k, dim)`` endpoint rows, hop rows and negative rows (all
        gathered from round-start memory), then the barrier: long,
        short and context rows share one table, so the round's long rows
        (endpoint-disjoint, so unique up to self-loops), its short rows
        (at ``+N``) and its first occurrence of every context row (at
        ``+2N``) take **one** optimiser call; a context row several
        edges of the round share takes its later occurrences in
        occurrence-rank sweeps after it (Adam is per-row, so a row's
        updates land in edge order either way), and the alpha slots
        one in-order chain of scalar steps (nearly every edge shares
        them, so each step needs the moments the previous edge left).
        The arithmetic, the optimiser-update gating and the per-row
        update order are exactly those of :class:`ReferenceEngine`.
        """
        cfg = model.config
        memory = model.memory
        optimizer = model.optimizer
        # Undo-log pre-images for the whole pass in one vectorised call:
        # the plan names every row execution can write (the interactive
        # endpoints, each edge's unique context rows), so InsLearn's
        # rollback needs no hook in the round loop.
        optimizer.save_rows(plan.nodes, plan.ctx_rows)
        num_nodes = memory.num_nodes
        # Context rows as table rows; ``ctx_flat`` is the context block.
        ctx_table_rows = plan.ctx_rows + memory.context_offset
        ctx_flat = memory.table[memory.context_offset :]
        mem_long = memory.long
        mem_short = memory.short
        mem_alpha = memory.alpha
        padded_segment_sums = kernels.padded_segment_sums
        accumulate_rows = kernels.accumulate_rows
        tracer = model.tracer
        self._record_plan_metrics(plan, tracer.registry)
        # Attribute kernel and optimiser self-times on traced runs; the
        # no-op tracer's wrap() hands the callable back unchanged.
        wrap = tracer.wrap
        target_forward = wrap("core.kernels.update", kernels.target_forward)
        target_backward = wrap("core.kernels.update", kernels.target_backward)
        interaction_forward = wrap("core.kernels.update", kernels.interaction_forward)
        interaction_backward = wrap(
            "core.kernels.update", kernels.interaction_backward
        )
        propagation_rows = wrap("core.kernels.propagate", kernels.propagation_rows)
        negative_rows = wrap("core.kernels.negative", kernels.negative_rows)
        update_rows = wrap("core.engine.apply", optimizer.table.update_rows)
        update_alpha = wrap("core.engine.apply", optimizer.alpha.update_chain)
        use_inter = cfg.use_inter
        use_prop = cfg.use_prop and cfg.num_walks > 0
        use_neg = cfg.use_neg and cfg.num_negatives > 0
        edge_bounds = plan.edge_bounds.tolist()
        step_bounds = plan.step_bounds.tolist()
        neg_bounds = plan.neg_bounds.tolist()
        ctx_bounds = plan.ctx_bounds.tolist()
        later_bounds = plan.ctx_later_bounds.tolist()
        max_rank = plan.ctx_max_rank.tolist()
        has_self_loop = plan.has_self_loop.tolist()

        # Per-edge loss terms in round-major order; hop terms accumulate
        # per edge and negative terms per (edge, side), both in order.
        num_edges = plan.num_edges
        inter_loss = np.zeros(num_edges, dtype=np.float64)
        prop_loss = np.zeros(num_edges, dtype=np.float64)
        neg_side_loss = np.zeros(2 * num_edges, dtype=np.float64)
        adam_calls = 0

        for r in range(plan.num_rounds):
            e0 = edge_bounds[r]
            e1 = edge_bounds[r + 1]
            ends = slice(2 * e0, 2 * e1)
            nodes = plan.nodes[ends]
            alpha_slots = plan.alpha_slots[ends]
            deltas = plan.deltas[ends]
            short_rows = mem_short[nodes]
            alpha_values = mem_alpha[alpha_slots]
            h_star, gamma, x, sig = target_forward(
                mem_long[nodes], short_rows, alpha_values, deltas, cfg
            )

            grad_h = np.zeros(h_star.shape, dtype=np.float64)
            # Context gradients stacked in the plan's catalogue order:
            # interaction pair rows, hop rows, negative rows.
            ctx_grad_parts = []

            # --- interaction loss (Eq. 7) -------------------------------
            if use_inter:
                loss, score, h_r = interaction_forward(
                    h_star, ctx_flat[plan.inter_rows[ends]]
                )
                grad = interaction_backward(score, h_r)
                inter_loss[e0:e1] = loss
                grad_h += grad
                ctx_grad_parts.append(grad)

            # --- propagation loss (Eq. 10) ------------------------------
            hops = slice(step_bounds[r], step_bounds[r + 1])
            if use_prop and hops.stop > hops.start:
                terms, ctx_grads, source_grads = propagation_rows(
                    ctx_flat[plan.step_rows[hops]],
                    h_star[plan.step_source[hops]],
                    plan.step_cums[hops],
                )
                np.add.at(prop_loss, plan.step_owner[hops], terms)
                grad_h += padded_segment_sums(
                    source_grads, plan.step_slots[hops], len(nodes), plan.step_width
                )
                ctx_grad_parts.append(ctx_grads)

            # --- negative sampling loss (Eq. 12) -------------------------
            draws = slice(neg_bounds[r], neg_bounds[r + 1])
            if use_neg and draws.stop > draws.start:
                terms, ctx_grads, source_grads = negative_rows(
                    ctx_flat[plan.neg_rows[draws]], h_star[plan.neg_source[draws]]
                )
                np.add.at(neg_side_loss, plan.neg_owner[draws], terms)
                grad_h += padded_segment_sums(
                    source_grads, plan.neg_slots[draws], len(nodes), plan.neg_width
                )
                ctx_grad_parts.append(ctx_grads)

            # --- backprop through the updater ---------------------------
            g_long, g_short, g_alpha = target_backward(
                grad_h, short_rows, alpha_values, gamma, x, deltas, cfg, sig=sig
            )

            # --- round barrier: apply ------------------------------------
            if g_short is not None:
                rows = np.concatenate((nodes, nodes + num_nodes))
                grads = np.concatenate((g_long, g_short))
            else:
                rows, grads = nodes, g_long
            if has_self_loop[r]:
                rows, grads = accumulate_rows(rows, grads)
            sweeps = ()
            if ctx_grad_parts:
                stack = (
                    np.concatenate(ctx_grad_parts, axis=0)
                    if len(ctx_grad_parts) > 1
                    else ctx_grad_parts[0]
                )
                block = slice(ctx_bounds[r], ctx_bounds[r + 1])
                later = slice(later_bounds[r], later_bounds[r + 1])
                # Each unique row starts from its first contribution and
                # adds the rest in catalogue order — dict accumulation.
                summed = stack[plan.ctx_first[block]]
                if later.stop > later.start:
                    np.add.at(
                        summed,
                        plan.ctx_later_dest[later],
                        stack[plan.ctx_later_sel[later]],
                    )
                ctx_rows = ctx_table_rows[block]
                first = slice(None)
                if max_rank[r]:
                    rank = plan.ctx_rank[block]
                    first, *sweeps = [
                        np.flatnonzero(rank == k) for k in range(max_rank[r] + 1)
                    ]
                rows = np.concatenate((rows, ctx_rows[first]))
                grads = np.concatenate((grads, summed[first]))
            update_rows(rows, grads)
            for pick in sweeps:
                update_rows(ctx_rows[pick], summed[pick])
            adam_calls += 1 + len(sweeps)
            if g_alpha is not None:
                update_alpha(*_alpha_steps(alpha_slots, g_alpha))

        # Per-edge totals in the per-edge summation order (inter + prop
        # + neg, u-side negatives before v-side), back in plan order.
        components = {}
        if use_inter:
            components["inter"] = inter_loss
        if use_prop:
            components["prop"] = prop_loss
        if use_neg:
            components["neg"] = 0.0 + neg_side_loss[0::2] + neg_side_loss[1::2]
        totals = np.zeros(num_edges, dtype=np.float64)
        for values in components.values():
            totals += values
        losses = np.empty(num_edges, dtype=np.float64)
        losses[plan.edges] = totals
        last = int(np.argmax(plan.edges))
        model.last_loss_components = {
            name: float(values[last]) for name, values in components.items()
        }
        if tracer.registry is not None:
            # table ``update_rows`` calls; the alpha chain is one per round
            tracer.registry.counter("engine.apply.adam_calls").inc(adam_calls)
        all_nodes = np.concatenate((plan.nodes, plan.ctx_rows % num_nodes))
        model.last_touched_nodes = tuple(np.unique(all_nodes).tolist())
        return losses


def _alpha_steps(slots: np.ndarray, grads: np.ndarray):
    """A round's alpha steps in edge order, as ``(rows, grads)`` for
    :meth:`~repro.core.memory.SparseAdam.update_chain`.

    ``slots`` / ``grads`` are the flat ``(2k,)`` endpoint arrays.  An
    edge's two endpoints step one after the other (distinct slots do
    not interact); an edge with both endpoints on one slot takes a
    single step with the pair's summed gradient, as the per-edge
    accumulation does.
    """
    pair_slots = slots.reshape(-1, 2)
    same = pair_slots[:, 0] == pair_slots[:, 1]
    if not same.any():
        return slots, grads
    pair_grads = grads.reshape(-1, 2).copy()
    pair_grads[same, 0] = 0.0 + pair_grads[same, 0] + pair_grads[same, 1]
    keep = np.ones(pair_slots.shape, dtype=bool)
    keep[same, 1] = False
    return pair_slots[keep], pair_grads[keep]
