"""The two execution engines behind ``SUPA.train_step``.

:class:`ReferenceEngine` is the original per-edge path: Python objects
for walks and hops, dict-based gradient accumulation, one model update
per streamed edge.  It is easy to audit line-by-line against the paper
and stays as the correctness oracle.

:class:`BatchedEngine` compiles a micro-batch of edges into a
structure-of-arrays :class:`~repro.core.engine.plan.BatchPlan` up front
(:mod:`repro.core.engine.plan`) and then executes each edge as a
handful of gathers and array kernels — no per-walk/per-hop Python
objects, no dict bookkeeping, and neighbour queries answered from a
:class:`~repro.graph.sampling.NeighborCandidateCache` that survives
across InsLearn's replay iterations.

Both engines route every float through the same kernels
(:mod:`repro.core.engine.kernels`), draw from the model RNG in the same
order, and gate optimiser updates on the same "did this parameter get a
gradient" conditions, which makes their results *bitwise* identical —
losses, memories, Adam moments and touched-node sets — as enforced by
``tests/core/test_engine_parity.py``.  Per-edge optimiser steps are
kept in both engines (edges in a batch share alpha/context rows, so
cross-edge fusion would change the semantics, not just the speed).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.engine import kernels
from repro.core.engine.plan import compile_plan
from repro.core.interactor import interaction_loss, interaction_loss_backward
from repro.core.propagation import propagation_loss, propagation_loss_backward
from repro.core.updater import target_embedding, target_embedding_backward
from repro.graph.sampling import NeighborCandidateCache, sample_influenced_graph_compiled
from repro.graph.streams import StreamEdge
from repro.obs.trace import NULL_TRACER

_Record = Tuple[StreamEdge, float, float]

#: Engine names accepted by ``SUPAConfig.engine``.  ``"sharded"``
#: (``repro.core.shard``) shares the batched compile step and executes
#: plans as conflict-free rounds on a worker pool.
ENGINE_NAMES = ("reference", "batched", "sharded")


class _EngineBase:
    """Shared wiring: an engine executes gradient steps for its model."""

    name = ""

    def __init__(self, model) -> None:
        self.model = model

    def train_step(
        self, u: int, v: int, edge_type: str, t: float, delta_u: float, delta_v: float
    ) -> float:
        raise NotImplementedError

    def train_batch(self, records: Sequence[_Record]) -> np.ndarray:
        """Train on each record in order; returns per-edge losses.

        Leaves the union of the batch's touched nodes (sorted tuple) on
        ``model.last_touched_nodes``.
        """
        raise NotImplementedError


class ReferenceEngine(_EngineBase):
    """The legacy per-edge object path (the correctness oracle)."""

    name = "reference"

    def train_step(
        self, u: int, v: int, edge_type: str, t: float, delta_u: float, delta_v: float
    ) -> float:
        model = self.model
        cfg = model.config
        tracer = model.tracer
        memory = model.memory
        node_type_ids = model._node_type_ids
        rel = model.schema.edge_type_id(edge_type)
        slot = memory.context_slot(rel)

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
        if cfg.use_prop and cfg.num_walks > 0:
            with tracer.span("core.engine.sample"):
                influenced = sample_influenced_graph_compiled(
                    model.graph,
                    u,
                    v,
                    rel,
                    t,
                    model._compiled_metapaths,
                    num_walks=cfg.num_walks,
                    walk_length=cfg.walk_length,
                    rng=model.rng,
                )
            with tracer.span("core.engine.propagate"):
                prop = propagation_loss(
                    memory, influenced, fwd_u.h_star, fwd_v.h_star, t, cfg
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
        if cfg.use_neg and cfg.num_negatives > 0:
            with tracer.span("core.engine.negative"):
                neg_loss = 0.0
                sides = (
                    (fwd_u, grad_h_star_u, node_type_ids[v]),
                    (fwd_v, grad_h_star_v, node_type_ids[u]),
                )
                for fwd, grad_h_star, opposite_type in sides:
                    samples = model.negatives.sample(
                        int(opposite_type), cfg.num_negatives, model.rng
                    )
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

        # --- backprop through the updater and apply ----------------------
        with tracer.span("core.engine.apply"):
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

            model.optimizer.step(long_grads, short_grads, context_grads, alpha_grads)
        num_nodes = memory.num_nodes
        touched = set(long_grads)
        touched.update(short_grads)
        touched.update(row % num_nodes for row in context_grads)
        model.last_touched_nodes = tuple(sorted(touched))
        model.last_loss_components = components
        return float(sum(components.values()))

    def train_batch(self, records: Sequence[_Record]) -> np.ndarray:
        losses = np.empty(len(records), dtype=np.float64)
        touched: set = set()
        for i, (e, du, dv) in enumerate(records):
            losses[i] = self.train_step(e.u, e.v, e.edge_type, e.t, du, dv)
            touched.update(self.model.last_touched_nodes)
        self.model.last_touched_nodes = tuple(sorted(touched))
        return losses


class BatchedEngine(_EngineBase):
    """Plan-compiled structure-of-arrays execution."""

    name = "batched"

    def __init__(self, model) -> None:
        super().__init__(model)
        #: survives across train_batch calls — InsLearn replays the same
        #: batch over a static graph, so almost every neighbour query
        #: after the first pass is a cache hit.
        self.candidate_cache = NeighborCandidateCache(model.graph)

    def train_step(
        self, u: int, v: int, edge_type: str, t: float, delta_u: float, delta_v: float
    ) -> float:
        record = (StreamEdge(u=u, v=v, edge_type=edge_type, t=t), delta_u, delta_v)
        return float(self.train_batch((record,))[0])

    def train_batch(self, records: Sequence[_Record]) -> np.ndarray:
        """Compile the micro-batch, then execute the plan edge by edge.

        With tracing enabled the two halves get their own spans
        (``core.engine.compile`` / ``core.engine.execute``), kernel
        self-times are attributed via wrapped kernels, and plan-size
        counters land in the tracer's registry; with the default no-op
        tracer the only extra work is one ``enabled`` check per batch.
        """
        model = self.model
        if not len(records):
            model.last_touched_nodes = ()
            return np.empty(0, dtype=np.float64)
        tracer = model.tracer
        if not tracer.enabled:
            plan = compile_plan(model, records, self.candidate_cache)
            # Undo-log pre-images for the whole pass in one vectorised
            # call: the plan names every row execution can write (the
            # interactive endpoints, each edge's unique context rows), so
            # InsLearn's rollback needs no hook in the per-edge loop.
            model.optimizer.save_rows(plan.uv.reshape(-1), plan.ctx_uniq_rows)
            return self._execute_plan(plan)
        with tracer.span("core.engine.compile", edges=len(records)):
            plan = compile_plan(model, records, self.candidate_cache)
        self._record_plan_metrics(plan, tracer.registry)
        with tracer.span("core.engine.execute", edges=plan.num_edges):
            model.optimizer.save_rows(plan.uv.reshape(-1), plan.ctx_uniq_rows)
            return self._execute_plan(plan, tracer)

    def _record_plan_metrics(self, plan, registry) -> None:
        """Plan-size counters + candidate-cache hit rate (traced runs)."""
        if registry is None:
            return
        registry.counter("engine.plan.edges").inc(plan.num_edges)
        registry.counter("engine.plan.walk_steps").inc(len(plan.step_rows))
        registry.counter("engine.plan.negatives").inc(len(plan.neg_rows))
        registry.counter("engine.plan.ctx_rows").inc(len(plan.ctx_uniq_rows))
        cache = self.candidate_cache
        registry.counter("graph.sampling.cache_queries").set(
            cache.hits + cache.misses
        )
        registry.gauge("graph.sampling.cache_hit_rate").set(cache.hit_rate)

    def _execute_plan(self, plan, tracer=NULL_TRACER) -> np.ndarray:
        """Execute a compiled plan edge by edge.

        The per-edge body is written inline (rather than as per-phase
        helpers) with every loop-invariant lookup hoisted to a local:
        this loop runs once per streamed edge and the Python overhead of
        attribute chains and method dispatch is a measurable fraction of
        the remaining step cost.  The arithmetic, the optimiser-update
        gating and the apply order (long, short, context, alpha) are
        exactly those of :class:`ReferenceEngine` — see the module
        docstring for why that makes the engines bitwise identical.
        """
        model = self.model
        cfg = model.config
        memory = model.memory
        optimizer = model.optimizer
        ctx_flat = optimizer._context_flat
        mem_long = memory.long
        mem_short = memory.short
        mem_alpha = memory.alpha
        update_long = optimizer.long.update_rows
        update_short = optimizer.short.update_rows
        update_context = optimizer.context.update_rows
        update_alpha = optimizer.alpha.update_rows
        target_forward = kernels.target_forward
        target_backward = kernels.target_backward
        propagation_forward_backward = kernels.propagation_forward_backward
        negative_forward_backward = kernels.negative_forward_backward
        accumulate_rows = kernels.accumulate_rows
        if tracer.enabled:
            # Attribute kernel self-times; the wrappers only exist on
            # traced runs, so the untraced loop keeps bare locals.
            target_forward = tracer.wrap("core.kernels.update", target_forward)
            target_backward = tracer.wrap("core.kernels.update", target_backward)
            propagation_forward_backward = tracer.wrap(
                "core.kernels.propagate", propagation_forward_backward
            )
            negative_forward_backward = tracer.wrap(
                "core.kernels.negative", negative_forward_backward
            )
        use_inter = cfg.use_inter
        use_prop = cfg.use_prop and cfg.num_walks > 0
        use_neg = cfg.use_neg and cfg.num_negatives > 0
        dim = cfg.dim

        uv = plan.uv
        alpha_slots = plan.alpha_slots
        deltas = plan.deltas
        inter_rows = plan.inter_rows
        step_rows = plan.step_rows
        step_sides = plan.step_sides
        step_cums = plan.step_cums
        step_bounds = plan.step_offsets.tolist()
        neg_rows = plan.neg_rows
        neg_counts = plan.neg_counts.tolist()
        neg_starts = plan.neg_offsets.tolist()
        ctx_uniq_rows = plan.ctx_uniq_rows
        ctx_inverse = plan.ctx_inverse
        uniq_bounds = plan.ctx_uniq_offsets.tolist()
        cat_bounds = plan.ctx_cat_offsets.tolist()

        num_edges = plan.num_edges
        losses = np.empty(num_edges, dtype=np.float64)
        for b in range(num_edges):
            uv_b = uv[b]
            alpha_slots_b = alpha_slots[b]
            deltas_b = deltas[b]
            short_rows = mem_short[uv_b]
            alpha_values = mem_alpha[alpha_slots_b]
            h_star, gamma, x, sig = target_forward(
                mem_long[uv_b], short_rows, alpha_values, deltas_b, cfg
            )

            grad_h = np.zeros((2, dim), dtype=np.float64)
            # Gradient rows appended in the plan's catalogue order
            # (inter pair, hops, negatives) — the matching context rows
            # and their dedup scatter are precompiled on the plan.
            ctx_grads_parts = []
            components: Dict[str, float] = {}

            # --- interaction loss (Eq. 7) -------------------------------
            if use_inter:
                r = inter_rows[b]
                inter = interaction_loss(
                    h_star[0], ctx_flat[r[0]], h_star[1], ctx_flat[r[1]]
                )
                g_hu, g_cu, g_hv, g_cv = interaction_loss_backward(inter)
                grad_h[0] += g_hu
                grad_h[1] += g_hv
                ctx_grads_parts.append(g_cu[None, :])
                ctx_grads_parts.append(g_cv[None, :])
                components["inter"] = inter.loss

            # --- propagation loss (Eq. 10) ------------------------------
            if use_prop:
                s0 = step_bounds[b]
                s1 = step_bounds[b + 1]
                if s1 > s0:
                    rows = step_rows[s0:s1]
                    prop_loss, ctx_grads, grad_sides = (
                        propagation_forward_backward(
                            ctx_flat[rows],
                            h_star,
                            step_sides[s0:s1],
                            step_cums[s0:s1],
                        )
                    )
                    grad_h += grad_sides
                    ctx_grads_parts.append(ctx_grads)
                    components["prop"] = prop_loss
                else:
                    components["prop"] = 0.0

            # --- negative sampling loss (Eq. 12) -------------------------
            if use_neg:
                neg_loss = 0.0
                n0 = neg_starts[b]
                counts = neg_counts[b]
                for side in (0, 1):
                    count = counts[side]
                    if count:
                        rows = neg_rows[n0 : n0 + count]
                        ctx = ctx_flat[rows]
                        side_loss, ctx_grads, grad_h_add = (
                            negative_forward_backward(ctx, h_star[side])
                        )
                        neg_loss += side_loss
                        grad_h[side] += grad_h_add
                        ctx_grads_parts.append(ctx_grads)
                        n0 += count
                components["neg"] = neg_loss

            # --- backprop through the updater and apply ------------------
            g_long, g_short, g_alpha = target_backward(
                grad_h, short_rows, alpha_values, gamma, x, deltas_b, cfg, sig=sig
            )
            # u != v for almost every edge, so the 2-row accumulations
            # usually need no dedup at all.
            uv_distinct = uv_b[0] != uv_b[1]
            if uv_distinct:
                update_long(uv_b, g_long)
            else:
                update_long(*accumulate_rows(uv_b, g_long))
            if g_short is not None:
                if uv_distinct:
                    update_short(uv_b, g_short)
                else:
                    update_short(*accumulate_rows(uv_b, g_short))
            if ctx_grads_parts:
                gcat = (
                    np.concatenate(ctx_grads_parts, axis=0)
                    if len(ctx_grads_parts) > 1
                    else ctx_grads_parts[0]
                )
                q0 = uniq_bounds[b]
                n_uniq = uniq_bounds[b + 1] - q0
                inv = ctx_inverse[cat_bounds[b] : cat_bounds[b + 1]]
                if n_uniq == gcat.shape[0]:
                    # All rows distinct: a pure scatter into sorted-row
                    # order, bit-preserving (Adam is per-row, so row
                    # order within one update is numerically irrelevant).
                    summed = np.empty((n_uniq, dim), dtype=np.float64)
                    summed[inv] = gcat
                else:
                    # Duplicates: same zeros + np.add.at accumulation as
                    # kernels.accumulate_rows, with the inverse read off
                    # the plan instead of a per-edge np.unique.
                    summed = np.zeros((n_uniq, dim), dtype=np.float64)
                    np.add.at(summed, inv, gcat)
                update_context(ctx_uniq_rows[q0 : q0 + n_uniq], summed)
            if g_alpha is not None:
                if alpha_slots_b[0] != alpha_slots_b[1]:
                    update_alpha(alpha_slots_b, g_alpha[:, None])
                else:
                    update_alpha(*accumulate_rows(alpha_slots_b, g_alpha[:, None]))
            model.last_loss_components = components
            losses[b] = sum(components.values())

        all_nodes = np.concatenate(
            (plan.uv.reshape(-1), plan.step_nodes, plan.neg_nodes)
        )
        model.last_touched_nodes = tuple(int(n) for n in np.unique(all_nodes))
        return losses


def make_engine(name: str, model) -> _EngineBase:
    """Instantiate the engine selected by ``SUPAConfig.engine``."""
    if name == "batched":
        return BatchedEngine(model)
    if name == "reference":
        return ReferenceEngine(model)
    if name == "sharded":
        # Imported lazily: the shard executor subclasses BatchedEngine,
        # so a top-level import would be circular.
        from repro.core.shard.executor import ShardedEngine

        return ShardedEngine(model)
    raise ValueError(f"unknown engine {name!r}; expected one of {ENGINE_NAMES}")
