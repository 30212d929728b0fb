"""The execution engine behind ``SUPA.train_step`` / ``train_batch``.

A micro-batch is partitioned into conflict-free *rounds* — edges with
pairwise-disjoint endpoints
(:func:`repro.core.engine.schedule.partition_round_indices`).  Rounds
run in order; within a round every edge's gradients are taken against
round-start memory and applied at the round barrier, in edge order on
the rows several of its edges share.  A single streamed edge is a round
of one, so ``train_step`` is plain per-edge SGD (DESIGN.md §9).

:class:`BatchedEngine` is the engine every model is built with: it
compiles the micro-batch into a round-major
:class:`~repro.core.engine.plan.BatchPlan` (all sampling up front,
:mod:`repro.core.engine.plan`) and executes each round, a contiguous
slice of it, as a handful of fused ``[round, dim]`` kernels — Python
dispatch is paid per round, not per edge.  Every float goes through the
kernels (:mod:`repro.core.engine.kernels`), and a pass's randomness
comes from :func:`~repro.core.engine.plan.draw_pass`.

Its specification is the per-edge oracle in ``tests/oracle/engine.py``:
the same semantics with Python objects for walks and hops, dict
gradient accumulation and one optimiser step per edge.
``tests/core/test_engine_parity.py`` holds the two bitwise identical —
losses, memories, Adam moments, touched-node sets and RNG state.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.engine import kernels
from repro.core.engine.plan import compile_plan
from repro.graph.streams import StreamEdge

_Record = Tuple[StreamEdge, float, float]


class BatchedEngine:
    """Plan-compiled, round-stacked execution (the production engine).

    It holds no model — the model holds its engine, and a back-reference
    would make every model a reference cycle — so every entry point
    takes the model it trains.  ``train_batch`` returns per-edge losses
    and leaves the union of the batch's touched nodes (sorted tuple) on
    ``model.last_touched_nodes`` and the last record's loss terms on
    ``model.last_loss_components``.
    """

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
        """Compile the micro-batch, then execute the plan round by round.

        The two halves get their own spans (``core.engine.compile`` /
        ``core.engine.execute``); with the default no-op tracer a span
        is one shared do-nothing context manager per batch.
        """
        if not len(records):
            model.last_touched_nodes = ()
            model.last_loss_components = {}
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
        registry.counter("engine.plan.walk_steps").inc(plan.num_walk_steps)
        registry.counter("engine.plan.negatives").inc(plan.num_negatives)
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

        Each round is one pass of fused kernels over its ``k`` edges'
        ``(2k, dim)`` endpoint rows and its gradient stack's context rows
        (each gathered from round-start memory in one call): Eq. 5
        forward, Eq. 7 over the pairs, one draw kernel over the round's
        hops and negatives, the per-side gradient sums, Eq. 5 backward.
        Then the barrier, whose rows and calls the plan laid out: long,
        short and context rows share one table, so the round's long rows
        (endpoint-disjoint, so unique up to self-loops), its short rows
        (at ``+N``) and its rank-0 context rows (at ``+2N``) take **one**
        optimiser call; a context row several edges of the round share
        takes its later occurrences in occurrence-rank sweeps after it,
        one call per rank over a contiguous slice (Adam is per-row, so a
        row's updates land in edge order either way), and the alpha
        slots one in-order chain of scalar steps (nearly every edge
        shares them, so each step needs the moments the previous edge
        left).  The arithmetic, the optimiser-update gating and the
        per-row update order are exactly those of the per-edge oracle
        (``tests/oracle/engine.py``).
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
        dim = cfg.dim
        table = memory.table
        ctx_flat = table[memory.context_offset :]
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
        interaction_rows = wrap("core.kernels.update", kernels.interaction_rows)
        context_draw_rows = wrap("core.kernels.draw", kernels.context_draw_rows)
        update_rows = wrap("core.engine.apply", optimizer.table.update_rows)
        update_alpha = wrap("core.engine.apply", optimizer.alpha.update_chain)
        use_inter = cfg.use_inter
        use_prop = cfg.use_prop and cfg.num_walks > 0
        use_neg = cfg.use_neg and cfg.num_negatives > 0
        end_n = 2 if cfg.use_short_term else 1
        edge_bounds = plan.edge_bounds.tolist()
        stack_bounds = plan.stack_bounds.tolist()
        draw_bounds = plan.draw_bounds.tolist()
        ctx_bounds = plan.ctx_bounds.tolist()
        later_bounds = plan.ctx_later_bounds.tolist()
        cuts = plan.barrier_cuts.tolist()
        round_cuts = plan.round_cuts.tolist()
        has_self_loop = plan.has_self_loop.tolist()
        alpha_pair = plan.alpha_pair.tolist()
        draw_width = plan.draw_width

        # Loss terms in plan order: Eq. 7 per edge, the draws' per round.
        inter_losses = []
        draw_terms = []
        adam_calls = 0

        for r in range(plan.num_rounds):
            e0 = edge_bounds[r]
            e1 = edge_bounds[r + 1]
            n2 = 2 * (e1 - e0)
            ends = slice(2 * e0, 2 * e1)
            c0 = round_cuts[r]
            c1 = round_cuts[r + 1]
            b0 = cuts[c0]
            rows = plan.barrier_rows[b0 : cuts[c1]]
            # The round's barrier gradients, written in place: g_long
            # (``grad_h``), g_short, then the summed catalogue rows.
            grads = np.empty((rows.size, dim), dtype=np.float64)
            grad_h = grads[:n2]
            endpoint_rows = table.take(rows[: end_n * n2], axis=0)
            short_rows = endpoint_rows[n2:]  # empty (and unread) without h^S
            alpha_slots = plan.alpha_slots[ends]
            alpha_values = mem_alpha.take(alpha_slots)
            deltas = plan.deltas[ends]
            h_star, gamma, x, sig, log_term = target_forward(
                endpoint_rows[:n2], short_rows, alpha_values, deltas, cfg
            )
            context = ctx_flat.take(
                plan.stack_rows[stack_bounds[r] : stack_bounds[r + 1]], axis=0
            )
            # Context gradients in stack order: interaction pair rows,
            # then the draws' rows.
            stack_parts = []

            # --- interaction loss (Eq. 7) -------------------------------
            inter_n = 0
            if use_inter:
                inter_n = n2
                loss, grad = interaction_rows(h_star, context[:n2])
                inter_losses.append(loss)
                np.add(0.0, grad, out=grad_h)
                stack_parts.append(grad)
            else:
                grad_h.fill(0.0)

            # --- propagation (Eq. 10) and negative (Eq. 12) draws ---------
            d0 = draw_bounds[r]
            d1 = draw_bounds[r + 1]
            if d1 > d0:
                terms, ctx_grads, source_grads = context_draw_rows(
                    context[inter_n:],
                    h_star.take(plan.draw_source[d0:d1], axis=0),
                    plan.draw_factors[d0:d1],
                    plan.draw_labels[d0:d1],
                    plan.draw_signs[d0:d1],
                )
                draw_terms.append(terms)
                sums = padded_segment_sums(
                    source_grads, plan.draw_slots[d0:d1], 2 * n2, draw_width
                )
                grad_h += sums[:n2]  # hops
                grad_h += sums[n2:]  # negatives
                stack_parts.append(ctx_grads)

            # --- backprop through the updater ---------------------------
            _, g_short, g_alpha = target_backward(
                grad_h,
                short_rows,
                alpha_values,
                gamma,
                x,
                deltas,
                cfg,
                sig=sig,
                log_term=log_term,
            )
            if g_short is not None:
                grads[n2 : 2 * n2] = g_short

            # --- round barrier: apply ------------------------------------
            if stack_parts:
                stack = (
                    np.concatenate(stack_parts, axis=0)
                    if len(stack_parts) > 1
                    else stack_parts[0]
                )
                # Each catalogue row starts from its first contribution
                # and adds the rest in stack order — dict accumulation.
                stack.take(
                    plan.ctx_first[ctx_bounds[r] : ctx_bounds[r + 1]],
                    axis=0,
                    out=grads[end_n * n2 :],
                )
                l0 = later_bounds[r]
                l1 = later_bounds[r + 1]
                if l1 > l0:
                    np.add.at(
                        grads,
                        plan.ctx_later_dest[l0:l1],
                        stack.take(plan.ctx_later_sel[l0:l1], axis=0),
                    )
            for c in range(c0, c1):
                lo = cuts[c] - b0
                hi = cuts[c + 1] - b0
                if c == c0 and has_self_loop[r]:
                    # a self-loop's two endpoint rows collapse to one
                    split = end_n * n2
                    loop_rows, loop_grads = accumulate_rows(rows[:split], grads[:split])
                    update_rows(
                        np.concatenate((loop_rows, rows[split:hi])),
                        np.concatenate((loop_grads, grads[split:hi])),
                    )
                else:
                    update_rows(rows[lo:hi], grads[lo:hi])
            adam_calls += c1 - c0
            if g_alpha is not None:
                if alpha_pair[r]:
                    update_alpha(*_alpha_steps(alpha_slots, g_alpha))
                else:
                    update_alpha(alpha_slots, g_alpha)

        # Per-edge totals in the per-edge summation order (inter + prop
        # + neg, u-side negatives before v-side), back in plan order.
        # One in-order ``np.add.at`` for the pass's draws: hop terms per
        # edge at ``[0, B)``, negative terms per (edge, side) after.
        num_edges = plan.num_edges
        draw_loss = np.zeros(3 * num_edges, dtype=np.float64)
        if draw_terms:
            np.add.at(draw_loss, plan.draw_owner, np.concatenate(draw_terms))
        components = {}
        if use_inter:
            components["inter"] = np.concatenate(inter_losses)
        if use_prop:
            components["prop"] = draw_loss[:num_edges]
        if use_neg:
            neg_side_loss = draw_loss[num_edges:]
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
    pair_grads = grads.reshape(-1, 2).copy()
    pair_grads[same, 0] = 0.0 + pair_grads[same, 0] + pair_grads[same, 1]
    keep = np.ones(pair_slots.shape, dtype=bool)
    keep[same, 1] = False
    return pair_slots[keep], pair_grads[keep]
