"""Micro-batch plan compilation: stream edges → structure-of-arrays.

A :class:`BatchPlan` is everything the batched executor needs to run a
micro-batch of edges without touching a Python object per walk or hop:
flat int arrays of node ids, context rows, sides and propagation
weights, CSR-partitioned per edge by offset arrays.

Compilation performs every stochastic decision (walk sampling, negative
draws) up front, in *exactly* the RNG draw order of the per-edge
reference path — see the RNG-order contract on
:func:`repro.graph.sampling.sample_walk_plan`.  That is sound because
the training loop (InsLearn's replay passes, Algorithm 1) inserts a
batch's edges into the graph *before* replaying them, so the graph and
the negative-sampler tables are static while a plan is compiled and
executed; the only state that changes between edges is the node memory,
which no sampling decision reads.

The propagation weighting (Eq. 8-9 edge factors, running products,
termination) is also folded in at compile time: hops cut off by an
out-of-date edge are dropped from the plan entirely, so the executor
only ever sees surviving ``<node, rel, cum_factor, side>`` tuples.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.engine import kernels
from repro.graph.sampling import NeighborCandidateCache, sample_walks_into
from repro.graph.streams import StreamEdge

_Record = Tuple[StreamEdge, float, float]


class BatchPlan(NamedTuple):
    """Structure-of-arrays execution plan for one edge micro-batch.

    Per-edge arrays (``B`` edges):

    - ``uv``: ``(B, 2)`` interactive node ids,
    - ``deltas``: ``(B, 2)`` active intervals ``Delta_V``,
    - ``alpha_slots``: ``(B, 2)`` forgetting-parameter slots,
    - ``inter_rows``: ``(B, 2)`` flat context rows of ``(slot, u/v)``.

    Propagation hops (``S`` surviving hops over all edges, CSR by
    ``step_offsets``): ``step_rows`` (flat context rows), ``step_nodes``,
    ``step_sides`` (0 = flow from ``u``), ``step_cums`` (Eq. 8-9
    cumulative factors).

    Negative samples (``M`` draws over all edges, CSR by
    ``neg_offsets``): ``neg_rows`` (flat context rows), ``neg_nodes``,
    ``neg_counts`` — ``(B, 2)`` draws per side, u-side first within each
    edge's slice.

    Context-update catalogue: every edge updates the context rows it
    scored (inter pair, surviving hops, negatives — in that order, the
    executor's gradient-append order).  The deduplication those updates
    need is known at compile time, so it is done here once for the whole
    batch: ``ctx_uniq_rows`` holds each edge's unique context rows
    (sorted, CSR by ``ctx_uniq_offsets``) and ``ctx_inverse`` maps each
    of the edge's gradient rows to its position in that unique block
    (CSR by ``ctx_cat_offsets``), exactly as ``np.unique(...,
    return_inverse=True)`` would per edge.
    """

    uv: np.ndarray
    deltas: np.ndarray
    alpha_slots: np.ndarray
    inter_rows: np.ndarray
    step_rows: np.ndarray
    step_nodes: np.ndarray
    step_sides: np.ndarray
    step_cums: np.ndarray
    step_offsets: np.ndarray
    neg_rows: np.ndarray
    neg_nodes: np.ndarray
    neg_counts: np.ndarray
    neg_offsets: np.ndarray
    ctx_uniq_rows: np.ndarray
    ctx_uniq_offsets: np.ndarray
    ctx_inverse: np.ndarray
    ctx_cat_offsets: np.ndarray

    @property
    def num_edges(self) -> int:
        return self.uv.shape[0]


def compile_plan(
    model, records: Sequence[_Record], cache: NeighborCandidateCache
) -> BatchPlan:
    """Compile ``records`` (edge + pre-insertion ``Delta_V`` pair) into a
    :class:`BatchPlan` against ``model``'s current graph state."""
    cfg = model.config
    memory = model.memory
    schema = model.schema
    graph = model.graph
    node_type_ids = model._node_type_ids
    num_nodes = memory.num_nodes
    rng = model.rng
    sample_walks = cfg.use_prop and cfg.num_walks > 0
    sample_negatives = cfg.use_neg and cfg.num_negatives > 0

    batch = len(records)
    uv = np.empty((batch, 2), dtype=np.int64)
    deltas = np.empty((batch, 2), dtype=np.float64)
    edge_ts = np.empty(batch, dtype=np.float64)
    edge_slots = np.empty(batch, dtype=np.int64)
    slot_of: dict = {}
    compiled_metapaths = model._compiled_metapaths
    num_walks = cfg.num_walks
    walk_length = cfg.walk_length
    num_negatives = cfg.num_negatives
    negatives_sample = model.negatives.sample

    # Batch-level flat walk lists: :func:`sample_walks_into` appends
    # every edge's hops here with *global* offsets, so the whole batch
    # becomes one CSR structure with a single list→array conversion
    # below — no per-edge arrays and no concatenate/offset-shift pass.
    hop_counts = np.zeros(batch, dtype=np.int64)
    nodes_l: List[int] = []
    rels_l: List[int] = []
    times_l: List[float] = []
    offsets_l: List[int] = [0]
    sides_l: List[int] = []
    neg_rows: List[np.ndarray] = []
    neg_nodes: List[np.ndarray] = []
    neg_counts = np.zeros((batch, 2), dtype=np.int64)
    neg_offsets = np.zeros(batch + 1, dtype=np.int64)

    # One span over the whole sequential sampling sweep — the RNG-order
    # contract forbids reordering it, so the span just prices it.
    with model.tracer.span("core.plan.sample", edges=batch):
        for b, (edge, delta_u, delta_v) in enumerate(records):
            u, v, t = edge.u, edge.v, edge.t
            uv[b, 0] = u
            uv[b, 1] = v
            deltas[b, 0] = delta_u
            deltas[b, 1] = delta_v
            edge_ts[b] = t
            slot = slot_of.get(edge.edge_type)
            if slot is None:
                slot = memory.context_slot(schema.edge_type_id(edge.edge_type))
                slot_of[edge.edge_type] = slot
            edge_slots[b] = slot

            if sample_walks:
                hop_counts[b] = sample_walks_into(
                    graph,
                    u,
                    v,
                    compiled_metapaths,
                    num_walks,
                    walk_length,
                    rng,
                    cache,
                    nodes_l,
                    rels_l,
                    times_l,
                    offsets_l,
                    sides_l,
                )

            neg_offsets[b + 1] = neg_offsets[b]
            if sample_negatives:
                # u-side negatives impersonate v's type and vice versa,
                # drawn u-side first — the reference draw order.
                for side, opposite in ((0, node_type_ids[v]), (1, node_type_ids[u])):
                    samples = negatives_sample(opposite, num_negatives, rng)
                    if samples.size:
                        neg_rows.append(slot * num_nodes + samples)
                        neg_nodes.append(samples)
                        neg_counts[b, side] = samples.size
                        neg_offsets[b + 1] += samples.size

    # Eq. 8-9 weighting for the whole batch in one kernel sweep: the
    # cumulative-factor kernel is walk-independent, so running it over
    # the batch-level CSR arrays changes nothing numerically and
    # replaces O(batch) small kernel calls with O(1) large ones.
    step_offsets = np.zeros(batch + 1, dtype=np.int64)
    if nodes_l:
        nodes_all = np.asarray(nodes_l, dtype=np.int64)
        rels_all = np.asarray(rels_l, dtype=np.int64)
        times_all = np.asarray(times_l, dtype=np.float64)
        offsets_all = np.asarray(offsets_l, dtype=np.int64)
        sides_all = np.asarray(sides_l, dtype=np.int64)
        now_per_hop = np.repeat(edge_ts, hop_counts)
        factors = kernels.edge_factors(now_per_hop - times_all, cfg)
        cums, keep = kernels.walk_cumulative_factors(factors, offsets_all)
        hop_sides = np.repeat(sides_all, np.diff(offsets_all))
        hop_edges = np.repeat(np.arange(batch, dtype=np.int64), hop_counts)
        step_nodes_arr = nodes_all[keep]
        step_slots = memory.context_slots(rels_all[keep])
        step_rows_arr = step_slots * num_nodes + step_nodes_arr
        step_sides_arr = hop_sides[keep]
        step_cums_arr = cums[keep]
        kept_per_edge = np.bincount(hop_edges[keep], minlength=batch)
        np.cumsum(kept_per_edge, out=step_offsets[1:])
    else:
        step_nodes_arr = np.empty(0, dtype=np.int64)
        step_rows_arr = np.empty(0, dtype=np.int64)
        step_sides_arr = np.empty(0, dtype=np.int64)
        step_cums_arr = np.empty(0, dtype=np.float64)

    inter_rows = edge_slots[:, None] * num_nodes + uv
    alpha_slots = memory.alpha_slots(node_type_ids[uv.reshape(-1)]).reshape(batch, 2)

    def _concat(parts: List[np.ndarray], dtype) -> np.ndarray:
        if not parts:
            return np.empty(0, dtype=dtype)
        return np.concatenate(parts)

    neg_rows_all = _concat(neg_rows, np.int64)

    # Context-update catalogue: concatenate each edge's context rows in
    # the executor's gradient-append order (inter pair, surviving hops,
    # negatives), then deduplicate all edges at once with ONE
    # ``np.unique`` over ``edge_id * span + row`` composite keys.  Edge
    # blocks are key-disjoint, so the global sort is a per-edge sort and
    # the unique/inverse of each block equal what a per-edge
    # ``np.unique(rows, return_inverse=True)`` would return — one
    # O(total log total) sort instead of B small ones on the hot path.
    inter_n = 2 if cfg.use_inter else 0
    step_counts = np.diff(step_offsets)
    neg_per_edge = np.diff(neg_offsets)
    cat_counts = step_counts + neg_per_edge + inter_n
    ctx_cat_offsets = np.zeros(batch + 1, dtype=np.int64)
    np.cumsum(cat_counts, out=ctx_cat_offsets[1:])
    cat_starts = ctx_cat_offsets[:-1]
    cat_rows = np.empty(int(ctx_cat_offsets[-1]), dtype=np.int64)
    if inter_n:
        cat_rows[cat_starts] = inter_rows[:, 0]
        cat_rows[cat_starts + 1] = inter_rows[:, 1]
    if step_rows_arr.size:
        dest = np.repeat(
            cat_starts + inter_n - step_offsets[:-1], step_counts
        ) + np.arange(step_rows_arr.size, dtype=np.int64)
        cat_rows[dest] = step_rows_arr
    if neg_rows_all.size:
        dest = np.repeat(
            cat_starts + inter_n + step_counts - neg_offsets[:-1], neg_per_edge
        ) + np.arange(neg_rows_all.size, dtype=np.int64)
        cat_rows[dest] = neg_rows_all
    span = np.int64(memory.num_context_slots) * num_nodes
    edge_ids = np.repeat(np.arange(batch, dtype=np.int64), cat_counts)
    uniq_keys, inverse = np.unique(edge_ids * span + cat_rows, return_inverse=True)
    ctx_uniq_offsets = np.zeros(batch + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(uniq_keys // span, minlength=batch), out=ctx_uniq_offsets[1:]
    )
    ctx_inverse = inverse - np.repeat(ctx_uniq_offsets[:-1], cat_counts)

    return BatchPlan(
        uv=uv,
        deltas=deltas,
        alpha_slots=alpha_slots,
        inter_rows=inter_rows,
        step_rows=step_rows_arr,
        step_nodes=step_nodes_arr,
        step_sides=step_sides_arr,
        step_cums=step_cums_arr,
        step_offsets=step_offsets,
        neg_rows=neg_rows_all,
        neg_nodes=_concat(neg_nodes, np.int64),
        neg_counts=neg_counts,
        neg_offsets=neg_offsets,
        ctx_uniq_rows=uniq_keys % span,
        ctx_uniq_offsets=ctx_uniq_offsets,
        ctx_inverse=ctx_inverse,
        ctx_cat_offsets=ctx_cat_offsets,
    )
