"""Micro-batch plan compilation: stream edges → round-major arrays.

A :class:`BatchPlan` is everything the executor needs to run a
micro-batch of edges without touching a Python object per walk or hop,
laid out *round-major*: the batch is partitioned into conflict-free
rounds (:func:`repro.core.engine.schedule.partition_round_indices`) and
every per-edge, per-hop, per-negative and per-context-row array is
ordered so that a round is a contiguous slice.  Everything a round
needs beyond slicing — where each draw's source embedding sits in the
round's stack, where each context gradient and loss term accumulates,
which table rows each optimiser call of the round barrier writes — is
precomputed as index arrays.

Compilation performs every stochastic decision up front, from the two
draws :func:`draw_pass` makes for the whole pass (the per-pass draw
contract, DESIGN.md §9 rule 2), which the per-edge oracle makes too.
That is sound because
the training loop (InsLearn's replay passes, Algorithm 1) inserts a
batch's edges into the graph *before* replaying them, so the graph and
the negative-sampler tables are static while a plan is compiled and
executed; the only state that changes between edges is the node memory,
which no sampling decision reads.

The propagation weighting (Eq. 8-9 edge factors, running products,
termination) is also folded in at compile time: hops cut off by an
out-of-date edge are dropped from the plan entirely, so the executor
only ever sees surviving ``<row, cum_factor, side>`` tuples.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import kernels
from repro.core.engine.schedule import partition_round_indices
from repro.graph.sampling import sample_pass_walks
from repro.graph.streams import StreamEdge

_Record = Tuple[StreamEdge, float, float]


class BatchPlan(NamedTuple):
    """Round-major execution plan for one edge micro-batch (``R`` rounds).

    Round ``r`` owns the slices ``[bounds[r], bounds[r + 1])`` of the
    arrays its ``*_bounds`` index.  *Local* indices count from the start
    of the round's own slice or stack; a round of ``k`` edges has a
    ``(2k, dim)`` endpoint stack (``u`` then ``v`` per edge).

    Edges (``B``; endpoint arrays are flat ``(2B,)``, ``u`` then ``v``):

    - ``edges``: stream index of the edge at each position, ascending
      within a round (the greedy partition appends in stream order);
      ``edge_bounds``,
    - ``nodes`` / ``deltas`` / ``alpha_slots``: node ids, active
      intervals ``Delta_V`` and forgetting-parameter slots,
    - ``has_self_loop``: ``(R,)`` — some edge of the round has
      ``u == v``, so its endpoint rows are not all distinct;
      ``alpha_pair``: ``(R,)`` — some edge has both endpoints on one
      alpha slot, so the pair takes one alpha step.

    Draws — the round's surviving Eq. 10 hops, then its Eq. 12 negative
    draws, each in stream order within an edge, u-side first
    (``draw_bounds``):

    - ``draw_source``: local row of the source embedding in the endpoint
      stack; ``draw_factors`` / ``draw_labels`` / ``draw_signs``: the
      Eq. 8-9 factor, 1 and +1 for a hop, 1, 0 and -1 for a negative
      (:func:`~repro.core.engine.kernels.context_draw_rows`),
    - ``draw_owner``: where the loss term accumulates, the edge position
      for a hop and ``B +`` the flat endpoint position for a negative,
    - ``draw_slots`` / ``draw_width``: ``position * 4k + segment`` for
      :func:`~repro.core.engine.kernels.padded_segment_sums`, with the
      hop segments of the endpoint stack at ``[0, 2k)`` and the negative
      ones at ``[2k, 4k)``.

    Gradient stack — per round ``[interaction pair rows (when Eq. 7 is
    on) | draw rows]`` as flat context rows (``stack_rows`` /
    ``stack_bounds``), gathered in one call.

    Context catalogue — each edge's unique context rows, per round
    ordered by occurrence rank (``ctx_rank``: 0 for a row's first block
    among the round's edges, 1 for its second, ...; all of rank 0 first,
    then rank 1, ..., edge order within a rank):

    - ``ctx_rows`` / ``ctx_bounds``,
    - ``ctx_first``: per catalogue row, the local stack index of its
      first contribution; ``ctx_later_sel`` → ``ctx_later_dest`` (CSR by
      ``ctx_later_bounds``): the remaining contributions in stack order,
      as local stack index → local barrier row,
    - ``contended_ctx_rows``: how many catalogue rows share their value
      with another block of the same round.

    Barrier — the table rows a round's optimiser calls write,
    ``[nodes | nodes + N (with h^S) | 2N + ctx_rows]`` per round
    (``barrier_rows``); call ``i`` takes ``[barrier_cuts[i],
    barrier_cuts[i + 1])``, and round ``r`` makes calls ``round_cuts[r]
    .. round_cuts[r + 1] - 1``: first the endpoints and the rank-0 rows,
    then one occurrence-rank sweep per higher rank.
    """

    edges: np.ndarray
    edge_bounds: np.ndarray
    nodes: np.ndarray
    deltas: np.ndarray
    alpha_slots: np.ndarray
    has_self_loop: np.ndarray
    alpha_pair: np.ndarray
    stack_rows: np.ndarray
    stack_bounds: np.ndarray
    draw_bounds: np.ndarray
    draw_source: np.ndarray
    draw_factors: np.ndarray
    draw_labels: np.ndarray
    draw_signs: np.ndarray
    draw_owner: np.ndarray
    draw_slots: np.ndarray
    draw_width: int
    ctx_rows: np.ndarray
    ctx_bounds: np.ndarray
    ctx_rank: np.ndarray
    ctx_first: np.ndarray
    ctx_later_bounds: np.ndarray
    ctx_later_sel: np.ndarray
    ctx_later_dest: np.ndarray
    barrier_rows: np.ndarray
    barrier_cuts: np.ndarray
    round_cuts: np.ndarray
    contended_ctx_rows: int

    @property
    def num_edges(self) -> int:
        return int(self.edges.size)

    @property
    def num_rounds(self) -> int:
        return int(self.edge_bounds.size) - 1

    @property
    def num_walk_steps(self) -> int:
        """Surviving hops (Eq. 10 draws)."""
        return int(np.count_nonzero(self.draw_owner < self.num_edges))

    @property
    def num_negatives(self) -> int:
        """Negative draws (Eq. 12)."""
        return int(self.draw_owner.size) - self.num_walk_steps


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR boundary array of consecutive segments of ``counts`` rows."""
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _csr_gather(offsets: np.ndarray, order: np.ndarray):
    """Concatenate the CSR slices ``offsets`` delimits in ``order``.

    Returns ``(flat, new_offsets)``: ``flat`` indexes the CSR's flat
    arrays, ``new_offsets`` is the ``(len(order) + 1,)`` boundary array
    of the concatenation.
    """
    counts = np.diff(offsets)[order]
    new_offsets = _offsets(counts)
    flat = np.repeat(offsets[order] - new_offsets[:-1], counts) + np.arange(
        int(new_offsets[-1]), dtype=np.int64
    )
    return flat, new_offsets


def _run_positions(keys: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal consecutive keys."""
    index = np.arange(keys.size, dtype=np.int64)
    starts = np.zeros(keys.size, dtype=np.int64)
    starts[1:] = np.where(keys[1:] != keys[:-1], index[1:], 0)
    return index - np.maximum.accumulate(starts)


def _segment_slots(keys: np.ndarray, segment: np.ndarray, segments: np.ndarray):
    """``(slots, width)`` placing each row at ``position * segments +
    segment``, its position counted within its run of equal ``keys``
    (equal keys must be contiguous)."""
    if keys.size == 0:
        return np.empty(0, dtype=np.int64), 0
    position = _run_positions(keys)
    return position * segments + segment, int(position.max()) + 1


class PassDraws(NamedTuple):
    """Every random number one training pass over ``B`` edges uses."""

    #: ``(B, 2, k, l)`` walk uniforms (edge, side, walk, slot); ``None``
    #: when walks are off
    walks: Optional[np.ndarray]
    #: every negative, in ``(edge, side)`` stream order, u-side first
    negatives: np.ndarray
    #: ``(2B + 1,)`` CSR boundaries of ``negatives`` per ``(edge, side)``
    neg_offsets: np.ndarray


def draw_pass(model, uv: np.ndarray) -> PassDraws:
    """The per-pass draw contract (DESIGN.md §9 rule 2) for the batch's
    ``(B, 2)`` endpoints, shared by both engines.

    At most two kinds of call on ``model.rng``, in this order: one
    ``rng.random((B, 2, k, l))`` when walks are on (drawn whole whatever
    the graph holds), then one :meth:`NegativeSampler.sample` of
    ``slots * N_neg`` per distinct opposite node type, ascending, when
    negatives are on.  A u-side slot wants v's type and vice versa; a
    type's samples go to its slots in stream order, ``N_neg`` each, and a
    type with no table leaves its slots empty.  RNG consumption therefore
    depends only on the batch's size and node types.
    """
    cfg = model.config
    rng = model.rng
    batch = uv.shape[0]
    walks = None
    if cfg.use_prop and cfg.num_walks > 0:
        walks = rng.random((batch, 2, cfg.num_walks, cfg.walk_length))
    counts = np.zeros(2 * batch, dtype=np.int64)
    drawn = []
    per_slot = cfg.num_negatives
    if cfg.use_neg and per_slot > 0:
        opposite = model._node_type_ids[uv[:, ::-1]].reshape(-1)
        for type_id in np.unique(opposite).tolist():
            slots = np.flatnonzero(opposite == type_id)
            samples = model.negatives.sample(type_id, slots.size * per_slot, rng)
            if samples.size:
                counts[slots] = per_slot
                drawn.append((slots, samples))
    offsets = _offsets(counts)
    negatives = np.empty(int(offsets[-1]), dtype=np.int64)
    for slots, samples in drawn:
        at = offsets[slots][:, None] + np.arange(per_slot, dtype=np.int64)
        negatives[at.reshape(-1)] = samples
    return PassDraws(walks, negatives, offsets)


def compile_plan(model, records: Sequence[_Record]) -> BatchPlan:
    """Compile ``records`` (edge + pre-insertion ``Delta_V`` pair) into a
    :class:`BatchPlan` against ``model``'s current graph state: draw the
    pass, advance all its walks a hop level at a time
    (:func:`~repro.graph.sampling.sample_pass_walks`, hops back in stream
    order), weight the hops, partition into rounds,
    gather everything round-major, deduplicate the context rows."""
    cfg = model.config
    memory = model.memory
    schema = model.schema
    graph = model.graph
    node_type_ids = model._node_type_ids
    num_nodes = memory.num_nodes

    batch = len(records)
    edges_l = [edge for edge, _, _ in records]
    uv = np.asarray([(e.u, e.v) for e in edges_l], dtype=np.int64).reshape(batch, 2)
    deltas = np.asarray(
        [(du, dv) for _, du, dv in records], dtype=np.float64
    ).reshape(batch, 2)
    edge_ts = np.asarray([e.t for e in edges_l], dtype=np.float64)
    slot_of = {
        name: memory.context_slot(schema.edge_type_id(name))
        for name in {e.edge_type for e in edges_l}
    }
    edge_slots = np.asarray([slot_of[e.edge_type] for e in edges_l], dtype=np.int64)

    # One span over the pass's draws and its level-synchronous walks.
    with model.tracer.span("core.plan.sample", edges=batch):
        draws = draw_pass(model, uv)
        walks = sample_pass_walks(
            graph, uv, node_type_ids[uv], model._compiled_metapaths, draws.walks
        )
    neg_counts = np.diff(draws.neg_offsets).reshape(batch, 2)

    # Eq. 8-9 weighting for the whole batch in one kernel sweep: the
    # cumulative-factor kernel is walk-independent, so running it over
    # the batch-level CSR arrays changes nothing numerically and
    # replaces O(batch) small kernel calls with O(1) large ones.
    edge_pos = np.arange(batch, dtype=np.int64)
    hop_edge = np.repeat(edge_pos, walks.hop_counts)
    factors = kernels.edge_factors(edge_ts[hop_edge] - walks.times, cfg)
    cums, keep = kernels.walk_cumulative_factors(factors, walks.offsets)
    kept = np.flatnonzero(keep)
    hop_sides = np.repeat(walks.sides, np.diff(walks.offsets))
    kept_per_edge = np.bincount(hop_edge[kept], minlength=batch)

    with model.tracer.span("core.engine.schedule", edges=batch):
        # --- partition: conflict-free rounds; from here on every array
        # (``uv`` and ``edge_slots`` included) is round-major -------------
        rounds = partition_round_indices(uv)
        num_rounds = len(rounds)
        edge_bounds = _offsets(np.asarray([len(r) for r in rounds], dtype=np.int64))
        edges = np.asarray([b for r in rounds for b in r], dtype=np.int64)
        round_sizes = np.diff(edge_bounds)
        round_of_edge = np.repeat(np.arange(num_rounds, dtype=np.int64), round_sizes)
        uv = uv[edges]
        edge_slots = edge_slots[edges]
        nodes = uv.reshape(-1)
        node_round = np.repeat(round_of_edge, 2)
        inter_rows = (edge_slots[:, None] * num_nodes + uv).reshape(-1)
        has_self_loop = np.zeros(num_rounds, dtype=bool)
        has_self_loop[round_of_edge[uv[:, 0] == uv[:, 1]]] = True
        alpha_slots = memory.alpha_slots(node_type_ids[nodes])
        alpha_pair = np.zeros(num_rounds, dtype=bool)
        alpha_pair[round_of_edge[alpha_slots[0::2] == alpha_slots[1::2]]] = True

        # --- hops: each source embedding's (edge, side) is one segment --
        step_flat, step_offsets = _csr_gather(_offsets(kept_per_edge), edges)
        step_flat = kept[step_flat]
        step_edge = np.repeat(edge_pos, np.diff(step_offsets))
        step_round = round_of_edge[step_edge]
        step_bounds = step_offsets[edge_bounds]
        step_rows = (
            memory.context_slots(walks.rels[step_flat]) * num_nodes
            + walks.nodes[step_flat]
        )
        step_endpoint = 2 * step_edge + hop_sides[step_flat]

        # --- negatives: u-side draws first within each edge -------------
        neg_flat, neg_offsets = _csr_gather(_offsets(neg_counts.sum(axis=1)), edges)
        neg_owner = np.repeat(
            np.arange(2 * batch, dtype=np.int64), neg_counts[edges].reshape(-1)
        )
        neg_edge = neg_owner // 2
        neg_round = round_of_edge[neg_edge]
        neg_bounds = neg_offsets[edge_bounds]
        neg_rows = edge_slots[neg_edge] * num_nodes + draws.negatives[neg_flat]

        # --- draws: each round's hops, then its negatives ----------------
        # ``order`` maps a draw position to its index in [hops | negatives]
        draw_bounds = step_bounds + neg_bounds
        num_hops = step_flat.size
        hop_ids = np.arange(num_hops, dtype=np.int64)
        neg_ids = np.arange(neg_flat.size, dtype=np.int64)
        order = np.empty(int(draw_bounds[-1]), dtype=np.int64)
        order[hop_ids + neg_bounds[step_round]] = hop_ids
        order[neg_ids + step_bounds[neg_round + 1]] = num_hops + neg_ids
        is_neg = order >= num_hops

        def merged(hop_values, neg_values):
            return np.concatenate((hop_values, neg_values))[order]

        draw_round = merged(step_round, neg_round)
        draw_endpoint = merged(step_endpoint, neg_owner)
        draw_edge = draw_endpoint // 2
        draw_factors = merged(cums[step_flat], np.ones(neg_ids.size, dtype=np.float64))
        draw_labels = np.where(is_neg, 0.0, 1.0)
        draw_signs = np.where(is_neg, -1.0, 1.0)
        draw_owner = np.where(is_neg, batch + draw_endpoint, draw_edge)
        draw_source = draw_endpoint - 2 * edge_bounds[draw_round]
        pair_rows = 2 * round_sizes[draw_round]  # the round's endpoint stack
        draw_slots, draw_width = _segment_slots(
            draw_endpoint + 2 * batch * is_neg,
            draw_source + pair_rows * is_neg,
            2 * pair_rows,
        )

        # --- gradient stack: [interaction pair rows | draw rows] ---------
        inter_n = 2 if cfg.use_inter else 0
        stack_bounds = inter_n * edge_bounds + draw_bounds
        stack_rows = np.empty(int(stack_bounds[-1]), dtype=np.int64)
        stack_edge = np.empty(stack_rows.size, dtype=np.int64)
        draw_at = np.arange(order.size, dtype=np.int64) + inter_n * edge_bounds[
            draw_round + 1
        ]
        stack_rows[draw_at] = merged(step_rows, neg_rows)
        stack_edge[draw_at] = draw_edge
        if inter_n:
            pair_at = np.arange(2 * batch, dtype=np.int64) + draw_bounds[node_round]
            stack_rows[pair_at] = inter_rows
            stack_edge[pair_at] = np.repeat(edge_pos, 2)

        # --- context catalogue ------------------------------------------
        # ONE ``np.unique`` over ``edge position * span + row`` keys taken
        # in stack order deduplicates every edge's rows at once: edge
        # blocks are key-disjoint and edge positions ascend with the
        # round, so the sorted unique keys are each edge's sorted unique
        # rows in round-major edge order, ``first`` is each unique row's
        # first contribution in the stack and ``dest`` maps every stack
        # row to its unique row.
        span = np.int64(memory.num_context_slots) * num_nodes
        uniq_keys, first, dest = np.unique(
            stack_edge * span + stack_rows, return_index=True, return_inverse=True
        )
        ctx_rows = uniq_keys % span
        ctx_edge = uniq_keys // span
        round_of_ctx = round_of_edge[ctx_edge]
        ctx_bounds = np.searchsorted(ctx_edge, edge_bounds)

        # Occurrence rank of each context row among its round's blocks,
        # then each round's catalogue reordered rank by rank (stable, so
        # edge order within a rank).  Singleton rounds cannot contend (an
        # edge's block is unique).
        ctx_rank = np.zeros(ctx_rows.size, dtype=np.int64)
        contended = 0
        if num_rounds < batch and ctx_rows.size:
            round_keys = round_of_ctx * span + ctx_rows
            by_row = np.argsort(round_keys, kind="stable")
            ranks = _run_positions(round_keys[by_row])
            ctx_rank[by_row] = ranks
            # rows of every run longer than one: each later occurrence
            # plus the run's first
            contended = int((ranks > 0).sum() + (ranks == 1).sum())
        is_later = np.ones(stack_rows.size, dtype=bool)
        is_later[first] = False
        later = np.flatnonzero(is_later)
        later_round = np.searchsorted(stack_bounds, later, side="right") - 1
        later_dest = dest[later]
        if contended:
            perm = np.argsort(
                round_of_ctx * (int(ctx_rank.max()) + 1) + ctx_rank, kind="stable"
            )
            ctx_rows = ctx_rows[perm]
            ctx_rank = ctx_rank[perm]
            first = first[perm]
            moved = np.empty(perm.size, dtype=np.int64)
            moved[perm] = np.arange(perm.size, dtype=np.int64)
            later_dest = moved[later_dest]

        # --- barrier: [nodes | nodes + N | 2N + catalogue] per round -----
        end_n = 2 if cfg.use_short_term else 1
        barrier_bounds = 2 * end_n * edge_bounds + ctx_bounds
        barrier_rows = np.empty(int(barrier_bounds[-1]), dtype=np.int64)
        long_at = (
            np.arange(2 * batch, dtype=np.int64)
            + barrier_bounds[node_round]
            - 2 * edge_bounds[node_round]
        )
        barrier_rows[long_at] = nodes
        if end_n == 2:
            barrier_rows[long_at + 2 * round_sizes[node_round]] = nodes + num_nodes
        ctx_at = np.arange(ctx_rows.size, dtype=np.int64) + 2 * end_n * edge_bounds[
            round_of_ctx + 1
        ]
        barrier_rows[ctx_at] = ctx_rows + memory.context_offset
        # a sweep starts at each rank change inside a round (a round's
        # catalogue starts at rank 0)
        sweep = np.flatnonzero(ctx_rank[1:] > ctx_rank[:-1]) + 1
        starts = np.sort(np.concatenate((barrier_bounds[:-1], ctx_at[sweep])))
        barrier_cuts = np.concatenate((starts, barrier_bounds[-1:]))

        return BatchPlan(
            edges=edges,
            edge_bounds=edge_bounds,
            nodes=nodes,
            deltas=deltas[edges].reshape(-1),
            alpha_slots=alpha_slots,
            has_self_loop=has_self_loop,
            alpha_pair=alpha_pair,
            stack_rows=stack_rows,
            stack_bounds=stack_bounds,
            draw_bounds=draw_bounds,
            draw_source=draw_source,
            draw_factors=draw_factors,
            draw_labels=draw_labels,
            draw_signs=draw_signs,
            draw_owner=draw_owner,
            draw_slots=draw_slots,
            draw_width=draw_width,
            ctx_rows=ctx_rows,
            ctx_bounds=ctx_bounds,
            ctx_rank=ctx_rank,
            ctx_first=first - stack_bounds[round_of_ctx],
            ctx_later_bounds=np.searchsorted(later, stack_bounds),
            ctx_later_sel=later - stack_bounds[later_round],
            ctx_later_dest=later_dest
            - ctx_bounds[later_round]
            + 2 * end_n * round_sizes[later_round],
            barrier_rows=barrier_rows,
            barrier_cuts=barrier_cuts,
            round_cuts=np.searchsorted(barrier_cuts, barrier_bounds),
            contended_ctx_rows=contended,
        )
