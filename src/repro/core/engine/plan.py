"""Micro-batch plan compilation: stream edges → round-major arrays.

A :class:`BatchPlan` is everything the executor needs to run a
micro-batch of edges without touching a Python object per walk or hop,
laid out *round-major*: the batch is partitioned into conflict-free
rounds (:func:`repro.core.engine.schedule.partition_round_indices`) and
every per-edge, per-hop, per-negative and per-context-row array is
ordered so that a round is a contiguous slice.  Everything a round
needs beyond slicing — where each hop's source embedding sits in the
round's stack, where each context gradient accumulates, which context
rows several edges of the round share — is precomputed as index arrays.

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
    of the round's own slice or stack.

    Edges (``B``; endpoint arrays are flat ``(2B,)``, ``u`` then ``v``):

    - ``edges``: stream index of the edge at each position, ascending
      within a round (the greedy partition appends in stream order);
      ``edge_bounds``,
    - ``nodes`` / ``deltas`` / ``alpha_slots`` / ``inter_rows``: node
      ids, active intervals ``Delta_V``, forgetting-parameter slots and
      flat context rows of ``(slot, u/v)``,
    - ``has_self_loop``: ``(R,)`` — some edge of the round has
      ``u == v``, so its endpoint rows are not all distinct.

    Surviving hops and negative draws (``step_*`` / ``neg_*``, stream
    order within an edge, u-side first):

    - ``*_rows``: flat context rows; ``step_cums``: Eq. 8-9 factors,
    - ``*_source``: local row of the source embedding in the round's
      ``(2k, dim)`` endpoint stack,
    - ``*_owner``: where the loss term accumulates — the edge position
      for hops, the flat endpoint position for negatives,
    - ``*_slots`` / ``*_width``: ``source * width + position`` for
      :func:`~repro.core.engine.kernels.padded_segment_sums`.

    Context catalogue — the round's gradient stack is the concatenation
    of its interaction, hop and negative context gradients:

    - ``ctx_rows`` / ``ctx_bounds``: each edge's unique context rows
      (sorted), concatenated in edge order (a row shared by two edges of
      the round appears in both blocks),
    - ``ctx_first``: per unique row, the local stack index of its first
      contribution; ``ctx_later_sel`` → ``ctx_later_dest`` (CSR by
      ``ctx_later_bounds``): the remaining contributions in stack
      order, as local stack index → local unique row,
    - ``ctx_rank``: occurrence rank of the row value among the round's
      blocks (0 everywhere for an uncontended round),
      ``ctx_max_rank``: ``(R,)`` its per-round maximum, and
      ``contended_ctx_rows``: how many block rows share their value
      with another block of the same round.
    """

    edges: np.ndarray
    edge_bounds: np.ndarray
    nodes: np.ndarray
    deltas: np.ndarray
    alpha_slots: np.ndarray
    inter_rows: np.ndarray
    has_self_loop: np.ndarray
    step_bounds: np.ndarray
    step_rows: np.ndarray
    step_cums: np.ndarray
    step_source: np.ndarray
    step_owner: np.ndarray
    step_slots: np.ndarray
    step_width: int
    neg_bounds: np.ndarray
    neg_rows: np.ndarray
    neg_source: np.ndarray
    neg_owner: np.ndarray
    neg_slots: np.ndarray
    neg_width: int
    ctx_rows: np.ndarray
    ctx_bounds: np.ndarray
    ctx_first: np.ndarray
    ctx_later_bounds: np.ndarray
    ctx_later_sel: np.ndarray
    ctx_later_dest: np.ndarray
    ctx_rank: np.ndarray
    ctx_max_rank: np.ndarray
    contended_ctx_rows: int

    @property
    def num_edges(self) -> int:
        return int(self.edges.size)

    @property
    def num_rounds(self) -> int:
        return int(self.edge_bounds.size) - 1


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


def _segment_slots(source: np.ndarray, round_first: np.ndarray):
    """``(slots, width)`` placing each row at ``local source * width +
    position``; equal ``source`` values must be contiguous."""
    if source.size == 0:
        return np.empty(0, dtype=np.int64), 0
    position = _run_positions(source)
    width = int(position.max()) + 1
    return (source - round_first) * width + position, width


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
        round_of_edge = np.repeat(
            np.arange(num_rounds, dtype=np.int64), np.diff(edge_bounds)
        )
        uv = uv[edges]
        edge_slots = edge_slots[edges]
        nodes = uv.reshape(-1)
        inter_rows = (edge_slots[:, None] * num_nodes + uv).reshape(-1)
        has_self_loop = np.zeros(num_rounds, dtype=bool)
        has_self_loop[round_of_edge[uv[:, 0] == uv[:, 1]]] = True

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
        step_slots, step_width = _segment_slots(
            step_endpoint, 2 * edge_bounds[step_round]
        )

        # --- negatives: u-side draws first within each edge -------------
        neg_flat, neg_offsets = _csr_gather(_offsets(neg_counts.sum(axis=1)), edges)
        neg_owner = np.repeat(
            np.arange(2 * batch, dtype=np.int64), neg_counts[edges].reshape(-1)
        )
        neg_edge = neg_owner // 2
        neg_round = round_of_edge[neg_edge]
        neg_bounds = neg_offsets[edge_bounds]
        neg_rows = edge_slots[neg_edge] * num_nodes + draws.negatives[neg_flat]
        neg_slots, neg_width = _segment_slots(neg_owner, 2 * edge_bounds[neg_round])

        # --- context catalogue ------------------------------------------
        # Each round's gradient stack is [interaction pair rows | hop
        # rows | negative rows].  ONE ``np.unique`` over ``edge position
        # * span + row`` keys taken in stack order deduplicates every
        # edge's rows at once: edge blocks are key-disjoint and edge
        # positions ascend with the round, so the sorted unique keys are
        # each edge's sorted unique rows in round-major edge order,
        # ``first`` is each unique row's first contribution in the stack
        # and ``dest`` maps every stack row to its unique row.
        inter_n = 2 if cfg.use_inter else 0
        stack_bounds = inter_n * edge_bounds + step_bounds + neg_bounds
        span = np.int64(memory.num_context_slots) * num_nodes
        keys = np.empty(int(stack_bounds[-1]), dtype=np.int64)
        if inter_n:
            pair_edge = np.repeat(edge_pos, 2)
            pair_round = round_of_edge[pair_edge]
            keys[
                np.arange(2 * batch, dtype=np.int64)
                + step_bounds[pair_round]
                + neg_bounds[pair_round]
            ] = pair_edge * span + inter_rows
        keys[
            np.arange(step_flat.size, dtype=np.int64)
            + inter_n * edge_bounds[step_round + 1]
            + neg_bounds[step_round]
        ] = step_edge * span + step_rows
        keys[
            np.arange(neg_flat.size, dtype=np.int64)
            + inter_n * edge_bounds[neg_round + 1]
            + step_bounds[neg_round + 1]
        ] = neg_edge * span + neg_rows
        uniq_keys, first, dest = np.unique(
            keys, return_index=True, return_inverse=True
        )
        ctx_rows = uniq_keys % span
        ctx_edge = uniq_keys // span
        round_of_ctx = round_of_edge[ctx_edge]
        ctx_bounds = np.searchsorted(ctx_edge, edge_bounds)
        is_later = np.ones(keys.size, dtype=bool)
        is_later[first] = False
        later = np.flatnonzero(is_later)
        later_round = np.searchsorted(stack_bounds, later, side="right") - 1

        # Occurrence rank of each context row among its round's blocks.
        # Singleton rounds cannot contend (an edge's block is unique).
        ctx_rank = np.zeros(ctx_rows.size, dtype=np.int64)
        ctx_max_rank = np.zeros(num_rounds, dtype=np.int64)
        contended = 0
        if num_rounds < batch and ctx_rows.size:
            round_keys = round_of_ctx * span + ctx_rows
            order = np.argsort(round_keys, kind="stable")
            ranks = _run_positions(round_keys[order])
            ctx_rank[order] = ranks
            np.maximum.at(ctx_max_rank, round_of_ctx, ctx_rank)
            # rows of every run longer than one: each later occurrence
            # plus the run's first
            contended = int((ranks > 0).sum() + (ranks == 1).sum())

        return BatchPlan(
            edges=edges,
            edge_bounds=edge_bounds,
            nodes=nodes,
            deltas=deltas[edges].reshape(-1),
            alpha_slots=memory.alpha_slots(node_type_ids[nodes]),
            inter_rows=inter_rows,
            has_self_loop=has_self_loop,
            step_bounds=step_bounds,
            step_rows=step_rows,
            step_cums=cums[step_flat],
            step_source=step_endpoint - 2 * edge_bounds[step_round],
            step_owner=step_edge,
            step_slots=step_slots,
            step_width=step_width,
            neg_bounds=neg_bounds,
            neg_rows=neg_rows,
            neg_source=neg_owner - 2 * edge_bounds[neg_round],
            neg_owner=neg_owner,
            neg_slots=neg_slots,
            neg_width=neg_width,
            ctx_rows=ctx_rows,
            ctx_bounds=ctx_bounds,
            ctx_first=first - stack_bounds[round_of_ctx],
            ctx_later_bounds=np.searchsorted(later, stack_bounds),
            ctx_later_sel=later - stack_bounds[later_round],
            ctx_later_dest=dest[later] - ctx_bounds[later_round],
            ctx_rank=ctx_rank,
            ctx_max_rank=ctx_max_rank,
            contended_ctx_rows=contended,
        )
