"""Conflict-free round schedule of a compiled plan.

Section IV-H: "the update procedure of SUPA is localized".  Edges with
pairwise-disjoint endpoints touch disjoint memory rows, so a round of
them is the unit the engine executes as stacked ``[round, dim]`` array
operations (DESIGN.md §9).  :func:`partition_round_indices` is the
greedy earliest-round partition over a compiled
:class:`~repro.core.engine.plan.BatchPlan`'s ``uv`` index array;
:func:`partition_conflict_free_rounds` is the same algorithm over
:class:`~repro.graph.streams.StreamEdge` objects, kept as the
edge-level reference the tests compare it against.

:func:`build_schedule` re-lays the plan out *round-major* once per plan:
every per-edge, per-hop, per-negative and per-context-row array is
permuted so that a round is a contiguous slice, and everything a round
needs beyond slicing — where each hop's source embedding sits in the
round's stack, where each context gradient accumulates, which context
rows several edges of the round share — is precomputed here as index
arrays.  The schedule is a pure function of the plan.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence

import numpy as np

from repro.core.engine.plan import BatchPlan
from repro.graph.streams import StreamEdge


class RoundSchedule(NamedTuple):
    """A :class:`BatchPlan` re-laid out round-major (``R`` rounds).

    Round ``r`` owns the slices ``[bounds[r], bounds[r + 1])`` of the
    arrays its ``*_bounds`` index.  *Local* indices count from the start
    of the round's own slice or stack.

    Edges (``B``; endpoint arrays are flat ``(2B,)``, ``u`` then ``v``):

    - ``edges``: plan edge index per position, ascending within a round
      (the greedy partition appends in stream order); ``edge_bounds``,
    - ``nodes`` / ``deltas`` / ``alpha_slots`` / ``inter_rows``: the
      plan's per-endpoint arrays,
    - ``has_self_loop``: ``(R,)`` — some edge of the round has
      ``u == v``, so its endpoint rows are not all distinct.

    Hops and negatives (``step_*`` / ``neg_*``, same shape each):

    - ``*_rows``: flat context rows; ``step_cums``: Eq. 8-9 factors,
    - ``*_source``: local row of the hop's source embedding in the
      round's ``(2k, dim)`` endpoint stack,
    - ``*_owner``: where the loss term accumulates — the edge position
      for hops, the flat endpoint position for negatives,
    - ``*_slots`` / ``*_width``: ``source * width + position`` for
      :func:`~repro.core.engine.kernels.padded_segment_sums`.

    Context catalogue — the round's gradient stack is the concatenation
    of its interaction, hop and negative context gradients:

    - ``ctx_rows`` / ``ctx_bounds``: each edge's unique context rows,
      concatenated in edge order (a row shared by two edges of the round
      appears in both blocks),
    - ``ctx_first``: per unique row, the local stack index of its first
      contribution; ``ctx_later_sel`` → ``ctx_later_dest`` (CSR by
      ``ctx_later_bounds``): the remaining contributions in catalogue
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
    def num_rounds(self) -> int:
        return int(self.edge_bounds.size) - 1


def partition_round_indices(uv: np.ndarray) -> List[List[int]]:
    """Greedy earliest-round partition over the plan's ``(B, 2)`` ids.

    Identical algorithm to :func:`partition_conflict_free_rounds`,
    returning edge *indices* so the engine can slice plan arrays.
    """
    rounds: List[List[int]] = []
    round_touched: List[set] = []
    next_free: Dict[int, int] = {}
    for b, (u, v) in enumerate(uv.tolist()):
        earliest = max(next_free.get(u, 0), next_free.get(v, 0))
        while earliest < len(rounds) and (
            u in round_touched[earliest] or v in round_touched[earliest]
        ):
            earliest += 1
        if earliest == len(rounds):
            rounds.append([])
            round_touched.append(set())
        rounds[earliest].append(b)
        round_touched[earliest].update((u, v))
        next_free[u] = earliest + 1
        next_free[v] = earliest + 1
    return rounds


def partition_conflict_free_rounds(
    edges: Sequence[StreamEdge],
) -> List[List[StreamEdge]]:
    """Split ``edges`` into rounds with pairwise-disjoint endpoints.

    Edges keep their relative time order within and across rounds: an
    edge is placed in the earliest round after the rounds containing any
    conflicting earlier edge.
    """
    rounds: List[List[StreamEdge]] = []
    round_touched: List[set] = []
    next_free: Dict[int, int] = {}
    for e in edges:
        earliest = max(next_free.get(e.u, 0), next_free.get(e.v, 0))
        while earliest < len(rounds) and (
            e.u in round_touched[earliest] or e.v in round_touched[earliest]
        ):
            earliest += 1
        if earliest == len(rounds):
            rounds.append([])
            round_touched.append(set())
        rounds[earliest].append(e)
        round_touched[earliest].update((e.u, e.v))
        next_free[e.u] = earliest + 1
        next_free[e.v] = earliest + 1
    return rounds


def _csr_gather(offsets: np.ndarray, order: np.ndarray):
    """Concatenate the CSR slices ``offsets`` delimits in ``order``.

    Returns ``(flat, new_offsets)``: ``flat`` indexes the CSR's flat
    arrays, ``new_offsets`` is the ``(len(order) + 1,)`` boundary array
    of the concatenation.
    """
    counts = np.diff(offsets)[order]
    new_offsets = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(counts, out=new_offsets[1:])
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


def build_schedule(plan: BatchPlan) -> RoundSchedule:
    """Partition ``plan`` into conflict-free rounds, laid out round-major."""
    batch = plan.num_edges
    rounds = partition_round_indices(plan.uv)
    num_rounds = len(rounds)
    sizes = np.asarray([len(r) for r in rounds], dtype=np.int64)
    edge_bounds = np.zeros(num_rounds + 1, dtype=np.int64)
    np.cumsum(sizes, out=edge_bounds[1:])
    edges = np.asarray([b for r in rounds for b in r], dtype=np.int64)
    round_of_edge = np.repeat(np.arange(num_rounds, dtype=np.int64), sizes)
    edge_pos = np.arange(batch, dtype=np.int64)

    uv = plan.uv[edges]
    has_self_loop = np.zeros(num_rounds, dtype=bool)
    has_self_loop[round_of_edge[uv[:, 0] == uv[:, 1]]] = True

    # --- hops: each source embedding's (edge, side) is one segment ----------
    step_flat, step_offsets = _csr_gather(plan.step_offsets, edges)
    step_counts = np.diff(step_offsets)
    step_edge = np.repeat(edge_pos, step_counts)
    step_bounds = step_offsets[edge_bounds]
    step_round = round_of_edge[step_edge]
    step_owner = 2 * step_edge + plan.step_sides[step_flat]
    step_slots, step_width = _segment_slots(step_owner, 2 * edge_bounds[step_round])

    # --- negatives: u-side draws first within each edge ---------------------
    neg_flat, neg_offsets = _csr_gather(plan.neg_offsets, edges)
    neg_per_edge = np.diff(neg_offsets)
    neg_edge = np.repeat(edge_pos, neg_per_edge)
    neg_bounds = neg_offsets[edge_bounds]
    neg_round = round_of_edge[neg_edge]
    within = np.arange(neg_flat.size, dtype=np.int64) - neg_offsets[neg_edge]
    neg_side = (within >= plan.neg_counts[edges, 0][neg_edge]).astype(np.int64)
    neg_owner = 2 * neg_edge + neg_side
    neg_source = neg_owner - 2 * edge_bounds[neg_round]
    neg_slots, neg_width = _segment_slots(neg_owner, 2 * edge_bounds[neg_round])

    # --- context catalogue --------------------------------------------------
    # Each round's gradient stack is [interaction pair rows | hop rows |
    # negative rows]; `dest` maps every stack row to its edge's unique
    # context row, numbered round-major.
    ctx_flat, ctx_offsets = _csr_gather(plan.ctx_uniq_offsets, edges)
    ctx_bounds = ctx_offsets[edge_bounds]
    total_cat = int(plan.ctx_cat_offsets[-1])
    inter_n = (total_cat - step_flat.size - neg_flat.size) // batch if batch else 0
    cat_start = plan.ctx_cat_offsets[:-1][edges]
    stack_bounds = inter_n * edge_bounds + step_bounds + neg_bounds
    dest = np.empty(total_cat, dtype=np.int64)
    if inter_n:
        pair = np.arange(2 * batch, dtype=np.int64)
        pair_edge = pair // 2
        pair_round = round_of_edge[pair_edge]
        dest[pair + step_bounds[pair_round] + neg_bounds[pair_round]] = (
            ctx_offsets[pair_edge] + plan.ctx_inverse[cat_start[pair_edge] + pair % 2]
        )
    step_cat = (cat_start + inter_n - plan.step_offsets[:-1][edges])[step_edge] + step_flat
    dest[
        np.arange(step_flat.size, dtype=np.int64)
        + inter_n * edge_bounds[step_round + 1]
        + neg_bounds[step_round]
    ] = ctx_offsets[step_edge] + plan.ctx_inverse[step_cat]
    neg_cat = (
        cat_start + inter_n + step_counts - plan.neg_offsets[:-1][edges]
    )[neg_edge] + neg_flat
    dest[
        np.arange(neg_flat.size, dtype=np.int64)
        + inter_n * edge_bounds[neg_round + 1]
        + step_bounds[neg_round + 1]
    ] = ctx_offsets[neg_edge] + plan.ctx_inverse[neg_cat]

    # First contribution per unique row: assigning in reverse lets the
    # earliest stack row win the duplicate-index write.
    num_ctx = int(ctx_offsets[-1])
    stack_index = np.arange(total_cat, dtype=np.int64)
    first = np.empty(num_ctx, dtype=np.int64)
    first[dest[::-1]] = stack_index[::-1]
    is_later = np.ones(total_cat, dtype=bool)
    is_later[first] = False
    later = np.flatnonzero(is_later)
    round_of_ctx = np.repeat(np.arange(num_rounds, dtype=np.int64), np.diff(ctx_bounds))
    later_round = np.searchsorted(stack_bounds, later, side="right") - 1
    ctx_later_bounds = np.searchsorted(later, stack_bounds)

    # Occurrence rank of each context row among its round's blocks.
    # Singleton rounds cannot contend (an edge's block is unique).
    ctx_rows = plan.ctx_uniq_rows[ctx_flat]
    ctx_rank = np.zeros(num_ctx, dtype=np.int64)
    ctx_max_rank = np.zeros(num_rounds, dtype=np.int64)
    contended = 0
    if num_rounds < batch and num_ctx:
        span = np.int64(ctx_rows.max()) + 1
        keys = round_of_ctx * span + ctx_rows
        order = np.argsort(keys, kind="stable")
        ranks = _run_positions(keys[order])
        ctx_rank[order] = ranks
        np.maximum.at(ctx_max_rank, round_of_ctx, ctx_rank)
        # rows of every run longer than one: each later occurrence plus
        # the run's first
        contended = int((ranks > 0).sum() + (ranks == 1).sum())

    return RoundSchedule(
        edges=edges,
        edge_bounds=edge_bounds,
        nodes=uv.reshape(-1),
        deltas=plan.deltas[edges].reshape(-1),
        alpha_slots=plan.alpha_slots[edges].reshape(-1),
        inter_rows=plan.inter_rows[edges].reshape(-1),
        has_self_loop=has_self_loop,
        step_bounds=step_bounds,
        step_rows=plan.step_rows[step_flat],
        step_cums=plan.step_cums[step_flat],
        step_source=step_owner - 2 * edge_bounds[step_round],
        step_owner=step_edge,
        step_slots=step_slots,
        step_width=step_width,
        neg_bounds=neg_bounds,
        neg_rows=plan.neg_rows[neg_flat],
        neg_source=neg_source,
        neg_owner=neg_owner,
        neg_slots=neg_slots,
        neg_width=neg_width,
        ctx_rows=ctx_rows,
        ctx_bounds=ctx_bounds,
        ctx_first=first - stack_bounds[round_of_ctx],
        ctx_later_bounds=ctx_later_bounds,
        ctx_later_sel=later - stack_bounds[later_round],
        ctx_later_dest=dest[later] - ctx_bounds[later_round],
        ctx_rank=ctx_rank,
        ctx_max_rank=ctx_max_rank,
        contended_ctx_rows=contended,
    )
