"""Tests for the round partition (``repro.core.engine.schedule``) and the
round-major layout of a compiled plan (``repro.core.engine.plan``).

These tests pin the properties the engine's correctness rests on:
conflict-free (endpoint-disjoint) rounds that agree with the
StreamEdge-level :func:`partition_conflict_free_rounds` oracle below, a
round-major layout that holds, per edge, exactly what the per-edge
oracle samples and scores, and an occurrence rank that is non-zero
precisely on the context rows shared across edges of one round.
"""

from typing import Dict, List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SUPAConfig
from repro.core.engine.plan import compile_plan
from repro.core.engine.schedule import partition_round_indices
from repro.core.inslearn import _record_and_observe
from repro.core.model import SUPA
from repro.datasets.zoo import movielens
from repro.graph.streams import StreamEdge

from tests.oracle.engine import ReferenceEngine
from tests.oracle.propagation import propagation_loss
from tests.oracle.updater import alpha_slot


def partition_conflict_free_rounds(
    edges: Sequence[StreamEdge],
) -> List[List[StreamEdge]]:
    """The oracle of :func:`partition_round_indices`, over edge objects:
    split ``edges`` into rounds with pairwise-disjoint endpoints.

    Edges keep their relative time order within and across rounds: an
    edge is placed in the earliest round after the rounds containing any
    conflicting earlier edge.  ``next_free[x]`` is one past the last
    round holding ``x``, so no round from ``earliest`` on holds either
    endpoint.
    """
    rounds: List[List[StreamEdge]] = []
    next_free: Dict[int, int] = {}
    for e in edges:
        earliest = max(next_free.get(e.u, 0), next_free.get(e.v, 0))
        if earliest == len(rounds):
            rounds.append([])
        rounds[earliest].append(e)
        next_free[e.u] = next_free[e.v] = earliest + 1
    return rounds


def uv_from_pairs(pairs):
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def edges_from_pairs(pairs):
    return [StreamEdge(u, v, "r", float(i)) for i, (u, v) in enumerate(pairs)]


def _steady_state_records(model, dataset, warm_history: int, batch_size: int):
    """Insert ``warm_history`` edges (graph only, no training), return
    the next batch's records — a micro-batch over dense neighbourhoods."""
    edges = list(dataset.stream)
    need = warm_history + batch_size
    if len(edges) < need:
        # Repeat interactions are ordinary recsys dynamics and keep
        # densifying neighbourhoods.
        edges = edges * (need // len(edges) + 1)
    _record_and_observe(model, edges[:warm_history])
    return _record_and_observe(model, edges[warm_history:need])


@pytest.fixture(scope="module")
def compiled_plan():
    """A real compiled plan over a warm graph (walks + negatives live),
    its records, and the oracle's draws for the same records from the
    same RNG state: ``(model, records, plan, samples)``."""
    dataset = movielens(scale=0.08, seed=3)
    model = SUPA.for_dataset(dataset, config=SUPAConfig(seed=7))
    records = _steady_state_records(model, dataset, 256, 96)
    before = model.rng.bit_generator.state
    plan = compile_plan(model, records)
    after = model.rng.bit_generator.state
    model.rng.bit_generator.state = before
    uv = np.asarray([(e.u, e.v) for e, _, _ in records], dtype=np.int64)
    samples = ReferenceEngine()._sample_pass(model, records, uv)
    assert model.rng.bit_generator.state == after
    return model, records, plan, samples


# --------------------------------------------------- round partition fixtures


class TestRoundPartition:
    def test_disjoint_edges_one_round(self):
        rounds = partition_round_indices(
            uv_from_pairs([(0, 1), (2, 3), (4, 5)])
        )
        assert rounds == [[0, 1, 2]]

    def test_star_graph_fully_sequential(self):
        rounds = partition_round_indices(uv_from_pairs([(0, i) for i in range(1, 6)]))
        assert rounds == [[0], [1], [2], [3], [4]]

    def test_chain_respects_per_node_time_order(self):
        # (0,1),(1,2),(2,3): each edge conflicts with its predecessor and
        # the per-node time-order constraint forbids hoisting (2,3) into
        # round 0, so the chain is fully sequential.
        rounds = partition_round_indices(uv_from_pairs([(0, 1), (1, 2), (2, 3)]))
        assert rounds == [[0], [1], [2]]

    def test_interleaved_independent_pairs_share_rounds(self):
        rounds = partition_round_indices(
            uv_from_pairs([(0, 1), (2, 3), (0, 1), (2, 3)])
        )
        assert rounds == [[0, 1], [2, 3]]

    def test_empty(self):
        assert partition_round_indices(np.empty((0, 2), dtype=np.int64)) == []

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_legacy_stream_edge_partition(self, pairs):
        """Index partition == the StreamEdge partition, edge for edge
        (they are the same greedy algorithm over two input shapes)."""
        index_rounds = partition_round_indices(uv_from_pairs(pairs))
        edges = edges_from_pairs(pairs)
        legacy = partition_conflict_free_rounds(edges)
        legacy_indices = [[int(e.t) for e in r] for r in legacy]
        assert index_rounds == legacy_indices

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_rounds_are_endpoint_disjoint_and_exhaustive(self, pairs):
        uv = uv_from_pairs(pairs)
        rounds = partition_round_indices(uv)
        flat = sorted(i for r in rounds for i in r)
        assert flat == list(range(uv.shape[0]))
        for r in rounds:
            assert r == sorted(r)  # plan (= time) order within a round
            touched = set()
            for i in r:
                u, v = int(uv[i, 0]), int(uv[i, 1])
                assert u not in touched and v not in touched
                touched.update((u, v))


class TestStreamEdgePartition:
    """The oracle itself: what ``partition_round_indices`` is held to."""

    def test_disjoint_edges_one_round(self):
        rounds = partition_conflict_free_rounds(
            edges_from_pairs([(0, 1), (2, 3), (4, 5)])
        )
        assert len(rounds) == 1

    def test_conflicting_edges_separate_rounds(self):
        rounds = partition_conflict_free_rounds(
            edges_from_pairs([(0, 1), (1, 2), (2, 3)])
        )
        assert len(rounds) >= 2
        for r in rounds:
            touched = set()
            for e in r:
                assert e.u not in touched and e.v not in touched
                touched.update((e.u, e.v))

    def test_star_graph_fully_sequential(self):
        # every edge shares node 0 -> one edge per round
        rounds = partition_conflict_free_rounds(
            edges_from_pairs([(0, i) for i in range(1, 6)])
        )
        assert [len(r) for r in rounds] == [1] * 5

    def test_time_order_preserved_per_node(self):
        edges = edges_from_pairs([(0, 1), (0, 2), (0, 3)])
        rounds = partition_conflict_free_rounds(edges)
        flat = [e for r in rounds for e in r]
        times = [e.t for e in flat if 0 in (e.u, e.v)]
        assert times == sorted(times)

    def test_empty(self):
        assert partition_conflict_free_rounds([]) == []

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 15), st.integers(16, 30)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_invariants(self, pairs):
        """Every edge lands in exactly one round; rounds are conflict-free."""
        edges = edges_from_pairs(pairs)
        rounds = partition_conflict_free_rounds(edges)
        flat = [e for r in rounds for e in r]
        assert sorted(flat, key=lambda e: e.t) == sorted(edges, key=lambda e: e.t)
        for r in rounds:
            touched = set()
            for e in r:
                assert e.u not in touched and e.v not in touched
                touched.update((e.u, e.v))


# ------------------------------------------------------- the plan's layout


def _round_slices(bounds):
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def _barrier_slice(plan, r):
    cuts = plan.barrier_cuts
    return int(cuts[plan.round_cuts[r]]), int(cuts[plan.round_cuts[r + 1]])


def _draw_rows(plan):
    """Each draw's context row, read from the gradient stack (after its
    round's interaction pair rows)."""
    sizes = np.diff(plan.draw_bounds)
    round_of = np.repeat(np.arange(plan.num_rounds), sizes)
    pair_rows = 2 * np.diff(plan.edge_bounds)
    at = (
        np.arange(int(plan.draw_bounds[-1]))
        - plan.draw_bounds[round_of]
        + plan.stack_bounds[round_of]
        + pair_rows[round_of]
    )
    return plan.stack_rows[at]


def _oracle_rows(model, record, sample):
    """One edge's context rows as the per-edge oracle scores them:
    ``(hop rows, hop cums, hop sides, u-side and v-side negative rows)``
    from the object sampler's walks + the Eq. 8-9 survivors."""
    edge = record[0]
    memory = model.memory
    slot = memory.context_slot(model.schema.edge_type_id(edge.edge_type))
    zeros = np.zeros(model.config.dim, dtype=np.float64)
    steps = propagation_loss(
        memory, sample.influenced, zeros, zeros, edge.t, model.config
    ).steps
    hop_rows = [
        memory.context_slot(s.rel) * memory.num_nodes + s.node for s in steps
    ]
    neg_rows = [slot * memory.num_nodes + draws for draws in sample.negatives]
    return (
        np.asarray(hop_rows, dtype=np.int64),
        np.asarray([s.cum_factor for s in steps], dtype=np.float64),
        np.asarray([s.source_side for s in steps], dtype=np.int64),
        neg_rows,
    )


class TestBuildSchedule:
    def test_empty_plan(self, compiled_plan):
        model = compiled_plan[0]
        plan = compile_plan(model, [])
        assert plan.num_rounds == 0 and plan.num_edges == 0
        assert plan.contended_ctx_rows == 0
        assert plan.edges.size == 0 and plan.ctx_rows.size == 0
        assert plan.barrier_rows.size == 0 and plan.round_cuts.tolist() == [0]

    def test_rounds_cover_plan_and_are_conflict_free(self, compiled_plan):
        model, records, plan, _ = compiled_plan
        assert sorted(plan.edges.tolist()) == list(range(len(records)))
        uv = np.asarray([(e.u, e.v) for e, _, _ in records], dtype=np.int64)
        deltas = np.asarray([(du, dv) for _, du, dv in records], dtype=np.float64)
        assert plan.nodes.tobytes() == uv[plan.edges].tobytes()
        assert plan.deltas.tobytes() == deltas[plan.edges].tobytes()
        assert plan.alpha_slots.tolist() == [
            alpha_slot(model.memory, model._node_type_ids[n]) for n in plan.nodes
        ]
        for r, (e0, e1) in enumerate(_round_slices(plan.edge_bounds)):
            assert (np.diff(plan.edges[e0:e1]) > 0).all()
            touched = set()
            for u, v in uv[plan.edges[e0:e1]].tolist():
                assert u not in touched and v not in touched
                touched.update((u, v))
            assert not plan.has_self_loop[r]

    def test_round_major_layout_matches_the_plan(self, compiled_plan):
        """Every edge's slice of the round-major draw arrays and its
        interaction pair in the gradient stack are what the object
        sampler + the Eq. 8-9 survivors give for that edge under the
        same RNG state, addressing the edge's own rows of its round's
        endpoint stack; a round's draws are its hops, then its
        negatives; and its catalogue holds each edge's unique context
        rows, rank by rank."""
        model, records, plan, samples = compiled_plan
        num_nodes = model.memory.num_nodes
        round_of = np.repeat(np.arange(plan.num_rounds), np.diff(plan.edge_bounds))
        draw_rows = _draw_rows(plan)
        hops_per_round = np.zeros(plan.num_rounds, dtype=np.int64)
        negs_per_round = np.zeros(plan.num_rounds, dtype=np.int64)
        blocks = [[] for _ in range(plan.num_rounds)]
        for pos, e in enumerate(plan.edges.tolist()):
            r = round_of[pos]
            rows, cums, sides, negs = _oracle_rows(model, records[e], samples[e])
            local = 2 * (pos - plan.edge_bounds[r])
            hops = np.flatnonzero(plan.draw_owner == pos)
            assert (np.diff(hops) == 1).all()
            assert draw_rows[hops].tobytes() == rows.tobytes()
            assert plan.draw_factors[hops].tobytes() == cums.tobytes()
            assert (plan.draw_source[hops] == local + sides).all()
            assert (plan.draw_labels[hops] == 1.0).all()
            assert (plan.draw_signs[hops] == 1.0).all()
            draws = []
            for side in (0, 1):
                owner = plan.num_edges + 2 * pos + side
                hits = np.flatnonzero(plan.draw_owner == owner)
                assert draw_rows[hits].tobytes() == negs[side].tobytes()
                assert (plan.draw_source[hits] == local + side).all()
                assert (plan.draw_factors[hits] == 1.0).all()
                assert (plan.draw_labels[hits] == 0.0).all()
                assert (plan.draw_signs[hits] == -1.0).all()
                draws.extend(hits.tolist())
            assert draws == list(range(draws[0], draws[0] + len(draws)))
            edge = records[e][0]
            slot = model.memory.context_slot(model.schema.edge_type_id(edge.edge_type))
            pair_at = plan.stack_bounds[r] + local
            pair = plan.stack_rows[pair_at : pair_at + 2]
            assert (pair == slot * num_nodes + np.asarray([edge.u, edge.v])).all()
            blocks[r].append(np.unique(np.concatenate((pair, rows, *negs))))
            hops_per_round[r] += hops.size
            negs_per_round[r] += len(draws)
        assert (
            np.diff(plan.draw_bounds).tolist()
            == (hops_per_round + negs_per_round).tolist()
        )
        for r, (d0, d1) in enumerate(_round_slices(plan.draw_bounds)):
            # hops first, then negatives
            split = d0 + hops_per_round[r]
            assert (plan.draw_owner[d0:split] < plan.num_edges).all()
            assert (plan.draw_owner[split:d1] >= plan.num_edges).all()
            # the catalogue: rank 0 of every edge's block in edge order,
            # then rank 1, ...
            seen = {}
            ranked = []
            for i, block in enumerate(blocks[r]):
                for row in block.tolist():
                    ranked.append((seen.get(row, 0), i, row))
                    seen[row] = ranked[-1][0] + 1
            c0, c1 = plan.ctx_bounds[r], plan.ctx_bounds[r + 1]
            assert plan.ctx_rows[c0:c1].tolist() == [row for *_, row in sorted(ranked)]
        assert plan.ctx_bounds[-1] == plan.ctx_rows.size
        # the fixture exercises Eq. 9 termination and both sides
        assert 0 < plan.num_walk_steps < sum(
            len(w.steps[1:]) for s in samples for w in s.influenced.walks
        )

    def test_context_accumulation_indices_rebuild_the_catalogue(self, compiled_plan):
        """``ctx_first`` + the later lists route every row of a round's
        gradient stack to the barrier row of its edge's catalogue row."""
        model, _, plan, _ = compiled_plan
        offset = model.memory.context_offset
        for r, (s0, s1) in enumerate(_round_slices(plan.stack_bounds)):
            # the round's stack: interaction pair rows | hop rows | negative rows
            stack_rows = plan.stack_rows[s0:s1]
            c0, c1 = plan.ctx_bounds[r], plan.ctx_bounds[r + 1]
            rows = plan.ctx_rows[c0:c1]
            first = plan.ctx_first[c0:c1]
            assert (stack_rows[first] == rows).all()
            b0, b1 = _barrier_slice(plan, r)
            ends = (b1 - b0) - (c1 - c0)
            barrier = plan.barrier_rows[b0:b1]
            l0, l1 = plan.ctx_later_bounds[r], plan.ctx_later_bounds[r + 1]
            sel = plan.ctx_later_sel[l0:l1]
            dest = plan.ctx_later_dest[l0:l1]
            assert (stack_rows[sel] + offset == barrier[dest]).all()
            # firsts and laters partition the stack; a later row follows
            # its catalogue row's first contribution
            assert sorted(first.tolist() + sel.tolist()) == list(range(stack_rows.size))
            assert (dest >= ends).all()
            assert (sel > first[dest - ends]).all()
            assert (np.diff(sel) > 0).all()

    def test_barrier_rows_and_calls_follow_the_ranks(self, compiled_plan):
        """A round's barrier rows are ``[nodes | nodes + N | 2N +
        catalogue]``; its first call ends after the rank-0 rows and
        every later call is one rank's contiguous sweep."""
        model, _, plan, _ = compiled_plan
        n = model.memory.num_nodes
        for r, (e0, e1) in enumerate(_round_slices(plan.edge_bounds)):
            nodes = plan.nodes[2 * e0 : 2 * e1]
            c0, c1 = plan.ctx_bounds[r], plan.ctx_bounds[r + 1]
            b0, b1 = _barrier_slice(plan, r)
            barrier = plan.barrier_rows[b0:b1]
            k2 = nodes.size
            assert barrier[:k2].tolist() == nodes.tolist()
            assert barrier[k2 : 2 * k2].tolist() == (nodes + n).tolist()
            assert barrier[2 * k2 :].tolist() == (plan.ctx_rows[c0:c1] + 2 * n).tolist()
            ranks = plan.ctx_rank[c0:c1]
            cuts = plan.barrier_cuts[plan.round_cuts[r] : plan.round_cuts[r + 1] + 1]
            expected = [b0, b0 + 2 * k2 + int((ranks == 0).sum())]
            for k in range(1, int(ranks.max(initial=0)) + 1):
                expected.append(expected[-1] + int((ranks == k).sum()))
            assert cuts.tolist() == expected
            # no optimiser call sees a row twice (the fixture has no self-loop)
            for lo, hi in zip(expected[:-1], expected[1:]):
                chunk = plan.barrier_rows[lo:hi]
                assert np.unique(chunk).size == chunk.size

    def test_contended_mask_matches_recomputation(self, compiled_plan):
        """Within a round, a context row's k-th block occurrence (edge
        order) has rank k — non-zero ranks (and their rank-0 firsts) are
        exactly the rows two or more edges of the round contend for, and
        the round makes one optimiser sweep per non-zero rank."""
        plan = compiled_plan[2]
        contended = 0
        for r, (c0, c1) in enumerate(_round_slices(plan.ctx_bounds)):
            seen = {}
            expected = []
            for row in plan.ctx_rows[c0:c1].tolist():
                expected.append(seen.get(row, 0))
                seen[row] = expected[-1] + 1
            assert plan.ctx_rank[c0:c1].tolist() == expected
            calls = plan.round_cuts[r + 1] - plan.round_cuts[r]
            assert calls == 1 + max(expected, default=0)
            contended += sum(n for n in seen.values() if n > 1)
        assert plan.contended_ctx_rows == contended
        # the fixture batch is dense enough to exercise the sweep path
        assert contended > 0

    def test_stats_agree_with_stream_edge_partition(self, compiled_plan):
        """Plan rounds == StreamEdge-level rounds on the same batch
        (same greedy algorithm), so the round counts and sizes coincide."""
        _, records, plan, _ = compiled_plan
        rounds = partition_conflict_free_rounds([edge for edge, _, _ in records])
        sizes = np.diff(plan.edge_bounds)
        assert sizes.tolist() == [len(r) for r in rounds]
        assert sizes.sum() == len(records)
