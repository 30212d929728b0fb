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
from repro.core.engine.engine import ReferenceEngine
from repro.core.engine.plan import compile_plan
from repro.core.engine.schedule import partition_round_indices
from repro.core.inslearn import _record_and_observe
from repro.core.model import SUPA
from repro.core.propagation import propagation_loss
from repro.datasets.zoo import movielens
from repro.graph.streams import StreamEdge


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

    def test_rounds_cover_plan_and_are_conflict_free(self, compiled_plan):
        model, records, plan, _ = compiled_plan
        assert sorted(plan.edges.tolist()) == list(range(len(records)))
        uv = np.asarray([(e.u, e.v) for e, _, _ in records], dtype=np.int64)
        deltas = np.asarray([(du, dv) for _, du, dv in records], dtype=np.float64)
        assert plan.nodes.tobytes() == uv[plan.edges].tobytes()
        assert plan.deltas.tobytes() == deltas[plan.edges].tobytes()
        assert plan.alpha_slots.tolist() == [
            model.memory.alpha_slot(model._node_type_ids[n]) for n in plan.nodes
        ]
        for r, (e0, e1) in enumerate(_round_slices(plan.edge_bounds)):
            assert (np.diff(plan.edges[e0:e1]) > 0).all()
            touched = set()
            for u, v in uv[plan.edges[e0:e1]].tolist():
                assert u not in touched and v not in touched
                touched.update((u, v))
            assert not plan.has_self_loop[r]

    def test_round_major_layout_matches_the_plan(self, compiled_plan):
        """Every edge's slice of the round-major hop, negative and
        context-row arrays is what the object sampler + the Eq. 8-9
        survivors give for that edge under the same RNG state, and it
        addresses the edge's own rows of its round's endpoint stack."""
        model, records, plan, samples = compiled_plan
        round_of = np.repeat(np.arange(plan.num_rounds), np.diff(plan.edge_bounds))
        hops_per_round = np.zeros(plan.num_rounds, dtype=np.int64)
        negs_per_round = np.zeros(plan.num_rounds, dtype=np.int64)
        ctx_per_round = np.zeros(plan.num_rounds, dtype=np.int64)
        ctx_at = 0
        for pos, e in enumerate(plan.edges.tolist()):
            rows, cums, sides, negs = _oracle_rows(model, records[e], samples[e])
            local = 2 * (pos - plan.edge_bounds[round_of[pos]])
            hops = np.flatnonzero(plan.step_owner == pos)
            assert (np.diff(hops) == 1).all()
            assert plan.step_rows[hops].tobytes() == rows.tobytes()
            assert plan.step_cums[hops].tobytes() == cums.tobytes()
            assert (plan.step_source[hops] == local + sides).all()
            draws = []
            for side in (0, 1):
                hits = np.flatnonzero(plan.neg_owner == 2 * pos + side)
                assert plan.neg_rows[hits].tobytes() == negs[side].tobytes()
                assert (plan.neg_source[hits] == local + side).all()
                draws.extend(hits.tolist())
            assert draws == list(range(draws[0], draws[0] + len(draws)))
            uniq = np.unique(
                np.concatenate((plan.inter_rows[2 * pos : 2 * pos + 2], rows, *negs))
            )
            block = plan.ctx_rows[ctx_at : ctx_at + uniq.size]
            assert block.tobytes() == uniq.tobytes()
            ctx_at += uniq.size
            hops_per_round[round_of[pos]] += hops.size
            negs_per_round[round_of[pos]] += len(draws)
            ctx_per_round[round_of[pos]] += uniq.size
        assert ctx_at == plan.ctx_rows.size
        assert np.diff(plan.step_bounds).tolist() == hops_per_round.tolist()
        assert np.diff(plan.neg_bounds).tolist() == negs_per_round.tolist()
        assert np.diff(plan.ctx_bounds).tolist() == ctx_per_round.tolist()
        # the fixture exercises Eq. 9 termination and both sides
        assert 0 < plan.step_rows.size < sum(
            len(w.hops()) for s in samples for w in s.influenced.walks
        )

    def test_context_accumulation_indices_rebuild_the_catalogue(self, compiled_plan):
        """``ctx_first`` + the later lists route every row of a round's
        gradient stack to the unique context row of its edge's block."""
        plan = compiled_plan[2]
        for r, (e0, e1) in enumerate(_round_slices(plan.edge_bounds)):
            # the round's stack: interaction pair rows | hop rows | negative rows
            stack_rows = np.concatenate(
                (
                    plan.inter_rows[2 * e0 : 2 * e1],
                    plan.step_rows[plan.step_bounds[r] : plan.step_bounds[r + 1]],
                    plan.neg_rows[plan.neg_bounds[r] : plan.neg_bounds[r + 1]],
                )
            )
            c0, c1 = plan.ctx_bounds[r], plan.ctx_bounds[r + 1]
            rows = plan.ctx_rows[c0:c1]
            first = plan.ctx_first[c0:c1]
            assert (stack_rows[first] == rows).all()
            l0, l1 = plan.ctx_later_bounds[r], plan.ctx_later_bounds[r + 1]
            sel = plan.ctx_later_sel[l0:l1]
            dest = plan.ctx_later_dest[l0:l1]
            assert (stack_rows[sel] == rows[dest]).all()
            # firsts and laters partition the stack; a later row follows
            # its unique row's first contribution
            assert sorted(first.tolist() + sel.tolist()) == list(range(stack_rows.size))
            assert (sel > first[dest]).all()
            assert (np.diff(sel) > 0).all()

    def test_contended_mask_matches_recomputation(self, compiled_plan):
        """Within a round, a context row's k-th block occurrence (edge
        order) has rank k — non-zero ranks (and their rank-0 firsts) are
        exactly the rows two or more edges of the round contend for."""
        plan = compiled_plan[2]
        contended = 0
        for r, (c0, c1) in enumerate(_round_slices(plan.ctx_bounds)):
            seen = {}
            expected = []
            for row in plan.ctx_rows[c0:c1].tolist():
                expected.append(seen.get(row, 0))
                seen[row] = expected[-1] + 1
            assert plan.ctx_rank[c0:c1].tolist() == expected
            assert plan.ctx_max_rank[r] == max(expected, default=0)
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
