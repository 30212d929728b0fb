"""Tests for the plan-level shard scheduler (``repro.core.shard.schedule``).

The scheduler is a pure function of the compiled plan, the worker count
and ``min_chunk`` — these tests pin the properties the sharded engine's
correctness rests on: conflict-free (endpoint-disjoint) rounds that
agree with the legacy :func:`partition_conflict_free_rounds` partition,
cost-balanced chunk bounds that tile each round exactly, a contended
context-row mask that marks precisely the rows shared across edges of
one round, and worker-count independence of the round structure.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SUPAConfig
from repro.core.engine.benchmark import _steady_state_records
from repro.core.engine.plan import compile_plan
from repro.core.model import SUPA
from repro.core.shard import build_schedule, partition_conflict_free_rounds
from repro.core.shard.schedule import _chunk_bounds, _partition_round_indices
from repro.datasets.zoo import movielens
from repro.graph.streams import StreamEdge


def uv_from_pairs(pairs):
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def edges_from_pairs(pairs):
    return [StreamEdge(u, v, "r", float(i)) for i, (u, v) in enumerate(pairs)]


@pytest.fixture(scope="module")
def compiled_plan():
    """A real compiled plan over a warm graph (walks + negatives live)."""
    dataset = movielens(scale=0.08, seed=3)
    model = SUPA.for_dataset(dataset, config=SUPAConfig(seed=7, engine="batched"))
    records = _steady_state_records(model, dataset, 256, 96)
    return model, compile_plan(model, records, model.engine.candidate_cache)


# --------------------------------------------------- round partition fixtures


class TestRoundPartition:
    def test_disjoint_edges_one_round(self):
        rounds = _partition_round_indices(
            uv_from_pairs([(0, 1), (2, 3), (4, 5)])
        )
        assert rounds == [[0, 1, 2]]

    def test_star_graph_fully_sequential(self):
        rounds = _partition_round_indices(uv_from_pairs([(0, i) for i in range(1, 6)]))
        assert rounds == [[0], [1], [2], [3], [4]]

    def test_chain_respects_per_node_time_order(self):
        # (0,1),(1,2),(2,3): each edge conflicts with its predecessor and
        # the per-node time-order constraint forbids hoisting (2,3) into
        # round 0, so the chain is fully sequential.
        rounds = _partition_round_indices(uv_from_pairs([(0, 1), (1, 2), (2, 3)]))
        assert rounds == [[0], [1], [2]]

    def test_interleaved_independent_pairs_share_rounds(self):
        rounds = _partition_round_indices(
            uv_from_pairs([(0, 1), (2, 3), (0, 1), (2, 3)])
        )
        assert rounds == [[0, 1], [2, 3]]

    def test_empty(self):
        assert _partition_round_indices(np.empty((0, 2), dtype=np.int64)) == []

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
        index_rounds = _partition_round_indices(uv_from_pairs(pairs))
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
        rounds = _partition_round_indices(uv)
        flat = sorted(i for r in rounds for i in r)
        assert flat == list(range(uv.shape[0]))
        for r in rounds:
            assert r == sorted(r)  # plan (= time) order within a round
            touched = set()
            for i in r:
                u, v = int(uv[i, 0]), int(uv[i, 1])
                assert u not in touched and v not in touched
                touched.update((u, v))


# ------------------------------------------------------------- chunk bounds


class TestChunkBounds:
    def test_empty_round(self):
        assert _chunk_bounds(np.empty(0), 4, 2) == ()

    def test_small_round_single_chunk(self):
        assert _chunk_bounds(np.ones(3), 4, 8) == ((0, 3),)

    def test_bounds_tile_the_round(self):
        rng = np.random.default_rng(5)
        for k in (1, 2, 7, 16, 33):
            costs = rng.uniform(0.5, 3.0, size=k)
            bounds = _chunk_bounds(costs, 4, 2)
            assert bounds[0][0] == 0 and bounds[-1][1] == k
            for (_, a_end), (b_start, _) in zip(bounds, bounds[1:]):
                assert a_end == b_start
            assert all(s < e for s, e in bounds)

    def test_chunk_count_respects_workers_and_min_chunk(self):
        costs = np.ones(16)
        assert len(_chunk_bounds(costs, 4, 2)) <= 4
        # min_chunk=8 over 16 edges allows at most 2 chunks
        assert len(_chunk_bounds(costs, 4, 8)) <= 2
        assert len(_chunk_bounds(costs, 1, 1)) == 1

    def test_cost_balancing_moves_the_cut(self):
        # One hop-heavy tail edge: a naive halfway split would put 7
        # cheap edges against 1 expensive one; the cost cumsum cut
        # lands the boundary so both chunks carry similar cost.
        costs = np.asarray([1.0] * 7 + [7.0])
        (s0, e0), (s1, e1) = _chunk_bounds(costs, 2, 1)
        assert float(costs[s0:e0].sum()) == pytest.approx(7.0)
        assert float(costs[s1:e1].sum()) == pytest.approx(7.0)


# ------------------------------------------------------- schedule on a plan


class TestBuildSchedule:
    def test_validation(self, compiled_plan):
        _, plan = compiled_plan
        with pytest.raises(ValueError):
            build_schedule(plan, 0)
        with pytest.raises(ValueError):
            build_schedule(plan, 2, min_chunk=0)

    def test_empty_plan(self):
        empty = types.SimpleNamespace(num_edges=0)
        schedule = build_schedule(empty, 4, 2)
        assert schedule.num_rounds == 0
        assert schedule.stats["edges"] == 0
        assert schedule.stats["imbalance"] == 1.0

    def test_rounds_cover_plan_and_are_conflict_free(self, compiled_plan):
        _, plan = compiled_plan
        schedule = build_schedule(plan, 4, 2)
        covered = np.concatenate([r.edges for r in schedule.rounds])
        assert sorted(covered.tolist()) == list(range(plan.num_edges))
        for rnd in schedule.rounds:
            assert (np.diff(rnd.edges) > 0).all()
            endpoints = plan.uv[rnd.edges]
            touched = set()
            for u, v in endpoints.tolist():
                assert u not in touched and v not in touched
                touched.update((u, v))

    def test_round_structure_is_worker_count_independent(self, compiled_plan):
        _, plan = compiled_plan
        schedules = {w: build_schedule(plan, w, 2) for w in (1, 2, 4)}
        base = schedules[1]
        for w in (2, 4):
            other = schedules[w]
            assert other.num_rounds == base.num_rounds
            for a, b in zip(base.rounds, other.rounds):
                assert a.edges.tobytes() == b.edges.tobytes()
                assert a.ctx_rows.tobytes() == b.ctx_rows.tobytes()
                assert a.ctx_dup_mask.tobytes() == b.ctx_dup_mask.tobytes()
                assert a.contended_edges.tobytes() == b.contended_edges.tobytes()

    def test_chunks_tile_each_round(self, compiled_plan):
        _, plan = compiled_plan
        schedule = build_schedule(plan, 4, 2)
        for rnd in schedule.rounds:
            k = rnd.num_edges
            bounds = rnd.chunk_bounds
            assert 1 <= len(bounds) <= min(4, k)
            assert bounds[0][0] == 0 and bounds[-1][1] == k
            for (_, a_end), (b_start, _) in zip(bounds, bounds[1:]):
                assert a_end == b_start

    def test_contended_mask_matches_recomputation(self, compiled_plan):
        """``ctx_dup_mask`` marks exactly the context rows appearing in
        more than one edge's block of the round; ``contended_edges`` are
        exactly the edges owning at least one such row."""
        _, plan = compiled_plan
        schedule = build_schedule(plan, 4, 2)
        uniq_counts = np.diff(plan.ctx_uniq_offsets)
        saw_contention = False
        for rnd in schedule.rounds:
            counts = uniq_counts[rnd.edges]
            assert rnd.ctx_bounds.tolist() == [0, *np.cumsum(counts).tolist()]
            blocks = [
                plan.ctx_uniq_rows[
                    plan.ctx_uniq_offsets[e] : plan.ctx_uniq_offsets[e] + c
                ]
                for e, c in zip(rnd.edges.tolist(), counts.tolist())
            ]
            concat = (
                np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
            )
            assert concat.tobytes() == rnd.ctx_rows.tobytes()
            owners = {}
            for local, block in enumerate(blocks):
                for row in block.tolist():
                    owners.setdefault(row, set()).add(local)
            expected_mask = np.asarray(
                [len(owners[row]) > 1 for row in concat.tolist()], dtype=bool
            )
            assert expected_mask.tolist() == rnd.ctx_dup_mask.tolist()
            expected_edges = sorted(
                {local for row, ls in owners.items() if len(ls) > 1 for local in ls}
            )
            assert rnd.contended_edges.tolist() == expected_edges
            saw_contention = saw_contention or bool(expected_edges)
        assert schedule.stats["contended_ctx_rows"] == sum(
            int(r.ctx_dup_mask.sum()) for r in schedule.rounds
        )
        # the fixture batch is dense enough to exercise the per-edge path
        assert saw_contention

    def test_stats_agree_with_stream_edge_partition(self, compiled_plan):
        """Plan-level rounds == StreamEdge-level rounds on the same batch
        (same greedy algorithm), so the summary stats coincide."""
        _, plan = compiled_plan
        schedule = build_schedule(plan, 4, 2)
        edges = [
            StreamEdge(int(u), int(v), "r", float(i))
            for i, (u, v) in enumerate(plan.uv.tolist())
        ]
        legacy = partition_conflict_free_rounds(edges)
        assert schedule.num_rounds == len(legacy)
        assert schedule.stats["edges"] == plan.num_edges
        assert schedule.stats["max_round"] == max(len(r) for r in legacy)
        assert schedule.stats["parallelism_bound"] == pytest.approx(
            plan.num_edges / len(legacy)
        )
        assert schedule.stats["imbalance"] >= 1.0 - 1e-12
