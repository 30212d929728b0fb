"""Tests for the plan-level round scheduler (``repro.core.engine.schedule``).

The schedule is a pure function of the compiled plan — these tests pin
the properties the engine's correctness rests on: conflict-free
(endpoint-disjoint) rounds that agree with the StreamEdge-level
:func:`partition_conflict_free_rounds` partition, a round-major layout
that covers the plan exactly, and an occurrence rank that is non-zero
precisely on the context rows shared across edges of one round.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SUPAConfig
from repro.core.engine.plan import compile_plan
from repro.core.engine.schedule import (
    build_schedule,
    partition_conflict_free_rounds,
    partition_round_indices,
)
from repro.core.inslearn import _record_and_observe
from repro.core.model import SUPA
from repro.datasets.zoo import movielens
from repro.graph.streams import StreamEdge


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
    """A real compiled plan over a warm graph (walks + negatives live)."""
    dataset = movielens(scale=0.08, seed=3)
    model = SUPA.for_dataset(dataset, config=SUPAConfig(seed=7))
    records = _steady_state_records(model, dataset, 256, 96)
    return model, compile_plan(model, records, model.engine.candidate_cache)


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


# ------------------------------------------------------- schedule on a plan


def _round_slices(bounds):
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


class TestBuildSchedule:
    def test_empty_plan(self, compiled_plan):
        model, _ = compiled_plan
        schedule = build_schedule(
            compile_plan(model, [], model.engine.candidate_cache)
        )
        assert schedule.num_rounds == 0
        assert schedule.contended_ctx_rows == 0
        assert schedule.edges.size == 0 and schedule.ctx_rows.size == 0

    def test_rounds_cover_plan_and_are_conflict_free(self, compiled_plan):
        _, plan = compiled_plan
        schedule = build_schedule(plan)
        assert sorted(schedule.edges.tolist()) == list(range(plan.num_edges))
        assert schedule.nodes.tobytes() == plan.uv[schedule.edges].tobytes()
        for e0, e1 in _round_slices(schedule.edge_bounds):
            assert (np.diff(schedule.edges[e0:e1]) > 0).all()
            touched = set()
            for u, v in plan.uv[schedule.edges[e0:e1]].tolist():
                assert u not in touched and v not in touched
                touched.update((u, v))

    def test_round_major_layout_matches_the_plan(self, compiled_plan):
        """Every hop, negative and unique context row of the plan lands
        in its edge's round, in plan order within the edge."""
        _, plan = compiled_plan
        schedule = build_schedule(plan)
        for name, offsets, flat in (
            ("step", plan.step_offsets, plan.step_rows),
            ("neg", plan.neg_offsets, plan.neg_rows),
            ("ctx", plan.ctx_uniq_offsets, plan.ctx_uniq_rows),
        ):
            expected = [
                flat[offsets[e] : offsets[e + 1]] for e in schedule.edges.tolist()
            ]
            rows = getattr(schedule, f"{name}_rows")
            assert rows.tobytes() == np.concatenate(expected).tobytes()
            bounds = getattr(schedule, f"{name}_bounds")
            per_edge = np.asarray([len(x) for x in expected], dtype=np.int64)
            for r, (e0, e1) in enumerate(
                _round_slices(schedule.edge_bounds)
            ):
                assert bounds[r + 1] - bounds[r] == per_edge[e0:e1].sum()
        # a hop's source row addresses its own edge's side in the stack
        step_edge = np.repeat(
            np.arange(plan.num_edges), np.diff(plan.step_offsets)[schedule.edges]
        )
        round_of_edge = np.repeat(
            np.arange(schedule.num_rounds), np.diff(schedule.edge_bounds)
        )
        local_edge = step_edge - schedule.edge_bounds[round_of_edge[step_edge]]
        assert (schedule.step_source // 2 == local_edge).all()
        assert (schedule.step_owner == step_edge).all()

    def test_context_accumulation_indices_rebuild_the_catalogue(self, compiled_plan):
        """``ctx_first`` + the later lists route every stack row to the
        unique context row the plan's catalogue assigns it."""
        _, plan = compiled_plan
        schedule = build_schedule(plan)
        for r, (e0, e1) in enumerate(_round_slices(schedule.edge_bounds)):
            edges = schedule.edges[e0:e1].tolist()
            # the round's stack: interaction pair rows | hop rows | negative rows
            stack_rows = np.concatenate(
                [plan.inter_rows[edges].reshape(-1)]
                + [plan.step_rows[plan.step_offsets[e] : plan.step_offsets[e + 1]] for e in edges]
                + [plan.neg_rows[plan.neg_offsets[e] : plan.neg_offsets[e + 1]] for e in edges]
            )
            c0, c1 = schedule.ctx_bounds[r], schedule.ctx_bounds[r + 1]
            rows = schedule.ctx_rows[c0:c1]
            first = schedule.ctx_first[c0:c1]
            assert (stack_rows[first] == rows).all()
            l0, l1 = schedule.ctx_later_bounds[r], schedule.ctx_later_bounds[r + 1]
            sel = schedule.ctx_later_sel[l0:l1]
            dest = schedule.ctx_later_dest[l0:l1]
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
        _, plan = compiled_plan
        schedule = build_schedule(plan)
        contended = 0
        for r, (c0, c1) in enumerate(_round_slices(schedule.ctx_bounds)):
            seen = {}
            expected = []
            for row in schedule.ctx_rows[c0:c1].tolist():
                expected.append(seen.get(row, 0))
                seen[row] = expected[-1] + 1
            assert schedule.ctx_rank[c0:c1].tolist() == expected
            assert schedule.ctx_max_rank[r] == max(expected, default=0)
            contended += sum(n for n in seen.values() if n > 1)
        assert schedule.contended_ctx_rows == contended
        # the fixture batch is dense enough to exercise the sweep path
        assert contended > 0

    def test_stats_agree_with_stream_edge_partition(self, compiled_plan):
        """Plan-level rounds == StreamEdge-level rounds on the same batch
        (same greedy algorithm), so the round counts and sizes coincide."""
        _, plan = compiled_plan
        schedule = build_schedule(plan)
        edges = [
            StreamEdge(int(u), int(v), "r", float(i))
            for i, (u, v) in enumerate(plan.uv.tolist())
        ]
        rounds = partition_conflict_free_rounds(edges)
        sizes = np.diff(schedule.edge_bounds)
        assert sizes.tolist() == [len(r) for r in rounds]
        assert sizes.sum() == plan.num_edges
