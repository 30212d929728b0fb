"""Tests for the edge-level conflict-free round partition (the
reference ``partition_round_indices`` is compared against)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine.schedule import partition_conflict_free_rounds
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


@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 15), st.integers(16, 30)), min_size=1, max_size=60
    )
)
@settings(max_examples=50, deadline=None)
def test_partition_invariants(pairs):
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
