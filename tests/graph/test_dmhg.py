"""Tests for the DMHG container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.dmhg import DMHG
from repro.graph.schema import GraphSchema


class TestNodes:
    def test_add_node_assigns_sequential_ids(self, schema):
        g = DMHG(schema)
        assert g.add_node("user") == 0
        assert g.add_node("video") == 1
        assert g.num_nodes == 2

    def test_node_type(self, small_graph):
        assert small_graph.node_type(0) == "user"
        assert small_graph.node_type(5) == "video"
        assert small_graph.node_type_id(5) == 1

    def test_nodes_of_type(self, small_graph):
        users = small_graph.nodes_of_type("user")
        assert users.dtype == np.int64 and not users.flags.writeable
        assert users.tolist() == [0, 1, 2, 3, 4]
        assert small_graph.nodes_of_type("video").tolist() == [5, 6, 7, 8, 9]
        assert small_graph.nodes_of_type("user") is users  # cached

    def test_nodes_of_type_sees_a_later_node(self, small_graph):
        videos = small_graph.nodes_of_type("video")
        users = small_graph.nodes_of_type("user")
        new = small_graph.add_node("video")
        assert small_graph.nodes_of_type("video").tolist() == [5, 6, 7, 8, 9, new]
        assert videos.tolist() == [5, 6, 7, 8, 9]  # an earlier answer is kept
        assert small_graph.nodes_of_type("user") is users  # other types stay

    def test_node_type_ids_array(self, small_graph):
        ids = small_graph.node_type_ids()
        assert ids.shape == (10,)
        assert list(ids[:5]) == [0] * 5

    def test_out_of_range_raises(self, small_graph):
        with pytest.raises(IndexError):
            small_graph.node_type(99)


class TestEdges:
    def test_add_edge_counts(self, small_graph):
        assert small_graph.num_edges == 8

    def test_add_edge_wrong_endpoint_types(self, small_graph):
        with pytest.raises(ValueError, match="connects user->video"):
            small_graph.add_edge(5, 0, "click", 9.0)

    def test_add_edge_unknown_type(self, small_graph):
        with pytest.raises(KeyError):
            small_graph.add_edge(0, 5, "share", 9.0)

    def test_add_edge_unknown_node(self, small_graph):
        with pytest.raises(IndexError):
            small_graph.add_edge(0, 99, "click", 9.0)

    def test_edges_iteration_order(self, small_graph):
        edges = list(small_graph.edges())
        assert [e.t for e in edges] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]

    def test_edge_at(self, small_graph):
        e = small_graph.edge_at(0)
        assert (e.u, e.v, e.t) == (0, 5, 1.0)

    def test_degree_counts_both_endpoints(self, small_graph):
        assert small_graph.degree(0) == 2
        assert small_graph.degree(5) == 2

    def test_degree_sum_is_twice_edges(self, small_graph):
        assert small_graph.degrees().sum() == 2 * small_graph.num_edges

    def test_last_interaction_time(self, small_graph):
        assert small_graph.last_interaction_time(0) == 2.0
        assert small_graph.last_interaction_time(5) == 3.0

    def test_last_time_never_seen(self, schema):
        g = DMHG(schema)
        g.add_node("user")
        assert g.last_interaction_time(0) == -np.inf

    def test_last_interaction_times_vectorised(self, small_graph):
        times = small_graph.last_interaction_times([0, 5])
        assert list(times) == [2.0, 3.0]

    def test_last_interaction_times_match_scalar(self, schema):
        """The gather over the growable buffer equals the scalar lookup
        (a Python float) for every node, across buffer growth."""
        g = DMHG(schema)
        g.add_nodes("user", 20)
        g.add_nodes("video", 20)
        for i in range(30):
            g.add_edge(i % 20, 20 + (7 * i) % 20, "click", 0.5 * i)
        g.add_node("user")  # never interacts: -inf
        nodes = list(range(g.num_nodes))
        scalar = [g.last_interaction_time(n) for n in nodes]
        assert all(type(t) is float for t in scalar)
        assert g.last_interaction_times(nodes).tolist() == scalar
        assert g.last_interaction_times([]).shape == (0,)
        with pytest.raises(IndexError):
            g.last_interaction_times([g.num_nodes])


class TestDeletion:
    def test_remove_edge(self, small_graph):
        small_graph.remove_edge(0)
        assert small_graph.num_edges == 7
        assert 0 not in [e.index for e in small_graph.edges()]
        assert small_graph.degree(0) == 1

    def test_remove_idempotent(self, small_graph):
        small_graph.remove_edge(0)
        small_graph.remove_edge(0)
        assert small_graph.num_edges == 7

    def test_removed_edge_not_traversable(self, small_graph):
        small_graph.remove_edge(0)
        assert all(other != 5 for other, _, _, _ in small_graph.neighbors(0))

    def test_remove_out_of_range(self, small_graph):
        with pytest.raises(IndexError):
            small_graph.remove_edge(99)


class TestNeighbors:
    def test_basic(self, small_graph):
        nbrs = small_graph.neighbors(0)
        assert {n for n, _, _, _ in nbrs} == {5, 6}

    def test_candidates_match_neighbors(self, small_graph):
        click, video = 0, 1
        slow = [
            e for e in small_graph.neighbors(0)
            if e[1] == click and small_graph.node_type_id(e[0]) == video
        ]
        others, rels, times = small_graph.candidates(0, frozenset({click}), video)
        assert [(n, r, t) for n, r, t, _ in slow] == list(
            zip(others.tolist(), rels.tolist(), times.tolist())
        )

    @pytest.mark.parametrize("node", [-1, 10])
    def test_candidates_refuse_out_of_range_nodes(self, small_graph, node):
        """A negative id must not wrap to the last node's answer."""
        with pytest.raises(IndexError, match=f"node {node} out of range"):
            small_graph.candidates(node, frozenset({0}), 1)
        with pytest.raises(IndexError, match=f"node {node} out of range"):
            small_graph.neighbors(node)


class TestRecencyCap:
    def test_cap_drops_oldest(self, schema):
        g = DMHG(schema, max_neighbors=2)
        g.add_nodes("user", 1)
        g.add_nodes("video", 4)
        for i, v in enumerate((1, 2, 3)):
            g.add_edge(0, v, "click", float(i))
        nbrs = {n for n, _, _, _ in g.neighbors(0)}
        assert nbrs == {2, 3}  # the oldest neighbour (1) fell out

    def test_cap_validation(self, schema):
        with pytest.raises(ValueError):
            DMHG(schema, max_neighbors=0)

    def test_cap_does_not_remove_global_edges(self, schema):
        g = DMHG(schema, max_neighbors=1)
        g.add_nodes("user", 1)
        g.add_nodes("video", 3)
        g.add_edge(0, 1, "click", 1.0)
        g.add_edge(0, 2, "click", 2.0)
        assert g.num_edges == 2


class TestViews:
    def test_repr(self, small_graph):
        assert "|V|=10" in repr(small_graph)


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=30
    )
)
@settings(max_examples=40, deadline=None)
def test_degree_invariant_under_random_edges(edges):
    """Sum of degrees is always twice the live edge count."""
    schema = GraphSchema.create(["n"], ["r"])
    g = DMHG(schema)
    g.add_nodes("n", 5)
    for t, (u, v) in enumerate(edges):
        g.add_edge(u, v, "r", float(t))
    assert g.degrees().sum() == 2 * g.num_edges
