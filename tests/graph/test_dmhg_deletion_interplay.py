"""Failure-injection tests: deletion interacting with walks and sampling."""

import numpy as np
import pytest

from repro.graph.dmhg import DMHG
from repro.graph.metapath import MultiplexMetapath
from repro.graph.schema import GraphSchema
from tests.graph.test_sampling import sample_influenced_graph
from tests.oracle.sampling import sample_metapath_walk


@pytest.fixture
def graph(schema):
    g = DMHG(schema)
    g.add_nodes("user", 4)
    g.add_nodes("video", 4)
    for i, (u, v) in enumerate([(0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6)]):
        g.add_edge(u, v, "click", float(i))
    return g


class TestWalksAfterDeletion:
    def test_walks_never_cross_deleted_edges(self, graph, metapath):
        # delete every edge incident to video 4
        for e in list(graph.edges()):
            if 4 in (e.u, e.v):
                graph.remove_edge(e.index)
        for seed in range(20):
            walk = sample_metapath_walk(graph, 1, metapath, 6, rng=seed)
            assert 4 not in walk.nodes()

    def test_isolated_by_deletion_gives_trivial_walks(self, graph, metapath):
        for e in list(graph.edges()):
            if 0 in (e.u, e.v):
                graph.remove_edge(e.index)
        walk = sample_metapath_walk(graph, 0, metapath, 5, rng=0)
        assert len(walk) == 1

    def test_influenced_graph_after_mass_deletion(self, graph, metapath):
        for e in list(graph.edges()):
            graph.remove_edge(e.index)
        ig = sample_influenced_graph(
            graph, 0, 4, "click", 10.0, [metapath], num_walks=3, walk_length=4, rng=0
        )
        assert ig.influenced_nodes() == set()

    def test_degrees_consistent_after_interleaved_ops(self, graph):
        graph.remove_edge(0)
        graph.add_edge(0, 7, "like", 10.0)
        graph.remove_edge(3)
        assert graph.degrees().sum() == 2 * graph.num_edges
