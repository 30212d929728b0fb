"""Tests for metapath walks and influenced graph sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.dmhg import DMHG
from repro.graph.metapath import MultiplexMetapath
from repro.graph.sampling import (
    CompiledMetapathSet,
    random_walk_corpus,
    sample_pass_walks,
)
from repro.graph.schema import GraphSchema

from tests.oracle.sampling import (
    InfluencedGraph,
    sample_influenced_graph_compiled,
    sample_metapath_walk,
    uniform_pick,
)


def _pass_walk_nodes(graph, u, v, compiled, block):
    """Hop nodes of one edge's walks through :func:`sample_pass_walks`."""
    uv = np.asarray([[u, v]], dtype=np.int64)
    types = graph.node_type_ids()[uv]
    return sample_pass_walks(graph, uv, types, compiled, block[None]).nodes.tolist()


def sample_influenced_graph(
    graph, u, v, edge_type, t, metapaths, num_walks, walk_length, rng
):
    """The Eq. 1-3 object sampler (the engine's oracle), driven with
    names and a seed that draws the edge's ``(2, k, l)`` uniform block."""
    return sample_influenced_graph_compiled(
        graph, u, v, graph.schema.edge_type_id(edge_type), t,
        CompiledMetapathSet(metapaths, graph.schema), num_walks, walk_length,
        uniforms=np.random.default_rng(rng).random((2, num_walks, walk_length)),
    )


class TestMetapathWalk:
    def test_walk_respects_types(self, small_graph, metapath):
        for seed in range(10):
            walk = sample_metapath_walk(small_graph, 0, metapath, 6, rng=seed)
            for i, step in enumerate(walk.steps):
                expected = metapath.node_types[i % (len(metapath) - 1)]
                assert small_graph.node_type(step.node) == expected

    def test_walk_respects_edge_types(self, small_graph):
        mp = MultiplexMetapath.create(["user", "video", "user"], [["like"], ["like"]])
        walk = sample_metapath_walk(small_graph, 0, mp, 6, rng=0)
        for step in walk.steps[1:]:
            assert small_graph.schema.edge_types[step.rel] == "like"

    def test_walk_stops_without_candidates(self, schema, metapath):
        g = DMHG(schema)
        g.add_nodes("user", 1)
        g.add_nodes("video", 1)
        walk = sample_metapath_walk(g, 0, metapath, 5, rng=0)
        assert len(walk) == 1  # isolated start node

    def test_wrong_head_type_raises(self, small_graph, metapath):
        with pytest.raises(ValueError, match="metapath head"):
            sample_metapath_walk(small_graph, 5, metapath, 5, rng=0)

    def test_bad_length_raises(self, small_graph, metapath):
        with pytest.raises(ValueError):
            sample_metapath_walk(small_graph, 0, metapath, 0, rng=0)

    def test_deterministic_per_seed(self, small_graph, metapath):
        a = sample_metapath_walk(small_graph, 0, metapath, 6, rng=3)
        b = sample_metapath_walk(small_graph, 0, metapath, 6, rng=3)
        assert a.nodes() == b.nodes()

    def test_walk_accessors(self, small_graph, metapath):
        walk = sample_metapath_walk(small_graph, 0, metapath, 4, rng=0)
        assert walk.nodes()[0] == 0 == walk.steps[0].node
        assert walk.steps[0].rel is None and walk.steps[0].t is None
        assert len(walk.nodes()) == len(walk)


class TestInfluencedGraph:
    def test_walk_counts(self, small_graph, metapath):
        ig = sample_influenced_graph(
            small_graph, 0, 6, "click", 9.0, [metapath], num_walks=3, walk_length=4, rng=0
        )
        assert len(ig.walks_u) <= 3
        assert ig.u == 0 and ig.v == 6

    def test_influenced_excludes_interactive_nodes(self, small_graph, metapath):
        ig = sample_influenced_graph(
            small_graph, 0, 6, "click", 9.0, [metapath], num_walks=5, walk_length=5, rng=0
        )
        influenced = ig.influenced_nodes()
        assert 0 not in influenced
        assert 6 not in influenced

    def test_no_applicable_metapath_gives_empty(self, small_graph):
        mp = MultiplexMetapath.create(["video", "user", "video"], [["click"], ["click"]])
        ig = sample_influenced_graph(
            small_graph, 0, 5, "click", 9.0, [mp], num_walks=3, walk_length=4, rng=0
        )
        assert ig.walks_u == []  # node 0 is a user; metapath heads at video
        assert len(ig.walks_v) > 0  # node 5 is a video with click edges

    def test_compiled_variant_matches_semantics(self, small_graph, metapath):
        compiled = CompiledMetapathSet([metapath], small_graph.schema)
        ig = sample_influenced_graph_compiled(
            small_graph, 0, 6, 0, 9.0, compiled, num_walks=4, walk_length=4,
            uniforms=np.random.default_rng(0).random((2, 4, 4)),
        )
        assert isinstance(ig, InfluencedGraph)
        for walk in ig.walks:
            for i, step in enumerate(walk.steps):
                expected = metapath.node_types[i % (len(metapath) - 1)]
                assert small_graph.node_type(step.node) == expected


class TestUniformPick:
    """The pick rule ``int(u * n)`` the per-pass draw contract realises
    every metapath and hop choice with."""

    def test_largest_uniform_picks_the_last_index(self):
        top = float(np.nextafter(1.0, 0.0))
        rng = np.random.default_rng(0)
        sizes = (
            list(range(1, 4097))
            + [2**e + d for e in range(12, 41) for d in (-1, 0, 1)]
            + rng.integers(1, 2**40, size=2000).tolist()
        )
        for n in sizes:
            assert uniform_pick(top, n) == n - 1
            assert uniform_pick(0.0, n) == 0

    def test_largest_uniform_walks_to_the_last_candidates(self, small_graph, metapath):
        """A block of top uniforms picks the last schema and the last
        candidate at every hop, on both samplers, without overrunning."""
        compiled = CompiledMetapathSet([metapath], small_graph.schema)
        block = np.full((2, 2, 3), np.nextafter(1.0, 0.0))
        nodes = _pass_walk_nodes(small_graph, 0, 5, compiled, block)
        ig = sample_influenced_graph_compiled(
            small_graph, 0, 5, 0, 9.0, compiled, 2, 3, uniforms=block
        )
        expected = []
        current = 0
        for rel_ids, type_id in compiled.for_type(0)[0].filters_for(2):
            current = int(small_graph.candidates(current, rel_ids, type_id)[0][-1])
            expected.append(current)
        assert nodes == expected * 2
        assert [[s.node for s in w.steps[1:]] for w in ig.walks] == [expected] * 2

    def test_hop_picks_are_uniform_over_candidates(self, schema, metapath):
        """Fixed-seed chi-square: one node's first-hop picks over its 7
        candidates, 7000 walks from one uniform block."""
        g = DMHG(schema)
        g.add_nodes("user", 1)
        g.add_nodes("video", 7)
        for i in range(7):
            g.add_edge(0, 1 + i, "click", float(i))
        compiled = CompiledMetapathSet([metapath], schema)
        walks = 7000
        block = np.random.default_rng(2023).random((2, walks, 2))
        uv = np.asarray([[0, 1]], dtype=np.int64)
        pass_walks = sample_pass_walks(
            g, uv, g.node_type_ids()[uv], compiled, block[None]
        )
        assert pass_walks.sides.tolist() == [0] * walks
        counts = np.bincount(pass_walks.nodes - 1, minlength=7)
        expected = walks / 7
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 22.46 is the 0.999 quantile of chi-square with 6 degrees of freedom
        assert chi2 < 22.46, counts


class TestCorpus:
    def test_unconstrained_corpus(self, small_graph):
        corpus = random_walk_corpus(small_graph, num_walks=2, walk_length=4, rng=0)
        assert corpus
        for walk in corpus:
            assert len(walk) > 1

    def test_metapath_corpus_respects_types(self, small_graph, metapath):
        corpus = random_walk_corpus(
            small_graph, num_walks=2, walk_length=4, rng=0, metapaths=[metapath]
        )
        for walk in corpus:
            assert small_graph.node_type(walk[0]) == "user"

    def test_isolated_nodes_skipped(self, schema):
        g = DMHG(schema)
        g.add_nodes("user", 3)
        assert random_walk_corpus(g, 2, 4, rng=0) == []


@given(seed=st.integers(0, 1000), length=st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_walk_edges_exist_in_graph(seed, length):
    """Every hop of a sampled walk corresponds to a real graph edge."""
    schema = GraphSchema.create(["a"], ["r"])
    g = DMHG(schema)
    g.add_nodes("a", 6)
    rng = np.random.default_rng(0)
    pairs = set()
    for t in range(12):
        u, v = int(rng.integers(6)), int(rng.integers(6))
        g.add_edge(u, v, "r", float(t))
        pairs.add(frozenset((u, v)))
    mp = MultiplexMetapath.create(["a", "a"], [["r"]])
    walk = sample_metapath_walk(g, 0, mp, length, rng=seed)
    nodes = walk.nodes()
    for a, b in zip(nodes, nodes[1:]):
        assert frozenset((a, b)) in pairs
