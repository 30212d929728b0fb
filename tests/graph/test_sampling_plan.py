"""The plan sampler's RNG-order contract and the candidate memo.

``sample_walks_into`` feeds the batched engine; its draws must track
:func:`sample_influenced_graph_compiled` exactly, and the memo behind
:meth:`DMHG.candidates` must answer repeats without going stale when
the graph mutates.
"""

from typing import NamedTuple

import numpy as np
import pytest

from repro.graph.dmhg import DMHG
from repro.graph.sampling import (
    CompiledMetapathSet,
    sample_influenced_graph_compiled,
    sample_walks_into,
)


@pytest.fixture
def compiled(small_graph, metapath):
    return CompiledMetapathSet([metapath], small_graph.schema)


class _WalkArrays(NamedTuple):
    nodes: np.ndarray
    rels: np.ndarray
    times: np.ndarray
    offsets: np.ndarray
    sides: np.ndarray


def _sample_walk_arrays(graph, u, v, compiled, rng, num_walks=4):
    """One edge's walks through :func:`sample_walks_into`, as arrays."""
    nodes, rels, times, offsets, sides = [], [], [], [0], []
    count = sample_walks_into(
        graph, u, v, compiled, num_walks, 4, rng,
        nodes, rels, times, offsets, sides,
    )
    assert count == len(nodes)
    return _WalkArrays(
        np.asarray(nodes, dtype=np.int64),
        np.asarray(rels, dtype=np.int64),
        np.asarray(times, dtype=np.float64),
        np.asarray(offsets, dtype=np.int64),
        np.asarray(sides, dtype=np.int64),
    )


def _plan(graph, compiled, seed):
    """Walks of edge (0, 5)."""
    rng = np.random.default_rng(seed)
    return _sample_walk_arrays(graph, 0, 5, compiled, rng), rng


class TestPlanSampler:
    def test_matches_object_sampler_draw_for_draw(self, small_graph, compiled):
        """Same seed → same hops in the same order as the legacy object
        sampler, and the exact same number of RNG draws consumed."""
        plan, plan_rng = _plan(small_graph, compiled, seed=5)
        obj_rng = np.random.default_rng(5)
        influenced = sample_influenced_graph_compiled(
            small_graph, 0, 5, 0, 9.0, compiled,
            num_walks=4, walk_length=4, rng=obj_rng,
        )
        walks = [(0, w) for w in influenced.walks_u] + [
            (1, w) for w in influenced.walks_v
        ]
        assert plan.sides.tolist() == [side for side, _ in walks]
        flat_nodes, flat_rels, flat_times, offsets = [], [], [], [0]
        for _, walk in walks:
            for step in walk.hops():
                flat_nodes.append(step.node)
                flat_rels.append(step.rel)
                flat_times.append(step.t)
            offsets.append(len(flat_nodes))
        assert plan.nodes.tolist() == flat_nodes
        assert plan.rels.tolist() == flat_rels
        assert plan.times.tolist() == flat_times
        assert plan.offsets.tolist() == offsets
        assert plan_rng.bit_generator.state == obj_rng.bit_generator.state

    def test_empty_graph_yields_empty_plan(self, schema, compiled):
        g = DMHG(schema)
        g.add_nodes("user", 1)
        g.add_nodes("video", 1)
        plan = _sample_walk_arrays(
            g, 0, 1, compiled, np.random.default_rng(0), num_walks=3
        )
        assert plan.nodes.size == 0
        assert plan.offsets.tolist() == [0]
        assert plan.sides.size == 0


def _copy(graph):
    """The same nodes and edges in a fresh graph (an empty memo)."""
    g = DMHG(graph.schema, max_neighbors=graph.max_neighbors)
    for node in range(graph.num_nodes):
        g.add_node(graph.node_type(node))
    for e in graph.edges():
        g.add_edge(e.u, e.v, graph.schema.edge_types[e.rel], e.t)
    return g


class TestCandidateMemo:
    def test_repeat_queries_hit(self, small_graph, compiled):
        """A replay over an unchanged graph reuses every memoised array."""
        _plan(small_graph, compiled, seed=1)
        first = [dict(memo) for memo in small_graph._memo]
        assert any(first)
        _plan(small_graph, compiled, seed=1)
        for before, after in zip(first, small_graph._memo):
            assert after.keys() == before.keys()
            assert all(after[key] is arrays for key, arrays in before.items())

    def test_mutation_invalidates(self, small_graph, compiled):
        _plan(small_graph, compiled, seed=1)
        small_graph.add_edge(0, 9, "click", 10.0)
        # Post-mutation, memoised answers must match a fresh graph's.
        warm, warm_rng = _plan(small_graph, compiled, seed=2)
        fresh, fresh_rng = _plan(_copy(small_graph), compiled, seed=2)
        for a, b in zip(warm, fresh):
            assert a.tobytes() == b.tobytes()
        assert warm_rng.bit_generator.state == fresh_rng.bit_generator.state

    def test_candidates_reflect_new_edge(self, small_graph):
        every_rel = frozenset(range(len(small_graph.schema.edge_types)))
        before = small_graph.candidates(0, every_rel, 1)[0].tolist()
        assert small_graph.candidates(0, every_rel, 1)[0].tolist() == before
        small_graph.add_edge(0, 9, "click", 10.0)
        assert small_graph.candidates(0, every_rel, 1)[0].tolist() == before + [9]
