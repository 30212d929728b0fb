"""The plan sampler's RNG-order contract and the neighbour cache.

``sample_walks_into`` feeds the batched engine; its draws must track
:func:`sample_influenced_graph_compiled` exactly, and its
:class:`NeighborCandidateCache` must drop itself the instant the graph
mutates.
"""

from typing import NamedTuple

import numpy as np
import pytest

from repro.graph.dmhg import DMHG
from repro.graph.sampling import (
    CompiledMetapathSet,
    NeighborCandidateCache,
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


def _sample_walk_arrays(graph, u, v, compiled, rng, cache, num_walks=4):
    """One edge's walks through :func:`sample_walks_into`, as arrays."""
    nodes, rels, times, offsets, sides = [], [], [], [0], []
    count = sample_walks_into(
        graph, u, v, compiled, num_walks, 4, rng, cache,
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


def _plan(small_graph, compiled, seed, cache=None):
    """Walks of edge (0, 5); a fresh cache unless one is passed."""
    rng = np.random.default_rng(seed)
    if cache is None:
        cache = NeighborCandidateCache(small_graph)
    return _sample_walk_arrays(small_graph, 0, 5, compiled, rng, cache), rng


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
            g, 0, 1, compiled, np.random.default_rng(0),
            NeighborCandidateCache(g), num_walks=3,
        )
        assert plan.nodes.size == 0
        assert plan.offsets.tolist() == [0]
        assert plan.sides.size == 0


class TestNeighborCandidateCache:
    def test_repeat_queries_hit(self, small_graph, compiled):
        cache = NeighborCandidateCache(small_graph)
        _plan(small_graph, compiled, seed=1, cache=cache)
        misses_after_first = cache.misses
        _plan(small_graph, compiled, seed=1, cache=cache)
        assert cache.misses == misses_after_first  # all repeats served
        assert cache.hits > 0

    def test_mutation_invalidates(self, small_graph, compiled):
        cache = NeighborCandidateCache(small_graph)
        _plan(small_graph, compiled, seed=1, cache=cache)
        small_graph.add_edge(0, 9, "click", 10.0)
        # Post-mutation, cached answers must match a fresh cache's.
        stale, stale_rng = _plan(small_graph, compiled, seed=2, cache=cache)
        fresh, fresh_rng = _plan(small_graph, compiled, seed=2)
        for a, b in zip(stale, fresh):
            assert a.tobytes() == b.tobytes()
        assert stale_rng.bit_generator.state == fresh_rng.bit_generator.state

    def test_candidates_reflect_new_edge(self, small_graph, compiled):
        """The sampler's protocol: ``sync`` once, then ``store_get`` with
        ``fill`` on a miss."""
        cache = NeighborCandidateCache(small_graph)
        key = (0, frozenset(range(len(small_graph.schema.edge_types))), None)
        before = cache.fill(key)[0].tolist()
        assert cache.store_get(key)[0].tolist() == before
        small_graph.add_edge(0, 9, "click", 10.0)
        cache.sync()
        assert cache.store_get(key) is None
        assert cache.fill(key)[0].tolist() == before + [9]
