"""The plan sampler's per-pass draw contract and the candidate memo.

``sample_walks_into`` feeds the batched engine; given the same uniforms
it must walk exactly what :func:`sample_influenced_graph_compiled`
walks, a compiled pass must consume the model RNG exactly as the two
documented draws do (DESIGN.md §9 rule 2), and the memo behind
:meth:`DMHG.candidates` must answer repeats without going stale when the
graph mutates.
"""

from typing import NamedTuple

import numpy as np
import pytest

from repro.core.config import SUPAConfig
from repro.core.engine.plan import compile_plan
from repro.core.inslearn import _record_and_observe
from repro.core.model import SUPA
from repro.datasets.zoo import movielens
from repro.graph.dmhg import DMHG
from repro.graph.metapath import MultiplexMetapath
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


def _sample_walk_arrays(graph, u, v, compiled, uniforms, num_walks=4):
    """One edge's walks through :func:`sample_walks_into`, as arrays."""
    nodes, rels, times, offsets, sides = [], [], [], [0], []
    count = sample_walks_into(
        graph, u, v, compiled, num_walks, 4, uniforms.tolist(),
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


def _uniforms(seed, num_walks=4):
    """One edge's ``(2, k, l)`` uniform block, ``l = 4``."""
    return np.random.default_rng(seed).random((2, num_walks, 4))


def _plan(graph, compiled, seed):
    """Walks of edge (0, 5)."""
    return _sample_walk_arrays(graph, 0, 5, compiled, _uniforms(seed))


@pytest.fixture
def two_sided(small_graph, metapath):
    """Two schemas from users (so slot 0 chooses) and one from videos."""
    return CompiledMetapathSet(
        [
            metapath,
            MultiplexMetapath.create(["user", "video", "user"], [["click"], ["click"]]),
            MultiplexMetapath.create(
                ["video", "user", "video"], [["click", "like"], ["click", "like"]]
            ),
        ],
        small_graph.schema,
    )


class TestPlanSampler:
    def test_same_uniforms_same_hops_as_object_sampler(self, small_graph, two_sided):
        """Same uniforms → the same hops, sides and offsets, in the same
        order, as the object sampler the oracle engine walks with."""
        for seed in range(8):
            plan = _plan(small_graph, two_sided, seed)
            influenced = sample_influenced_graph_compiled(
                small_graph, 0, 5, 0, 9.0, two_sided,
                num_walks=4, walk_length=4, uniforms=_uniforms(seed),
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
            assert set(plan.sides.tolist()) == {0, 1}

    def test_empty_graph_yields_empty_plan(self, schema, compiled):
        g = DMHG(schema)
        g.add_nodes("user", 1)
        g.add_nodes("video", 1)
        plan = _sample_walk_arrays(g, 0, 1, compiled, _uniforms(0, 3), num_walks=3)
        assert plan.nodes.size == 0
        assert plan.offsets.tolist() == [0]
        assert plan.sides.size == 0


# ------------------------------------------------------- the per-pass draws


def _warm_model(history=256, warm=True):
    """A model whose graph holds ``history`` stream edges (none if not
    ``warm``), and the next 96 edges' records."""
    dataset = movielens(scale=0.08, seed=3)
    model = SUPA.for_dataset(dataset, config=SUPAConfig(seed=7))
    edges = list(dataset.stream)
    if warm:
        _record_and_observe(model, edges[:history])
    records = [
        (e, 0.5, 1.5) for e in edges[history : history + 96]
    ]
    return model, records


class TestPassDraws:
    def test_compile_makes_exactly_the_documented_draws(self):
        """After ``compile_plan`` the model RNG is where a fresh
        generator lands after one ``(B, 2, k, l)`` uniform block and one
        negative draw per distinct opposite node type, ascending."""
        model, records = _warm_model()
        cfg = model.config
        before = model.rng.bit_generator.state
        compile_plan(model, records)
        replay = np.random.default_rng()
        replay.bit_generator.state = before
        replay.random((len(records), 2, cfg.num_walks, cfg.walk_length))
        type_ids = model._node_type_ids
        opposite = [type_ids[e.v] for e, _, _ in records]
        opposite += [type_ids[e.u] for e, _, _ in records]
        types, slots = np.unique(opposite, return_counts=True)
        assert types.size == 2  # both sides of the bipartite batch
        for type_id, count in zip(types.tolist(), slots.tolist()):
            model.negatives.sample(type_id, count * cfg.num_negatives, replay)
        assert model.rng.bit_generator.state == replay.bit_generator.state

    def test_consumption_depends_only_on_the_batch(self):
        """A warm graph (walks find candidates) and an empty one (no
        walk gets a hop) consume the same RNG for the same batch."""
        states = []
        for warm in (True, False):
            model, records = _warm_model(warm=warm)
            plan = compile_plan(model, records)
            assert (plan.step_rows.size > 0) == warm
            states.append(model.rng.bit_generator.state)
        assert states[0] == states[1]


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
        warm = _plan(small_graph, compiled, seed=2)
        fresh = _plan(_copy(small_graph), compiled, seed=2)
        for a, b in zip(warm, fresh):
            assert a.tobytes() == b.tobytes()

    def test_candidates_reflect_new_edge(self, small_graph):
        every_rel = frozenset(range(len(small_graph.schema.edge_types)))
        before = small_graph.candidates(0, every_rel, 1)[0].tolist()
        assert small_graph.candidates(0, every_rel, 1)[0].tolist() == before
        small_graph.add_edge(0, 9, "click", 10.0)
        assert small_graph.candidates(0, every_rel, 1)[0].tolist() == before + [9]

    def test_memoised_arrays_are_read_only(self, small_graph):
        """Every walker shares the memo's arrays, so none may write them."""
        every_rel = frozenset(range(len(small_graph.schema.edge_types)))
        for array in small_graph.candidates(0, every_rel, 1):
            with pytest.raises(ValueError):
                array[0] = array[0]
