"""The plan sampler's per-pass draw contract and the hop-filter index.

:func:`sample_pass_walks` feeds the batched engine; given the same
uniforms it must walk exactly what the per-edge
:func:`sample_influenced_graph_compiled` walks, a compiled pass must
consume the model RNG exactly as the two documented draws do (DESIGN.md
§9 rule 2), and the index behind :meth:`DMHG.hop_index` and
:meth:`DMHG.candidates` must hold still over an unchanged graph and
follow every insert.
"""

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from repro.core.config import SUPAConfig
from repro.core.engine.plan import compile_plan
from repro.core.inslearn import _record_and_observe
from repro.core.model import SUPA
from repro.datasets.zoo import movielens
from repro.graph.dmhg import DMHG
from repro.graph.metapath import MultiplexMetapath
from repro.graph.sampling import CompiledMetapathSet, sample_pass_walks
from repro.graph.schema import GraphSchema

from tests.oracle.sampling import sample_influenced_graph_compiled

#: the array fields of :class:`~repro.graph.sampling.PassWalks`
_ARRAYS = ("nodes", "rels", "times", "offsets", "sides", "hop_counts")


@pytest.fixture
def compiled(small_graph, metapath):
    return CompiledMetapathSet([metapath], small_graph.schema)


def _pass_walks(graph, uv, compiled, uniforms):
    """:func:`sample_pass_walks` over the ``(B, 2)`` edges ``uv``."""
    uv = np.asarray(uv, dtype=np.int64).reshape(-1, 2)
    return sample_pass_walks(
        graph, uv, graph.node_type_ids()[uv], compiled, np.asarray(uniforms)
    )


def _oracle_walks(graph, uv, compiled, uniforms):
    """The same arrays from the per-edge object sampler, edge by edge."""
    nodes, rels, times, offsets, sides, hop_counts = [], [], [], [0], [], []
    _, _, num_walks, length = uniforms.shape
    for (u, v), block in zip(uv, uniforms):
        influenced = sample_influenced_graph_compiled(
            graph, u, v, 0, 0.0, compiled, num_walks, length, uniforms=block
        )
        begin = len(nodes)
        for side, walks in enumerate((influenced.walks_u, influenced.walks_v)):
            for walk in walks:
                for step in walk.steps[1:]:
                    nodes.append(step.node)
                    rels.append(step.rel)
                    times.append(step.t)
                offsets.append(len(nodes))
                sides.append(side)
        hop_counts.append(len(nodes) - begin)
    return dict(
        nodes=nodes, rels=rels, times=times, offsets=offsets, sides=sides,
        hop_counts=hop_counts,
    )


def _assert_same_walks(walks, expected):
    for name in _ARRAYS:
        assert getattr(walks, name).tolist() == expected[name], name


def _uniforms(seed, num_walks=4):
    """One edge's ``(2, k, l)`` uniform block, ``l = 4``."""
    return np.random.default_rng(seed).random((2, num_walks, 4))


def _plan(graph, compiled, seed):
    """Walks of edge (0, 5)."""
    return _pass_walks(graph, [0, 5], compiled, _uniforms(seed)[None])


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
            block = _uniforms(seed)[None]
            _assert_same_walks(
                plan, _oracle_walks(small_graph, [(0, 5)], two_sided, block)
            )
            assert set(plan.sides.tolist()) == {0, 1}

    def test_empty_graph_yields_empty_plan(self, schema, compiled):
        g = DMHG(schema)
        g.add_nodes("user", 1)
        g.add_nodes("video", 1)
        plan = _pass_walks(g, [0, 1], compiled, _uniforms(0, 3)[None])
        assert plan.nodes.size == 0
        assert plan.offsets.tolist() == [0]
        assert plan.sides.size == 0
        assert plan.hop_counts.tolist() == [0]

    def test_pass_gathers_without_lookups(self, small_graph, compiled):
        """Four edges from one user walk by gathers from the index: no
        :meth:`DMHG.candidates` call, and every walk takes its hop."""
        calls = []
        candidates = small_graph.candidates
        small_graph.candidates = lambda *key: calls.append(key) or candidates(*key)
        uniforms = np.random.default_rng(0).random((4, 2, 4, 2))
        walks = _pass_walks(small_graph, [(0, 5)] * 4, compiled, uniforms)
        # hop 1 only: user 0 (one filter); videos head no metapath
        assert calls == []
        assert walks.hop_counts.tolist() == [4] * 4


# ------------------------------------------------- the pass sampler ≡ oracle

#: three node types and three edge types, any type pair may connect
_SCHEMA = GraphSchema.create(["a", "b", "c"], ["r0", "r1", "r2"])
#: two metapaths headed by "a", one by "b", none by "c"
_METAPATHS = [
    MultiplexMetapath.create(["a", "b", "a"], [["r0", "r1"], ["r0", "r1"]]),
    MultiplexMetapath.create(["a", "a"], [["r2"]]),
    MultiplexMetapath.create(
        ["b", "a", "c", "a", "b"], [["r1", "r2"], ["r0"], ["r0"], ["r1", "r2"]]
    ),
]


@given(
    types=st.lists(st.integers(0, 2), min_size=1, max_size=6),
    edges=st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 63), st.integers(0, 2)),
        min_size=8,
        max_size=48,
    ),
    removed=st.lists(st.integers(0, 63), max_size=6),
    eta=st.sampled_from([None, 2, 5]),
    options=st.permutations(range(len(_METAPATHS))).flatmap(
        lambda order: st.integers(0, len(order)).map(lambda n: order[:n])
    ),
    batch=st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 63)), min_size=1, max_size=6
    ),
    num_walks=st.integers(0, 4),
    walk_length=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    top=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_pass_walks_match_the_per_edge_oracle(
    types, edges, removed, eta, options, batch, num_walks, walk_length, seed, top
):
    """Random multiplex graphs (self-loops, removals, an η cap), any
    metapath subset and order, batches that repeat endpoints: the pass
    sampler walks hop for hop what the per-edge oracle walks."""
    graph = DMHG(_SCHEMA, max_neighbors=eta)
    for type_id in types:
        graph.add_node(_SCHEMA.node_types[type_id])
    n = len(types)
    for t, (u, v, rel) in enumerate(edges):
        graph.add_edge(u % n, v % n, _SCHEMA.edge_types[rel], float(t))
    for index in removed:
        graph.remove_edge(index % len(edges))
    compiled = CompiledMetapathSet([_METAPATHS[i] for i in options], _SCHEMA)
    uv = np.asarray(batch, dtype=np.int64) % n
    shape = (len(batch), 2, num_walks, walk_length)
    uniforms = np.random.default_rng(seed).random(shape)
    if top:  # the largest uniform picks the last option or candidate
        uniforms[..., ::2] = np.nextafter(1.0, 0.0)
    calls = []
    candidates = graph.candidates
    graph.candidates = lambda *key: calls.append(key) or candidates(*key)
    expected = _oracle_walks(graph, uv.tolist(), compiled, uniforms)
    # steer towards passes where many picks have a real choice
    target(float(sum(candidates(*key)[0].size > 1 for key in calls)))
    walks = _pass_walks(graph, uv, compiled, uniforms)
    _assert_same_walks(walks, expected)


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
            assert (plan.num_walk_steps > 0) == warm
            states.append(model.rng.bit_generator.state)
        assert states[0] == states[1]


def _copy(graph):
    """The same nodes and edges in a fresh graph (an index built afresh)."""
    g = DMHG(graph.schema, max_neighbors=graph.max_neighbors)
    for node in range(graph.num_nodes):
        g.add_node(graph.node_type(node))
    for e in graph.edges():
        g.add_edge(e.u, e.v, graph.schema.edge_types[e.rel], e.t)
    return g


def _segments(graph, compiled):
    """Every ``(node, hop filter)`` segment of ``compiled``'s filters, as
    the bytes of its start, length and pool entries."""
    filters = compiled.hop_filters(3).filters
    columns, index = graph.hop_index(filters)
    out = [index.start.tobytes(), index.length.tobytes()]
    for node in range(graph.num_nodes):
        for f in columns.tolist():
            start, n = index.start[node, f], index.length[node, f]
            out += [a[start : start + n].tobytes() for a in index[2:]]
    return out


class TestCandidateMemo:
    """The hop-filter index that answers :meth:`DMHG.candidates` and the
    pass sampler's gathers."""

    def test_repeat_queries_hit(self, small_graph, compiled):
        """Passes over an unchanged graph read the same segment bytes and
        write nothing to the index."""
        _plan(small_graph, compiled, seed=1)
        first = _segments(small_graph, compiled)
        assert any(first[2:])
        _plan(small_graph, compiled, seed=1)
        _plan(small_graph, compiled, seed=2)
        assert _segments(small_graph, compiled) == first

    def test_mutation_invalidates(self, small_graph, compiled):
        _plan(small_graph, compiled, seed=1)
        small_graph.add_edge(0, 9, "click", 10.0)
        # After an insert, the kept index must walk as a fresh graph's does.
        warm = _plan(small_graph, compiled, seed=2)
        fresh = _plan(_copy(small_graph), compiled, seed=2)
        for name in _ARRAYS:
            assert getattr(warm, name).tobytes() == getattr(fresh, name).tobytes()

    def test_candidates_reflect_new_edge(self, small_graph):
        """An insert appends to the segment, and an answer handed out
        before it keeps its bytes."""
        every_rel = frozenset(range(len(small_graph.schema.edge_types)))
        held = small_graph.candidates(0, every_rel, 1)
        before = [array.tolist() for array in held]
        assert small_graph.candidates(0, every_rel, 1)[0].tolist() == before[0]
        small_graph.add_edge(0, 9, "click", 10.0)
        assert small_graph.candidates(0, every_rel, 1)[0].tolist() == before[0] + [9]
        assert [array.tolist() for array in held] == before

    def test_index_views_are_read_only(self, small_graph, compiled):
        """Every walker shares the index's arrays, so none may write them."""
        every_rel = frozenset(range(len(small_graph.schema.edge_types)))
        _, index = small_graph.hop_index(compiled.hop_filters(3).filters)
        for array in (*small_graph.candidates(0, every_rel, 1), *index):
            with pytest.raises(ValueError):
                array[0] = array[0]
