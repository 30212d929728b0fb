"""Mechanism-level tests for individual baselines.

The shared-contract tests check every model fits and ranks; these pin
down each method's *defining mechanism* — the thing its paper is about.
"""

import numpy as np
import pytest

from repro.datasets.synthetic import BehaviorSpec, SyntheticConfig, generate
from repro.graph.dmhg import DMHG
from repro.graph.schema import GraphSchema


@pytest.fixture(scope="module")
def world():
    cfg = SyntheticConfig(
        n_users=25,
        n_items=35,
        n_events=600,
        behaviors=(
            BehaviorSpec("view", 1.0, 0.2),
            BehaviorSpec("buy", 0.3, 1.5),
        ),
        behavior_divergence=0.6,
        drift_rate=0.02,
        seed=5,
    )
    ds = generate(cfg)
    train, _, _ = ds.split()
    return ds, train


class TestNode2VecBias:
    def test_low_q_walks_explore_further(self, world):
        """DFS-ish walks (small q) reach more distinct nodes than
        BFS-ish walks (large q) on a path-rich graph."""
        from repro.baselines.node2vec import biased_walk
        from repro.utils.rng import new_rng

        schema = GraphSchema.create(["n"], ["r"])
        g = DMHG(schema)
        g.add_nodes("n", 30)
        for i in range(29):  # a long path
            g.add_edge(i, i + 1, "r", float(i))

        def spread(q):
            rng = new_rng(0)
            reached = set()
            for _ in range(60):
                walk = biased_walk(g, 15, 8, p=1.0, q=q, rng=rng)
                reached.update(walk)
            return len(reached)

        assert spread(0.25) >= spread(4.0)


class TestLINEOrders:
    def test_embedding_concatenates_two_orders(self, world):
        from repro.baselines.line import LINE

        ds, train = world
        model = LINE(ds, dim=16, samples_per_edge=2, seed=0)
        model.fit(train)
        assert model.embeddings.shape == (ds.num_nodes, 16)
        # both halves trained away from their initialisation scale
        first, second = model.embeddings[:, :8], model.embeddings[:, 8:]
        assert np.abs(first).max() > 0
        assert np.abs(second).max() > 0


class TestTGATTimeEncoding:
    def test_time_encoding_shape_and_range(self, world):
        from repro.baselines.tgat import TGAT

        ds, _ = world
        model = TGAT(ds, dim=8, time_dim=6)
        enc = model._time_encoding(np.array([0.0, 1.0, 100.0]))
        assert enc.shape == (3, 6)
        assert np.all(np.abs(enc) <= 1.0)
        assert np.allclose(enc[0], 1.0)  # cos(0) = 1

    def test_embedding_depends_on_query_time(self, world):
        from repro.baselines.tgat import TGAT

        ds, train = world
        model = TGAT(ds, dim=8, steps=30, seed=0)
        model.fit(train)
        node = train[0].u
        early = model._embed_node(node, 10.0, model._base, model._w_v)
        late = model._embed_node(node, 500.0, model._base, model._w_v)
        assert not np.allclose(early, late)


class TestEvolveGCNWeights:
    def test_gru_evolves_weight_matrix(self, world):
        from repro.autograd.init import normal_, xavier_uniform
        from repro.baselines.evolvegcn import _WeightGRU
        from repro.autograd import Tensor

        rng = np.random.default_rng(0)
        gru = _WeightGRU(6, rng)
        w0 = xavier_uniform((6, 6), rng=rng)
        x = Tensor(rng.normal(size=(6, 6)))
        w1 = gru.step(x, w0)
        assert w1.numpy().shape == (6, 6)
        assert not np.allclose(w1.numpy(), w0.numpy())

    def test_six_gru_parameter_matrices(self):
        from repro.baselines.evolvegcn import _WeightGRU

        gru = _WeightGRU(4, np.random.default_rng(0))
        assert len(gru.parameters()) == 6


class TestDyGNNStreaming:
    def test_embeddings_change_per_edge(self, world):
        from repro.baselines.dygnn import DyGNN
        from repro.graph.streams import EdgeStream

        ds, train = world
        model = DyGNN(ds, dim=8, seed=0)
        model.fit(train[:50])
        before = model.embeddings.copy()
        model.partial_fit(train[50:51])
        e = train[50]
        assert not np.allclose(model.embeddings[e.u], before[e.u])

    def test_untouched_far_nodes_stable(self, world):
        from repro.baselines.dygnn import DyGNN

        ds, train = world
        model = DyGNN(ds, dim=8, seed=0)
        model.fit(train[:50])
        before = model.embeddings.copy()
        e = train[50]
        model.partial_fit(train[50:51])
        touched = {e.u, e.v}
        for other, _, _, _ in model._graph.neighbors(e.u):
            touched.add(other)
        for other, _, _, _ in model._graph.neighbors(e.v):
            touched.add(other)
        untouched = [n for n in range(ds.num_nodes) if n not in touched]
        # negatives perturb a few random rows; most untouched rows are stable
        stable = sum(
            np.allclose(model.embeddings[n], before[n]) for n in untouched
        )
        assert stable >= len(untouched) - 8


class TestGATNEMultiplex:
    def test_relation_tables_differ(self, world):
        from repro.baselines.gatne import GATNE

        ds, train = world
        model = GATNE(ds, dim=8, num_walks=2, walk_length=5, epochs=1, seed=0)
        model.fit(train)
        base = model.embeddings[None]
        view = model.embeddings["view"]
        assert view.shape == base.shape


class TestMBGMNTransfer:
    def test_per_behaviour_tables(self, world):
        from repro.baselines.mbgmn import MBGMN

        ds, train = world
        model = MBGMN(ds, dim=8, steps=30, seed=0)
        model.fit(train)
        assert set(model.embeddings) >= {"view", "buy", None}
        assert not np.allclose(model.embeddings["view"], model.embeddings["buy"])


class TestDyHNESpectral:
    def test_embeddings_capture_metapath_proximity(self, world):
        from repro.baselines.dyhne import DyHNE

        ds, train = world
        model = DyHNE(ds, dim=8, seed=0)
        model.fit(train)
        # a frequently co-interacting pair should score above a random pair
        e = train[0]
        scores = model.score(e.u, np.asarray(ds.nodes_of_type("item")), "view", 1.0)
        assert np.all(np.isfinite(scores))
