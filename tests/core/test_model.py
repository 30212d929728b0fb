"""Tests for the SUPA model."""

import numpy as np
import pytest

from repro.core.config import SUPAConfig
from repro.core.model import SUPA


@pytest.fixture
def model(small_dataset):
    return SUPA.for_dataset(small_dataset, SUPAConfig(dim=8, seed=0))


class TestConstruction:
    def test_for_dataset(self, model, small_dataset):
        assert model.graph.num_nodes == small_dataset.num_nodes
        assert model.graph.num_edges == 0

    def test_invalid_metapath_rejected(self, small_dataset):
        from repro.graph.metapath import MultiplexMetapath

        bad = MultiplexMetapath.create(["user", "video"], [["share"]])
        with pytest.raises(KeyError):
            SUPA(
                small_dataset.schema,
                small_dataset.nodes_by_type,
                [bad],
                SUPAConfig(dim=4),
            )

    def test_max_neighbors_forwarded(self, small_dataset):
        m = SUPA.for_dataset(small_dataset, SUPAConfig(dim=4), max_neighbors=3)
        assert m.graph.max_neighbors == 3


class TestStreaming:
    def test_observe_inserts_without_learning(self, model):
        state = model.state_dict()
        model.observe(0, 5, "click", 1.0)
        assert model.graph.num_edges == 1
        after = model.state_dict()
        assert np.allclose(state["memory.long"], after["memory.long"])

    def test_process_edge_learns_and_inserts(self, model):
        before = model.memory.long[0].copy()
        loss = model.process_edge(0, 5, "click", 1.0)
        assert loss > 0
        assert model.graph.num_edges == 1
        assert not np.allclose(model.memory.long[0], before)

    def test_process_stream_mean_loss(self, model, small_stream):
        loss = model.process_stream(list(small_stream))
        assert loss > 0
        assert model.graph.num_edges == len(small_stream)

    def test_empty_stream(self, model):
        assert model.process_stream([]) == 0.0

    def test_loss_components_recorded(self, model):
        model.process_edge(0, 5, "click", 1.0)
        assert set(model.last_loss_components) <= {"inter", "prop", "neg"}
        assert "inter" in model.last_loss_components


class TestLearning:
    def test_repeated_pair_loss_decreases(self, model):
        model.observe(0, 5, "click", 0.0)
        losses = [
            model.train_step(0, 5, "click", 1.0, 1.0, 1.0) for _ in range(30)
        ]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_training_raises_pair_score(self, model, small_dataset):
        candidates = small_dataset.nodes_of_type("video")
        model.observe(0, 5, "click", 0.0)
        for _ in range(40):
            model.train_step(0, 5, "click", 1.0, 1.0, 1.0)
        scores = model.score(0, candidates, "click", 1.0)
        assert np.argmax(scores) == 0  # candidate index of video 5

    def test_loss_ablations_produce_components(self, small_dataset):
        for kwargs, expected in [
            (dict(use_prop=False, use_neg=False), {"inter"}),
            (dict(use_inter=False, use_neg=False), {"prop"}),
            (dict(use_inter=False, use_prop=False), {"neg"}),
        ]:
            m = SUPA.for_dataset(small_dataset, SUPAConfig(dim=4, **kwargs))
            m.observe(0, 5, "click", 0.0)
            m.process_edge(1, 5, "click", 1.0)
            assert set(m.last_loss_components) == expected


class TestScoring:
    def test_score_shape(self, model, small_dataset):
        candidates = small_dataset.nodes_of_type("video")
        scores = model.score(0, candidates, "click", 5.0)
        assert scores.shape == (5,)

    def test_final_embeddings_shape(self, model):
        emb = model.final_embeddings([0, 1, 5], "like", 3.0)
        assert emb.shape == (3, 8)

    def test_relation_specific_embeddings_differ(self, model):
        a = model.final_embeddings([0], "click", 1.0)
        b = model.final_embeddings([0], "like", 1.0)
        assert not np.allclose(a, b)

    def test_recommend_returns_topk(self, model, small_dataset):
        candidates = small_dataset.nodes_of_type("video")
        top = model.recommend(0, candidates, "click", 5.0, k=3)
        assert top.shape == (3,)
        scores = model.score(0, candidates, "click", 5.0)
        assert scores[list(candidates).index(top[0])] == scores.max()


class TestCheckpoint:
    def test_state_roundtrip_restores_scores(self, model, small_dataset):
        candidates = small_dataset.nodes_of_type("video")
        model.process_edge(0, 5, "click", 1.0)
        state = model.state_dict()
        before = model.score(0, candidates, "click", 2.0)
        for _ in range(10):
            model.train_step(0, 6, "click", 2.0, 1.0, 1.0)
        model.load_state_dict(state)
        after = model.score(0, candidates, "click", 2.0)
        assert np.allclose(before, after)

    def test_state_dict_is_deep(self, model):
        state = model.state_dict()
        model.memory.long[...] = 0.0
        assert not np.allclose(state["memory.long"], 0.0)
