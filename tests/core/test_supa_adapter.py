"""Tests for the SUPARecommender adapter."""

import numpy as np
import pytest

from repro.baselines.supa_adapter import SUPARecommender
from repro.core import InsLearnConfig, SUPAConfig


@pytest.fixture
def fast_train():
    return InsLearnConfig(
        batch_size=200, max_iterations=2, validation_interval=1, validation_size=20
    )


class TestAdapter:
    def test_score_before_fit_raises(self, tiny_synthetic):
        model = SUPARecommender(tiny_synthetic)
        with pytest.raises(RuntimeError, match="before fit"):
            model.score(0, np.array([1]), "view", 1.0)

    def test_dim_overrides_config(self, tiny_synthetic, fast_train):
        model = SUPARecommender(
            tiny_synthetic, dim=8, config=SUPAConfig(dim=64), train_config=fast_train
        )
        assert model.config.dim == 8

    def test_fit_resets_model(self, tiny_synthetic, fast_train):
        model = SUPARecommender(tiny_synthetic, dim=8, train_config=fast_train)
        train, _, _ = tiny_synthetic.split()
        model.fit(train[:100])
        first_edges = model.model.graph.num_edges
        model.fit(train[:100])
        assert model.model.graph.num_edges == first_edges  # fresh, not doubled

    def test_partial_fit_accumulates(self, tiny_synthetic, fast_train):
        model = SUPARecommender(tiny_synthetic, dim=8, train_config=fast_train)
        train, _, _ = tiny_synthetic.split()
        model.fit(train[:100])
        model.partial_fit(train[100:200])
        assert model.model.graph.num_edges == 200

    def test_report_captured(self, tiny_synthetic, fast_train):
        model = SUPARecommender(tiny_synthetic, dim=8, train_config=fast_train)
        train, _, _ = tiny_synthetic.split()
        model.fit(train[:150])
        assert model.last_report is not None
        batches = model.last_report.batches
        assert sum(b.num_train_edges + b.num_valid_edges for b in batches) == 150

    def test_max_neighbors_forwarded(self, tiny_synthetic, fast_train):
        model = SUPARecommender(
            tiny_synthetic, dim=8, train_config=fast_train, max_neighbors=4
        )
        train, _, _ = tiny_synthetic.split()
        model.fit(train[:50])
        assert model.model.graph.max_neighbors == 4
