"""Edge-case and failure-injection tests for the SUPA model."""

import numpy as np
import pytest

from repro.core import SUPA, SUPAConfig
from repro.core.config import g_decay


class TestUnknownInputs:
    def test_unknown_edge_type_in_training(self, small_dataset):
        model = SUPA.for_dataset(small_dataset, SUPAConfig(dim=4))
        with pytest.raises(KeyError, match="unknown edge type"):
            model.process_edge(0, 5, "share", 1.0)

    def test_unknown_edge_type_in_scoring(self, small_dataset):
        model = SUPA.for_dataset(small_dataset, SUPAConfig(dim=4))
        with pytest.raises(KeyError):
            model.score(0, np.array([5]), "share", 1.0)

    def test_out_of_range_node(self, small_dataset):
        model = SUPA.for_dataset(small_dataset, SUPAConfig(dim=4))
        with pytest.raises(IndexError):
            model.process_edge(0, 99, "click", 1.0)


class TestDegenerateStreams:
    def test_cold_start_scoring(self, small_dataset):
        """Scoring works before any edge has ever been observed."""
        model = SUPA.for_dataset(small_dataset, SUPAConfig(dim=4))
        scores = model.score(0, np.array([5, 6, 7]), "click", 0.0)
        assert scores.shape == (3,)
        assert np.all(np.isfinite(scores))

    def test_single_repeated_pair(self, small_dataset):
        """A stream of one pair repeated does not blow up numerically."""
        model = SUPA.for_dataset(small_dataset, SUPAConfig(dim=4))
        for t in range(200):
            loss = model.process_edge(0, 5, "click", float(t))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(model.memory.long))
        assert np.all(np.isfinite(model.memory.short))

    def test_huge_time_gaps(self, small_dataset):
        """Years-long inactivity gaps keep gamma and scores finite."""
        model = SUPA.for_dataset(small_dataset, SUPAConfig(dim=4))
        model.process_edge(0, 5, "click", 0.0)
        model.process_edge(0, 5, "click", 1e9)
        scores = model.score(0, np.array([5, 6]), "click", 2e9)
        assert np.all(np.isfinite(scores))

    def test_identical_timestamps(self, small_dataset):
        """A fully static burst (all t equal) trains without division
        problems — g(0) = 1."""
        assert g_decay(0.0) == pytest.approx(1.0)
        model = SUPA.for_dataset(small_dataset, SUPAConfig(dim=4))
        for u, v in ((0, 5), (1, 5), (2, 6), (0, 6)):
            model.process_edge(u, v, "click", 1.0)
        assert np.all(np.isfinite(model.memory.short))

    def test_self_loop_edge(self, schema, metapath):
        """Homogeneous graphs can produce u == v interactions."""
        from repro.graph.schema import GraphSchema

        homo = GraphSchema.create(["user"], ["msg"])
        from repro.graph.metapath import MultiplexMetapath

        mp = MultiplexMetapath.create(["user", "user"], [["msg"]])
        model = SUPA(homo, [("user", 4)], [mp], SUPAConfig(dim=4))
        loss = model.process_edge(2, 2, "msg", 1.0)
        assert np.isfinite(loss)


class TestEmptyMicroBatch:
    @pytest.mark.parametrize("engine", ["batched", "reference"])
    def test_empty_batch_clears_the_last_batch_report(self, tiny_synthetic, engine):
        """An empty micro-batch leaves no stale loss terms behind: not
        through the trainer, which runs no replay pass over it, nor from
        a direct call."""
        from repro.core.inslearn import (
            InsLearnConfig,
            InsLearnTrainer,
            _record_and_observe as trainer_records,
        )
        from repro.graph.streams import EdgeStream

        from tests.core import build_model

        model = build_model(tiny_synthetic, SUPAConfig(dim=4, seed=1), engine)
        edges = list(tiny_synthetic.stream)
        trainer = InsLearnTrainer(
            model, InsLearnConfig(batch_size=64, max_iterations=2, validation_size=4)
        )
        trainer.train_one_batch(EdgeStream(edges[:40]))
        assert model.last_loss_components and model.last_touched_nodes
        report = trainer.train_one_batch(EdgeStream([]))
        assert report.num_train_edges == 0 and report.iterations_run == 0
        assert model.last_loss_components == {}
        assert model.last_touched_nodes == ()
        model.train_batch(trainer_records(model, edges[40:48]))
        assert model.last_loss_components
        assert model.train_batch([]).size == 0
        assert model.last_loss_components == {}
        assert model.last_touched_nodes == ()


class TestZeroWalkConfiguration:
    def test_num_walks_zero_skips_propagation(self, small_dataset):
        cfg = SUPAConfig(dim=4, num_walks=0)
        model = SUPA.for_dataset(small_dataset, cfg)
        model.process_edge(0, 5, "click", 1.0)
        assert "prop" not in model.last_loss_components

    def test_num_negatives_zero_skips_negatives(self, small_dataset):
        cfg = SUPAConfig(dim=4, num_negatives=0)
        model = SUPA.for_dataset(small_dataset, cfg)
        model.process_edge(0, 5, "click", 1.0)
        assert "neg" not in model.last_loss_components


class TestNumericalStability:
    def test_long_training_bounded_norms(self, tiny_synthetic):
        """Weight decay keeps embedding norms bounded over a long run."""
        model = SUPA.for_dataset(tiny_synthetic, SUPAConfig(dim=8, seed=0))
        stream = list(tiny_synthetic.stream)
        for _ in range(3):
            for e in stream[:200]:
                model.train_step(e.u, e.v, e.edge_type, e.t, 1.0, 1.0)
        norms = np.linalg.norm(model.memory.long, axis=1)
        assert np.all(np.isfinite(norms))
        assert norms.max() < 100.0

    def test_alpha_stays_finite(self, tiny_synthetic):
        model = SUPA.for_dataset(tiny_synthetic, SUPAConfig(dim=8, seed=0))
        model.process_stream(list(tiny_synthetic.stream)[:300])
        assert np.all(np.isfinite(model.memory.alpha))
