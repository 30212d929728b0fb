"""Tests for the reusable experiment protocols."""

import numpy as np
import pytest

from repro.baselines.base import EmbeddingModel
from repro.eval.protocol import (
    DynamicLinkPredictionProtocol,
    LinkPredictionProtocol,
    NeighborhoodDisturbanceProtocol,
    capped_stream,
)
from repro.graph.streams import EdgeStream


class CountingModel(EmbeddingModel):
    """Test double recording fit calls and data sizes."""

    name = "Counting"

    def __init__(self, dataset, dim=4, seed=0, dynamic=False):
        super().__init__(dataset, dim=dim, seed=seed)
        self.is_dynamic = dynamic
        self.fit_sizes = []
        self.partial_sizes = []

    def fit(self, stream):
        self.fit_sizes.append(len(stream))
        self.embeddings = self.rng.normal(size=(self.dataset.num_nodes, self.dim))

    def partial_fit(self, stream):
        self.partial_sizes.append(len(stream))
        if self.embeddings is None:
            self.fit(stream)


class TestCappedStream:
    def test_none_is_identity(self, tiny_synthetic):
        stream = tiny_synthetic.stream
        assert capped_stream(tiny_synthetic, stream, None) is stream

    def test_cap_reduces_edges(self, tiny_synthetic):
        stream = tiny_synthetic.stream
        capped = capped_stream(tiny_synthetic, stream, 2)
        assert 0 < len(capped) < len(stream)

    def test_surviving_edges_are_recent(self, tiny_synthetic):
        stream = tiny_synthetic.stream
        capped = capped_stream(tiny_synthetic, stream, 3)
        # the newest edges always survive: the last edge is traversable
        assert capped[-1] == stream[-1]


class TestLinkPredictionProtocol:
    def test_runs_and_reports(self, tiny_synthetic):
        protocol = LinkPredictionProtocol(max_queries=20)
        result = protocol.run(lambda ds: CountingModel(ds), tiny_synthetic)
        assert set(result.metrics) == {"H@20", "H@50", "NDCG@10", "MRR"}
        assert result.fit_seconds >= 0
        assert result["MRR"] >= 0

    def test_valid_excluded_option(self, tiny_synthetic):
        model_holder = []

        def factory(ds):
            m = CountingModel(ds)
            model_holder.append(m)
            return m

        LinkPredictionProtocol(max_queries=5).run(factory, tiny_synthetic)
        train, _, _ = tiny_synthetic.split()
        assert model_holder[0].fit_sizes[0] == len(train)


class TestOneTrainingPrefix:
    def test_every_split_protocol_fits_on_the_80_percent_prefix(self, tiny_synthetic):
        """The 1 % validation slice only moves the test tail's start:
        nothing trains on it."""
        sizes = []

        class Recording(CountingModel):
            def fit(self, stream):
                sizes.append(len(stream))
                super().fit(stream)

        LinkPredictionProtocol(max_queries=5).run(Recording, tiny_synthetic)
        NeighborhoodDisturbanceProtocol(etas=(None,), max_queries=5).run(
            lambda ds, eta: Recording(ds), tiny_synthetic
        )
        train, valid, _ = tiny_synthetic.split()
        assert len(valid) > 0
        assert sizes == [len(train), len(train)]


class RecordingModel(CountingModel):
    """Records every query node it is asked to score."""

    def __init__(self, dataset, asked, dynamic=False):
        super().__init__(dataset, dynamic=dynamic)
        self.asked = asked

    def score(self, node, candidates, edge_type, t):
        self.asked.append(node)
        return super().score(node, candidates, edge_type, t)


class TestSameQueriesForEveryModel:
    """One protocol stage ranks every model on one query subsample."""

    def test_every_eta_ranks_the_same_queries(self, tiny_synthetic):
        asked = []
        NeighborhoodDisturbanceProtocol(etas=(2, None), max_queries=5).run(
            lambda ds, eta: RecordingModel(ds, asked), tiny_synthetic
        )
        assert len(asked) == 10
        assert asked[:5] == asked[5:]

    def test_every_method_ranks_the_same_queries_per_slice(self, tiny_synthetic):
        protocol = DynamicLinkPredictionProtocol(num_slices=4, max_queries=5)
        runs = []
        for dynamic in (True, False):
            asked = []
            protocol.run(
                lambda ds: RecordingModel(ds, asked, dynamic=dynamic), tiny_synthetic
            )
            runs.append(asked)
        assert len(runs[0]) == 3 * 5
        assert runs[0] == runs[1]


class TestDynamicProtocol:
    def test_step_count(self, tiny_synthetic):
        protocol = DynamicLinkPredictionProtocol(num_slices=5, max_queries=10)
        results = protocol.run(lambda ds: CountingModel(ds), tiny_synthetic)
        assert len(results) == 4

    def test_static_model_retrains_on_accumulated(self, tiny_synthetic):
        sizes = []

        def factory(ds):
            m = CountingModel(ds)
            m.fit_sizes = sizes  # share the record across refits
            return m

        DynamicLinkPredictionProtocol(num_slices=4, max_queries=5).run(
            factory, tiny_synthetic
        )
        # refit sizes grow: slice, 2 slices, 3 slices
        assert sizes == sorted(sizes)
        assert len(sizes) == 3

    def test_dynamic_model_gets_partial_fits(self, tiny_synthetic):
        holder = []

        def factory(ds):
            m = CountingModel(ds, dynamic=True)
            holder.append(m)
            return m

        DynamicLinkPredictionProtocol(num_slices=4, max_queries=5).run(
            factory, tiny_synthetic
        )
        assert len(holder) == 1  # never rebuilt
        assert len(holder[0].partial_sizes) == 3

    def test_retrain_factory_receives_seen_count(self, tiny_synthetic):
        seen_counts = []

        def retrain(ds, seen):
            seen_counts.append(seen)
            return CountingModel(ds)

        DynamicLinkPredictionProtocol(
            num_slices=4, max_queries=5, retrain_factory=retrain
        ).run(lambda ds: CountingModel(ds), tiny_synthetic)
        assert seen_counts == sorted(seen_counts)

    def test_too_few_slices(self, tiny_synthetic):
        with pytest.raises(ValueError):
            DynamicLinkPredictionProtocol(num_slices=1).run(
                lambda ds: CountingModel(ds), tiny_synthetic
            )


class TestDisturbanceProtocol:
    def test_one_result_per_eta(self, tiny_synthetic):
        protocol = NeighborhoodDisturbanceProtocol(etas=(3, None), max_queries=10)
        results = protocol.run(
            lambda ds, eta: CountingModel(ds), tiny_synthetic
        )
        assert set(results) == {3, None}

    def test_factory_receives_eta(self, tiny_synthetic):
        etas_seen = []

        def factory(ds, eta):
            etas_seen.append(eta)
            return CountingModel(ds)

        NeighborhoodDisturbanceProtocol(etas=(2, 5), max_queries=5).run(
            factory, tiny_synthetic
        )
        assert etas_seen == [2, 5]

    def test_capped_training_smaller(self, tiny_synthetic):
        sizes = {}

        def factory(ds, eta):
            m = CountingModel(ds)
            orig_fit = m.fit

            def fit(stream):
                sizes[eta] = len(stream)
                orig_fit(stream)

            m.fit = fit
            return m

        NeighborhoodDisturbanceProtocol(etas=(2, None), max_queries=5).run(
            factory, tiny_synthetic
        )
        assert sizes[2] < sizes[None]

    def test_sensitivity_spread(self):
        from repro.eval.protocol import ProtocolResult

        results = {
            5: ProtocolResult(metrics={"H@50": 0.2}, fit_seconds=0),
            None: ProtocolResult(metrics={"H@50": 0.5}, fit_seconds=0),
        }
        spread = NeighborhoodDisturbanceProtocol.sensitivity(results, "H@50")
        assert spread == pytest.approx(0.3)
