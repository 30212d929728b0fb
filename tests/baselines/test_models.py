"""Behavioural tests shared by all seventeen methods, plus per-model
specifics.

The shared contract: fit on a training stream, score returns one finite
value per candidate, the fitted model ranks held-in pairs above random,
and partial_fit accepts further edges.
"""

import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import repro.baselines
from repro.baselines import available_baselines, make_baseline
from repro.baselines.base import BaselineModel, EmbeddingModel
from repro.baselines.registry import BASELINE_BUILDERS, STRONG_BASELINES
from repro.core import InsLearnConfig, SUPAConfig
from repro.eval import RankingEvaluator

TESTS_DIR = Path(__file__).resolve().parent

FAST_KWARGS = {
    "DeepWalk": dict(num_walks=2, walk_length=5, epochs=1),
    "LINE": dict(samples_per_edge=2),
    "node2vec": dict(num_walks=2, walk_length=5, epochs=1),
    "GATNE": dict(num_walks=2, walk_length=5, epochs=1),
    "NGCF": dict(steps=40),
    "LightGCN": dict(steps=40),
    "MATN": dict(steps=40),
    "MB-GMN": dict(steps=40),
    "HybridGNN": dict(steps=40),
    "MeLU": dict(global_steps=300),
    "NetWalk": dict(num_walks=1, walk_length=4),
    "DyGNN": dict(),
    "EvolveGCN": dict(steps=30, num_snapshots=2),
    "TGAT": dict(steps=60),
    "DyHNE": dict(),
    "DyHATR": dict(steps=25, num_snapshots=2),
    "SUPA": dict(
        config=SUPAConfig(dim=16, num_walks=2, walk_length=3),
        train_config=InsLearnConfig(
            batch_size=200, max_iterations=2, validation_interval=1, validation_size=20
        ),
    ),
}


def make_fast(name, dataset, dim=16, seed=0):
    return make_baseline(name, dataset, dim=dim, seed=seed, **FAST_KWARGS[name])


@pytest.fixture(scope="module")
def world(tiny_synthetic_module):
    ds = tiny_synthetic_module
    train, _, test = ds.split()
    queries = ds.ranking_queries(test)[:40]
    return ds, train, queries


@pytest.fixture(scope="module")
def tiny_synthetic_module():
    from repro.datasets.synthetic import BehaviorSpec, SyntheticConfig, generate

    cfg = SyntheticConfig(
        name="tiny-synth",
        mode="bipartite",
        n_users=25,
        n_items=35,
        n_events=500,
        behaviors=(
            BehaviorSpec("view", base_rate=1.0, affinity_gain=0.3),
            BehaviorSpec("buy", base_rate=0.3, affinity_gain=1.5),
        ),
        drift_rate=0.02,
        seed=7,
    )
    return generate(cfg)


@pytest.mark.parametrize("name", sorted(BASELINE_BUILDERS))
class TestSharedContract:
    def test_fit_score_and_quality(self, name, world):
        ds, train, queries = world
        model = make_fast(name, ds)
        model.fit(train)
        # scores: one finite value per candidate
        q = queries[0]
        scores = model.score(q.node, q.candidates, q.edge_type, q.t)
        assert scores.shape == (q.candidates.size,)
        assert np.all(np.isfinite(scores))
        # quality: beat the uninformed constant scorer, whose every
        # query lands at the mid-list rank (n + 1) / 2.
        result = RankingEvaluator(hit_ks=(10,), ndcg_k=10).evaluate(model, queries)
        n_candidates = queries[0].candidates.size
        constant_mrr = 2.0 / (n_candidates + 1)
        assert result["MRR"] > constant_mrr * 1.1

    def test_partial_fit_accepts_new_edges(self, name, world):
        ds, train, queries = world
        model = make_fast(name, ds)
        model.fit(train[:300])
        model.partial_fit(train[300:])
        q = queries[0]
        scores = model.score(q.node, q.candidates, q.edge_type, q.t)
        assert np.all(np.isfinite(scores))


class TestRegistry:
    def test_all_sixteen_baselines_plus_supa(self):
        assert len(BASELINE_BUILDERS) == 17
        assert "SUPA" in BASELINE_BUILDERS

    def test_paper_row_labels(self):
        expected = {
            "DeepWalk", "LINE", "node2vec", "GATNE",
            "NGCF", "LightGCN", "MATN", "MB-GMN", "HybridGNN", "MeLU",
            "NetWalk", "DyGNN", "EvolveGCN", "TGAT", "DyHNE", "DyHATR",
            "SUPA",
        }
        assert set(BASELINE_BUILDERS) == expected

    def test_strong_baselines_subset(self):
        assert set(STRONG_BASELINES) <= set(BASELINE_BUILDERS)
        assert len(STRONG_BASELINES) == 6

    def test_unknown_baseline(self, small_dataset):
        with pytest.raises(KeyError, match="unknown baseline"):
            make_baseline("GPT", small_dataset)

    def test_available_sorted(self):
        assert available_baselines() == sorted(available_baselines())

    def test_every_baseline_class_is_registered_and_tested(self):
        """Each ``BaselineModel`` / ``EmbeddingModel`` subclass defined in
        any ``repro.baselines`` module is a ``BASELINE_BUILDERS`` value and
        its module has a ``tests/baselines/test_<module>.py``."""
        registered = set(BASELINE_BUILDERS.values())
        problems = []
        checked = 0
        for info in pkgutil.iter_modules(repro.baselines.__path__):
            module = importlib.import_module(f"repro.baselines.{info.name}")
            for cls in vars(module).values():
                if (
                    not inspect.isclass(cls)
                    or cls.__module__ != module.__name__
                    or not issubclass(cls, BaselineModel)
                    or cls in (BaselineModel, EmbeddingModel)
                ):
                    continue
                checked += 1
                if cls not in registered:
                    problems.append(f"{cls.__name__} is not in BASELINE_BUILDERS")
                if not (TESTS_DIR / f"test_{info.name}.py").exists():
                    problems.append(f"{info.name}.py has no test_{info.name}.py")
        assert checked == len(registered)
        assert not problems, problems


class TestModelSpecifics:
    def test_line_rejects_odd_dim(self, small_dataset):
        with pytest.raises(ValueError, match="odd dim"):
            make_baseline("LINE", small_dataset, dim=15)

    def test_node2vec_rejects_bad_pq(self, small_dataset):
        with pytest.raises(ValueError):
            make_baseline("node2vec", small_dataset, p=0.0)

    def test_dygnn_gate_validation(self, small_dataset):
        with pytest.raises(ValueError):
            make_baseline("DyGNN", small_dataset, gate=1.5)

    def test_melu_adapts_per_user(self, world):
        ds, train, _ = world
        model = make_fast("MeLU", ds)
        model.fit(train)
        # adapted vectors are cached and differ across users with
        # different histories
        u_hist = train[0].u
        a = model._adapt(u_hist)
        b = model._adapt((u_hist + 1) % 25)
        assert a.shape == b.shape
        assert u_hist in model._adapted

    def test_gatne_produces_per_relation_tables(self, world):
        ds, train, _ = world
        model = make_fast("GATNE", ds)
        model.fit(train)
        assert isinstance(model.embeddings, dict)
        assert "view" in model.embeddings and "buy" in model.embeddings

    def test_supa_is_dynamic(self, small_dataset):
        model = make_baseline("SUPA", small_dataset)
        assert model.is_dynamic

    def test_dyhne_zero_edges(self, small_dataset):
        from repro.graph.streams import EdgeStream

        model = make_baseline("DyHNE", small_dataset, dim=4)
        model.fit(EdgeStream([]))
        assert model.embeddings.shape == (10, 4)
