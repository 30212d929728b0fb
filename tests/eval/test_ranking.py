"""Tests for the ranking evaluator."""

import numpy as np
import pytest

from repro.eval.ranking import EvaluationResult, RankingEvaluator, RankingQuery


class PerfectScorer:
    """Scores the true node highest (it knows the queries)."""

    def __init__(self, truth):
        self.truth = truth

    def score(self, node, candidates, edge_type, t):
        return (np.asarray(candidates) == self.truth[node]).astype(float)


class ConstantScorer:
    def score(self, node, candidates, edge_type, t):
        return np.zeros(len(candidates))


class BadShapeScorer:
    def score(self, node, candidates, edge_type, t):
        return np.zeros(3)


def make_queries(n=10, num_candidates=20):
    rng = np.random.default_rng(0)
    queries, truth = [], {}
    for i in range(n):
        candidates = np.arange(num_candidates)
        true = int(rng.integers(num_candidates))
        truth[i] = true
        queries.append(RankingQuery(i, true, candidates, "r", float(i)))
    return queries, truth


class TestEvaluate:
    def test_perfect_scorer_gets_mrr_one(self):
        queries, truth = make_queries()
        result = RankingEvaluator().evaluate(PerfectScorer(truth), queries)
        assert result["MRR"] == pytest.approx(1.0)
        assert result["H@20"] == 1.0

    def test_constant_scorer_mid_rank(self):
        queries, _ = make_queries(num_candidates=21)
        result = RankingEvaluator().evaluate(ConstantScorer(), queries)
        assert np.allclose(result.ranks, 11.0)  # mid of 21 candidates

    def test_result_counts(self):
        queries, truth = make_queries(n=7)
        result = RankingEvaluator().evaluate(PerfectScorer(truth), queries)
        assert result.num_queries == 7
        assert result.ranks.shape == (7,)

    def test_max_queries_subsamples(self):
        queries, truth = make_queries(n=50)
        ev = RankingEvaluator(max_queries=10, seed=0)
        result = ev.evaluate(PerfectScorer(truth), queries)
        assert result.num_queries == 10

    def test_every_call_ranks_the_same_subsample(self):
        """The subsample depends on the seed alone, not on how many
        models the evaluator ranked before: a figure's methods all see
        the same queries."""
        queries, _ = make_queries(n=20)
        asked = []

        class Recording(ConstantScorer):
            def score(self, node, candidates, edge_type, t):
                asked[-1].append(node)
                return super().score(node, candidates, edge_type, t)

        ev = RankingEvaluator(max_queries=5)
        for _ in range(2):
            asked.append([])
            ev.evaluate(Recording(), queries)
        assert len(asked[0]) == 5
        assert asked[0] == asked[1]

    def test_shape_mismatch_raises(self):
        queries, _ = make_queries(n=1)
        with pytest.raises(ValueError, match="shape"):
            RankingEvaluator().evaluate(BadShapeScorer(), queries)

    def test_true_node_missing_raises(self):
        q = RankingQuery(0, 99, np.arange(5), "r", 0.0)
        with pytest.raises(ValueError, match="missing"):
            RankingEvaluator().evaluate(ConstantScorer(), [q])

    def test_custom_ks(self):
        queries, truth = make_queries()
        ev = RankingEvaluator(hit_ks=(1, 5), ndcg_k=3)
        result = ev.evaluate(PerfectScorer(truth), queries)
        assert set(result.metrics) == {"H@1", "H@5", "NDCG@3", "MRR"}

    def test_getitem(self):
        queries, truth = make_queries()
        result = RankingEvaluator().evaluate(PerfectScorer(truth), queries)
        assert result["MRR"] == result.metrics["MRR"]
