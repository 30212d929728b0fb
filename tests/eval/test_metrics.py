"""Tests for H@K, NDCG@K, MRR and rank computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.metrics import (
    RankingAccumulator,
    hit_rate,
    mrr,
    ndcg,
    rank_of_target,
)


class TestRankOfTarget:
    def test_best_score_rank_one(self):
        assert rank_of_target(np.array([0.9, 0.1, 0.2]), 0) == 1.0

    def test_worst_score(self):
        assert rank_of_target(np.array([0.9, 0.1, 0.2]), 1) == 3.0

    def test_tie_half_credit(self):
        # Two equal scores share rank 1.5.
        assert rank_of_target(np.array([0.5, 0.5]), 0) == 1.5

    def test_all_equal_mid_rank(self):
        ranks = rank_of_target(np.full(5, 1.0), 2)
        assert ranks == 1 + 0.5 * 4  # expected mid-list

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            rank_of_target(np.array([1.0]), 5)

    @given(
        scores=st.lists(st.integers(0, 5), min_size=1, max_size=30),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_candidate_order(self, scores, seed):
        """Only scores rank: shuffling the candidates keeps each rank."""
        scores = np.asarray(scores, dtype=np.float64)
        order = np.random.default_rng(seed).permutation(scores.size)
        shuffled = scores[order]
        for new_pos, old_pos in enumerate(order):
            assert rank_of_target(shuffled, new_pos) == rank_of_target(scores, old_pos)


class TestHitRate:
    def test_basic(self):
        assert hit_rate([1, 2, 100], 10) == pytest.approx(2 / 3)

    def test_boundary_inclusive(self):
        assert hit_rate([10], 10) == 1.0

    def test_empty(self):
        assert hit_rate([], 10) == 0.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            hit_rate([1], 0)


class TestNDCG:
    def test_rank_one_is_one(self):
        assert ndcg([1], 10) == pytest.approx(1.0)

    def test_known_value(self):
        assert ndcg([3], 10) == pytest.approx(1 / np.log2(4))

    def test_outside_k_is_zero(self):
        assert ndcg([11], 10) == 0.0

    def test_empty(self):
        assert ndcg([], 10) == 0.0


class TestMRR:
    def test_known_value(self):
        assert mrr([1, 2, 4]) == pytest.approx((1 + 0.5 + 0.25) / 3)

    def test_empty(self):
        assert mrr([]) == 0.0


class TestAccumulator:
    def test_metrics_keys(self):
        acc = RankingAccumulator(hit_ks=(20, 50), ndcg_k=10)
        acc.add_rank(1)
        m = acc.metrics()
        assert set(m) == {"H@20", "H@50", "NDCG@10", "MRR"}

    def test_rank_below_one_rejected(self):
        with pytest.raises(ValueError):
            RankingAccumulator().add_rank(0.5)

    def test_metrics_equal_the_functions_over_its_ranks(self):
        ranks = [1, 3, 12, 60, 2.5]
        acc = RankingAccumulator(hit_ks=(10, 50), ndcg_k=10)
        for rank in ranks:
            acc.add_rank(rank)
        assert acc.metrics() == {
            "H@10": hit_rate(ranks, 10),
            "H@50": hit_rate(ranks, 50),
            "NDCG@10": ndcg(ranks, 10),
            "MRR": mrr(ranks),
        }

    def test_len(self):
        acc = RankingAccumulator()
        acc.add_rank(3)
        acc.add_rank(5)
        assert len(acc) == 2


@given(
    ranks=st.lists(st.integers(1, 200), min_size=1, max_size=50),
    k=st.integers(1, 100),
)
@settings(max_examples=60, deadline=None)
def test_metric_invariants(ranks, k):
    """All metrics live in [0, 1]; H@K is monotone in K; NDCG <= H."""
    h_k = hit_rate(ranks, k)
    h_2k = hit_rate(ranks, 2 * k)
    n = ndcg(ranks, k)
    m = mrr(ranks)
    for value in (h_k, h_2k, n, m):
        assert 0.0 <= value <= 1.0
    assert h_2k >= h_k
    assert n <= h_k + 1e-12  # each hit contributes at most 1
