"""Tests for the edge-type specific interactor (Eq. 6-7)."""

import numpy as np
import pytest

from repro.core.updater import final_embedding

from tests.oracle.interactor import interaction_loss, interaction_loss_backward


class TestFinalEmbedding:
    def test_eq6_average(self):
        h = np.array([2.0, 4.0])
        c = np.array([0.0, 2.0])
        assert np.allclose(final_embedding(h, c), [1.0, 3.0])


class TestInteractionLoss:
    def test_loss_value(self):
        h_u, c_u = np.array([1.0, 0.0]), np.array([1.0, 0.0])
        h_v, c_v = np.array([1.0, 0.0]), np.array([1.0, 0.0])
        fwd = interaction_loss(h_u, c_u, h_v, c_v)
        assert fwd.score == pytest.approx(1.0)  # (1,0).(1,0) after halving
        assert fwd.loss == pytest.approx(np.log(1 + np.exp(-1.0)))

    def test_loss_lower_for_aligned_pairs(self):
        aligned = interaction_loss(
            np.ones(3), np.ones(3), np.ones(3), np.ones(3)
        ).loss
        opposed = interaction_loss(
            np.ones(3), np.ones(3), -np.ones(3), -np.ones(3)
        ).loss
        assert aligned < opposed

    def test_extreme_scores_stable(self):
        big = np.full(4, 100.0)
        fwd = interaction_loss(big, big, big, big)
        assert np.isfinite(fwd.loss)
        fwd = interaction_loss(big, big, -big, -big)
        assert np.isfinite(fwd.loss)


class TestBackward:
    def test_gradients_match_finite_difference(self):
        rng = np.random.default_rng(0)
        h_u, c_u = rng.normal(size=3), rng.normal(size=3)
        h_v, c_v = rng.normal(size=3), rng.normal(size=3)
        fwd = interaction_loss(h_u, c_u, h_v, c_v)
        grads = interaction_loss_backward(fwd)
        arrays = [h_u, c_u, h_v, c_v]
        eps = 1e-6
        for arr, grad in zip(arrays, grads):
            for i in range(3):
                arr[i] += eps
                f_plus = interaction_loss(h_u, c_u, h_v, c_v).loss
                arr[i] -= 2 * eps
                f_minus = interaction_loss(h_u, c_u, h_v, c_v).loss
                arr[i] += eps
                assert grad[i] == pytest.approx(
                    (f_plus - f_minus) / (2 * eps), abs=1e-5
                )

    def test_gradient_pulls_pair_together(self):
        # Following the negative gradient must increase the score.
        rng = np.random.default_rng(1)
        h_u, c_u = rng.normal(size=4), rng.normal(size=4)
        h_v, c_v = rng.normal(size=4), rng.normal(size=4)
        fwd = interaction_loss(h_u, c_u, h_v, c_v)
        g_hu, g_cu, g_hv, g_cv = interaction_loss_backward(fwd)
        lr = 0.1
        fwd2 = interaction_loss(
            h_u - lr * g_hu, c_u - lr * g_cu, h_v - lr * g_hv, c_v - lr * g_cv
        )
        assert fwd2.loss < fwd.loss
