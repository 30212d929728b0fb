"""Tests for SUPAConfig and tau derivation."""

import numpy as np
import pytest

from repro.core.config import SUPAConfig, g_decay, g_decay_derivative, tau_from_g


class TestDecayFunction:
    def test_g_at_zero_is_one(self):
        assert g_decay(0.0) == pytest.approx(1.0)

    def test_g_monotone_decreasing(self):
        xs = np.linspace(0, 100, 50)
        ys = g_decay(xs)
        assert np.all(np.diff(ys) < 0)

    def test_g_derivative_matches_numeric(self):
        for x in (0.0, 1.0, 10.0, 100.0):
            eps = 1e-6
            numeric = (g_decay(x + eps) - g_decay(x - eps)) / (2 * eps)
            assert g_decay_derivative(x) == pytest.approx(numeric, rel=1e-4)


class TestTauFromG:
    def test_paper_value(self):
        # g(tau) = 0.3  =>  tau = exp(1/0.3) - e ~ 25.35
        tau = tau_from_g(0.3)
        assert tau == pytest.approx(np.exp(1 / 0.3) - np.e)
        assert g_decay(tau) == pytest.approx(0.3)

    def test_invalid_values(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                tau_from_g(bad)


class TestConfig:
    def test_default_tau_derived(self):
        cfg = SUPAConfig()
        assert cfg.tau == pytest.approx(tau_from_g(0.3))

    def test_explicit_tau_kept(self):
        assert SUPAConfig(tau=5.0).tau == 5.0

    def test_with_overrides_copies(self):
        cfg = SUPAConfig()
        other = cfg.with_overrides(dim=8)
        assert other.dim == 8 and cfg.dim != 8 or cfg.dim == 32

    def test_validation_dim(self):
        with pytest.raises(ValueError):
            SUPAConfig(dim=0)

    def test_validation_walks(self):
        with pytest.raises(ValueError):
            SUPAConfig(walk_length=0)
        with pytest.raises(ValueError):
            SUPAConfig(num_walks=-1)

    def test_validation_negatives(self):
        with pytest.raises(ValueError):
            SUPAConfig(num_negatives=-1)

    def test_validation_lr(self):
        with pytest.raises(ValueError):
            SUPAConfig(learning_rate=0.0)

    def test_all_losses_off_rejected(self):
        with pytest.raises(ValueError, match="at least one loss"):
            SUPAConfig(use_inter=False, use_prop=False, use_neg=False)
