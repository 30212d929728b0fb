"""Tests for SUPAConfig and tau derivation."""

import dataclasses
import math

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
        # g(tau) = 0.3  =>  tau = exp(1/0.3) - e ~ 25.31
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

    def test_negative_or_nan_tau_refused(self):
        """Either would switch propagation off without an error: no
        ``delta_e <= tau`` is true.  ``inf`` (no cut-off) and 0 stay."""
        for bad in (-1.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match="tau"):
                SUPAConfig(tau=bad)
        assert SUPAConfig(tau=math.inf).tau == math.inf
        assert SUPAConfig(tau=0.0).tau == 0.0

    def test_with_overrides_equals_construction_for_every_field(self):
        """No field is derived from another at construction, so an
        override never leaves a stale value behind."""
        default = SUPAConfig()
        for field in dataclasses.fields(SUPAConfig):
            value = getattr(default, field.name)
            if isinstance(value, bool):
                value = not value
            elif isinstance(value, int):
                value += 1
            else:
                value /= 2
            built = SUPAConfig(**{field.name: value})
            assert default.with_overrides(**{field.name: value}) == built, field.name

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

    def test_all_losses_off_rejected(self):
        with pytest.raises(ValueError, match="at least one loss"):
            SUPAConfig(use_inter=False, use_prop=False, use_neg=False)
