"""Tests for Walker alias sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.alias import AliasTable
from repro.utils.rng import new_rng


class TestValidation:
    def test_empty_raises(self):
        with pytest.raises(ValueError, match="zero outcomes"):
            AliasTable([])

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            AliasTable([1.0, -0.5])

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            AliasTable([0.0, 0.0])

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            AliasTable([1.0, np.nan])

    def test_2d_raises(self):
        with pytest.raises(ValueError):
            AliasTable(np.ones((2, 2)))


class TestSampling:
    def test_single_outcome(self):
        table = AliasTable([3.0])
        assert table.sample(new_rng(0)) == 0

    def test_scalar_vs_array_modes(self):
        table = AliasTable([1, 2, 3])
        assert isinstance(table.sample(new_rng(0)), int)
        out = table.sample(new_rng(0), size=10)
        assert out.shape == (10,)

    def test_zero_weight_never_sampled(self):
        table = AliasTable([1.0, 0.0, 1.0])
        samples = table.sample(new_rng(0), size=2000)
        assert not np.any(samples == 1)

    def test_empirical_distribution_matches(self):
        weights = np.array([1.0, 2.0, 7.0])
        table = AliasTable(weights)
        samples = table.sample(new_rng(1), size=60000)
        freq = np.bincount(samples, minlength=3) / 60000
        assert np.allclose(freq, weights / weights.sum(), atol=0.02)

    def test_deterministic_given_seed(self):
        table = AliasTable([1, 2, 3, 4])
        a = table.sample(new_rng(5), size=50)
        b = table.sample(new_rng(5), size=50)
        assert np.array_equal(a, b)

    def test_len(self):
        assert len(AliasTable([1, 1, 1])) == 3


@given(
    weights=st.lists(
        st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=10
    )
)
@settings(max_examples=20, deadline=None)
def test_samples_in_range(weights):
    table = AliasTable(weights)
    samples = table.sample(new_rng(0), size=100)
    assert np.all((0 <= samples) & (samples < len(weights)))


def encoded_distribution(table: AliasTable) -> np.ndarray:
    """The distribution the table's columns encode: column ``i`` is drawn
    with probability ``1/n`` and keeps ``i`` with probability ``prob[i]``,
    else yields ``alias[i]``."""
    n = len(table)
    kept = table._prob / n
    handed_on = np.bincount(table._alias, weights=(1.0 - table._prob) / n, minlength=n)
    return kept + handed_on


@given(
    weights=st.lists(
        st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=40
    )
)
@settings(max_examples=50, deadline=None)
def test_probabilities_normalised(weights):
    probs = encoded_distribution(AliasTable(weights))
    assert np.isclose(probs.sum(), 1.0)
    assert np.allclose(probs, np.asarray(weights) / np.sum(weights))


def test_zero_weight_columns_hand_everything_on():
    probs = encoded_distribution(AliasTable([0.0, 3.0, 0.0, 1.0]))
    assert np.allclose(probs, [0.0, 0.75, 0.0, 0.25])
