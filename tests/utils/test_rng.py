"""Tests for seeded RNG helpers."""

import numpy as np

from repro.utils.rng import derive_seed, new_rng


class TestNewRng:
    def test_same_seed_same_stream(self):
        a = new_rng(42).random(10)
        b = new_rng(42).random(10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(new_rng(1).random(10), new_rng(2).random(10))

    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert new_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(new_rng(None), np.random.Generator)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_salt_changes_result(self):
        assert derive_seed(1, 2) != derive_seed(1, 3)

    def test_none_passthrough(self):
        assert derive_seed(None, 5) is None

    def test_in_valid_range(self):
        s = derive_seed(123456789, 42)
        assert 0 <= s < 2**63 - 1
