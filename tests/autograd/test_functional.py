"""Tests for the neural functionals: values, gradients, stability."""

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor

from tests.autograd.test_tensor import check_gradients


class TestForwardValues:
    def test_sigmoid_values(self):
        x = Tensor([0.0, 100.0, -100.0])
        out = F.sigmoid(x).numpy()
        assert np.allclose(out, [0.5, 1.0, 0.0], atol=1e-6)

    def test_sigmoid_extreme_stability(self):
        out = F.sigmoid(Tensor([1e4, -1e4])).numpy()
        assert np.all(np.isfinite(out))

    def test_log_sigmoid_matches_log_of_sigmoid(self):
        x = np.linspace(-5, 5, 11)
        got = F.log_sigmoid(Tensor(x)).numpy()
        want = np.log(1.0 / (1.0 + np.exp(-x)))
        assert np.allclose(got, want)

    def test_log_sigmoid_extreme_stability(self):
        out = F.log_sigmoid(Tensor([1e4, -1e4])).numpy()
        assert np.all(np.isfinite(out))
        assert out[1] == pytest.approx(-1e4)

    def test_leaky_relu(self):
        out = F.leaky_relu(Tensor([-1.0, 2.0]), slope=0.1).numpy()
        assert np.allclose(out, [-0.1, 2.0])

    def test_tanh(self):
        assert np.allclose(F.tanh(Tensor([0.0])).numpy(), [0.0])

    def test_softmax_rows_sum_to_one(self):
        out = F.softmax(Tensor(np.random.randn(4, 5))).numpy()
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_softmax_shift_invariant(self):
        x = np.random.randn(3)
        a = F.softmax(Tensor(x)).numpy()
        b = F.softmax(Tensor(x + 1000.0)).numpy()
        assert np.allclose(a, b)

    def test_embedding_is_row_lookup(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = table.gather_rows([2, 0]).numpy()
        assert np.allclose(out, [[6, 7, 8], [0, 1, 2]])


class TestGradients:
    def test_sigmoid(self):
        check_gradients(F.sigmoid, np.random.randn(5))

    def test_log_sigmoid(self):
        check_gradients(F.log_sigmoid, np.random.randn(5))

    def test_tanh(self):
        check_gradients(F.tanh, np.random.randn(5))

    def test_leaky_relu(self):
        # one input per branch, away from the kink at 0
        check_gradients(lambda a: F.leaky_relu(a, 0.2), np.random.randn(5) + 2.0)
        check_gradients(lambda a: F.leaky_relu(a, 0.2), np.random.randn(5) - 2.0)

    def test_softmax(self):
        check_gradients(
            lambda a: F.softmax(a) * Tensor(np.random.default_rng(0).normal(size=(2, 4))),
            np.random.randn(2, 4),
        )
