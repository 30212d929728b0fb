"""Tests for the extended tensor ops (sqrt/abs/max/min/var)."""

import numpy as np

from repro.autograd.tensor import Tensor

from tests.autograd.test_tensor import check_gradients


class TestTensorOps:
    def test_sqrt_forward(self):
        assert np.allclose(Tensor([4.0, 9.0]).sqrt().numpy(), [2.0, 3.0])

    def test_sqrt_gradient(self):
        check_gradients(lambda a: a.sqrt(), np.random.rand(5) + 0.5)

    def test_abs_forward(self):
        assert np.allclose(Tensor([-2.0, 3.0]).abs().numpy(), [2.0, 3.0])

    def test_abs_gradient_away_from_zero(self):
        check_gradients(lambda a: a.abs(), np.random.randn(5) + 3.0)
        check_gradients(lambda a: a.abs(), np.random.randn(5) - 3.0)

    def test_max_forward(self):
        t = Tensor(np.array([[1.0, 5.0], [7.0, 2.0]]))
        assert t.max().item() == 7.0
        assert np.allclose(t.max(axis=0).numpy(), [7.0, 5.0])

    def test_max_gradient(self):
        x = np.array([[1.0, 5.0], [7.0, 2.0]])
        check_gradients(lambda a: a.max(axis=1), x.copy())

    def test_max_gradient_ties_split(self):
        a = Tensor(np.array([3.0, 3.0, 1.0]), requires_grad=True)
        a.max().backward()
        assert np.allclose(a.grad, [0.5, 0.5, 0.0])

    def test_min_matches_numpy(self):
        x = np.random.randn(3, 4)
        assert np.allclose(Tensor(x).min(axis=1).numpy(), x.min(axis=1))

    def test_min_gradient(self):
        check_gradients(lambda a: a.min(axis=0), np.random.randn(3, 4))
