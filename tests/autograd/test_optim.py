"""Tests for the Adam optimiser and its base class."""

import numpy as np
import pytest

from repro.autograd import Adam
from repro.autograd.tensor import Tensor


def quadratic_descend(optimizer_factory, steps=200):
    """Minimise ||x - target||^2; returns final x."""
    x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    target = np.array([1.0, 2.0])
    opt = optimizer_factory([x])
    for _ in range(steps):
        loss = ((x - Tensor(target)) ** 2).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
    return x.data, target


class TestValidation:
    def test_empty_params_raise(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_non_trainable_raises(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0])])

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], lr=0.0)
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], lr=-1.0)

    def test_bad_betas(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0], requires_grad=True)], betas=(1.0, 0.9))


class TestConvergence:
    def test_adam_converges(self):
        final, target = quadratic_descend(lambda p: Adam(p, lr=0.1), steps=400)
        assert np.allclose(final, target, atol=1e-2)


class TestBehaviour:
    def test_skips_params_without_grad(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([1.0], requires_grad=True)
        opt = Adam([a, b], lr=0.1)
        (a * 2).sum().backward()
        opt.step()
        assert a.data[0] != 1.0
        assert b.data[0] == 1.0

    def test_adam_weight_decay(self):
        a = Tensor([10.0], requires_grad=True)
        opt = Adam([a], lr=0.1, weight_decay=0.5)
        a.grad = np.zeros(1)
        opt.step()
        assert a.data[0] < 10.0

    def test_weight_decay_shrinks_params(self):
        # decay pulls every coordinate toward zero, from either side
        a = Tensor([10.0, -10.0], requires_grad=True)
        opt = Adam([a], lr=0.1, weight_decay=0.5)
        for _ in range(5):
            a.grad = np.zeros(2)
            opt.step()
        assert 0.0 < a.data[0] < 10.0
        assert -10.0 < a.data[1] < 0.0

    def test_first_step_is_lr_per_coordinate(self):
        # bias correction makes step one lr * sign(grad), whatever the scale
        a = Tensor([0.0, 0.0, 0.0], requires_grad=True)
        opt = Adam([a], lr=0.01)
        a.grad = np.array([1e-3, -5.0, 1e4])
        opt.step()
        assert np.allclose(a.data, [-0.01, 0.01, -0.01], rtol=1e-3)

    def test_zero_grad_clears(self):
        a = Tensor([1.0], requires_grad=True)
        opt = Adam([a], lr=0.1)
        (a * 2).sum().backward()
        opt.zero_grad()
        assert a.grad is None

    def test_adam_step_size_bounded_at_start(self):
        # Adam's bias correction keeps the first step near lr in scale.
        a = Tensor([0.0], requires_grad=True)
        opt = Adam([a], lr=0.01)
        a.grad = np.array([1000.0])
        opt.step()
        assert abs(a.data[0]) < 0.02
