"""Tests for the autograd tape: forwards, backwards, numeric gradchecks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd.tensor import Tensor, concatenate, stack


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar ``f`` w.r.t. array ``x``."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        f_plus = f()
        x[i] = orig - eps
        f_minus = f()
        x[i] = orig
        grad[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def check_gradients(build, *arrays):
    """Compare tape gradients of ``build(*tensors).sum()`` against
    finite differences for every input array."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    loss = out.sum() if out.ndim > 0 else out
    loss.backward()
    for tensor, array in zip(tensors, arrays):
        def f(t=tensor):
            fresh = [Tensor(x.data) for x in tensors]
            o = build(*fresh)
            total = o.sum() if o.ndim > 0 else o
            return float(total.data)
        expected = numeric_grad(f, tensor.data)
        assert np.allclose(tensor.grad, expected, atol=1e-5), (
            f"gradient mismatch: {tensor.grad} vs {expected}"
        )


class TestBasics:
    def test_construction(self):
        t = Tensor([1.0, 2.0])
        assert t.shape == (2,) and t.ndim == 1 and t.size == 2

    def test_item(self):
        assert Tensor(3.5).item() == 3.5

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_needs_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="scalar"):
            t.backward()

    def test_grad_accumulates_across_uses(self):
        a = Tensor([2.0], requires_grad=True)
        (a * 3.0 + a * 4.0).sum().backward()
        assert np.allclose(a.grad, [7.0])

    def test_constant_operands_record_no_tape(self):
        out = (Tensor([1.0]) * 2.0 + Tensor([3.0])).exp()
        assert not out.requires_grad
        assert out._parents == ()

    def test_tape_keeps_only_trainable_parents(self):
        a = Tensor([1.0], requires_grad=True)
        c = Tensor([2.0])
        out = a * c
        assert out.requires_grad and out._parents == (a,)
        out.sum().backward()
        assert np.allclose(a.grad, [2.0]) and c.grad is None

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None


class TestArithmeticGradients:
    def test_add(self):
        check_gradients(lambda a, b: a + b, np.random.randn(3), np.random.randn(3))

    def test_add_broadcast(self):
        check_gradients(
            lambda a, b: a + b, np.random.randn(2, 3), np.random.randn(3)
        )

    def test_sub(self):
        check_gradients(lambda a, b: a - b, np.random.randn(3), np.random.randn(3))

    def test_rsub_scalar(self):
        check_gradients(lambda a: 1.0 - a, np.random.randn(3))

    def test_mul(self):
        check_gradients(lambda a, b: a * b, np.random.randn(4), np.random.randn(4))

    def test_mul_broadcast_column(self):
        check_gradients(
            lambda a, b: a * b, np.random.randn(3, 2), np.random.randn(3, 1)
        )

    def test_div(self):
        check_gradients(
            lambda a, b: a / b, np.random.randn(3), np.random.rand(3) + 1.0
        )

    def test_rdiv(self):
        check_gradients(lambda a: 2.0 / a, np.random.rand(3) + 1.0)

    def test_neg(self):
        check_gradients(lambda a: -a, np.random.randn(3))

    def test_pow(self):
        check_gradients(lambda a: a**3, np.random.rand(3) + 0.5)

    def test_pow_non_scalar_exponent_raises(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])


class TestMatmulGradients:
    def test_2d_2d(self):
        check_gradients(lambda a, b: a @ b, np.random.randn(3, 4), np.random.randn(4, 2))

    def test_2d_1d(self):
        check_gradients(lambda a, b: a @ b, np.random.randn(3, 4), np.random.randn(4))

    def test_1d_2d(self):
        check_gradients(lambda a, b: a @ b, np.random.randn(4), np.random.randn(4, 2))

    def test_1d_1d(self):
        check_gradients(lambda a, b: a @ b, np.random.randn(4), np.random.randn(4))

    def test_3d_raises(self):
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 2, 2))) @ Tensor(np.ones((2, 2)))


class TestReductionsAndShape:
    def test_sum_all(self):
        check_gradients(lambda a: a.sum(), np.random.randn(3, 4))

    def test_sum_axis(self):
        check_gradients(lambda a: a.sum(axis=0), np.random.randn(3, 4))

    def test_sum_keepdims(self):
        check_gradients(lambda a: a.sum(axis=1, keepdims=True), np.random.randn(3, 4))

    def test_mean(self):
        check_gradients(lambda a: a.mean(), np.random.randn(5))

    def test_mean_axis(self):
        check_gradients(lambda a: a.mean(axis=1), np.random.randn(2, 3))

    def test_reshape(self):
        check_gradients(lambda a: a.reshape(6), np.random.randn(2, 3))

    def test_transpose(self):
        check_gradients(lambda a: a.T @ a, np.random.randn(3, 2))

    def test_gather_rows(self):
        idx = np.array([0, 2, 0])
        check_gradients(lambda a: a.gather_rows(idx), np.random.randn(3, 4))

    def test_gather_rows_duplicate_accumulation(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        a.gather_rows([1, 1, 1]).sum().backward()
        assert np.allclose(a.grad[1], [3.0, 3.0])
        assert np.allclose(a.grad[0], [0.0, 0.0])


class TestElementwise:
    def test_exp(self):
        check_gradients(lambda a: a.exp(), np.random.randn(4))

    def test_log(self):
        check_gradients(lambda a: a.log(), np.random.rand(4) + 0.5)

    def test_clip(self):
        check_gradients(lambda a: a.clip(-0.5, 0.5), np.random.randn(6))


class TestCombinators:
    def test_stack(self):
        check_gradients(
            lambda a, b: stack([a, b], axis=0),
            np.random.randn(3),
            np.random.randn(3),
        )

    def test_concatenate(self):
        check_gradients(
            lambda a, b: concatenate([a, b], axis=0),
            np.random.randn(2, 3),
            np.random.randn(4, 3),
        )

    def test_concatenate_axis1(self):
        check_gradients(
            lambda a, b: concatenate([a, b], axis=1),
            np.random.randn(3, 2),
            np.random.randn(3, 4),
        )


class TestGraphTraversal:
    def test_diamond_graph(self):
        # a feeds two paths that rejoin; gradient must accumulate once each.
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = a * 2.0
        c = a * 3.0
        (b + c).sum().backward()
        assert np.allclose(a.grad, [5.0, 5.0])

    def test_deep_chain_no_recursion_error(self):
        a = Tensor([1.0], requires_grad=True)
        x = a
        for _ in range(3000):
            x = x + 1.0
        x.sum().backward()
        assert np.allclose(a.grad, [1.0])


@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
def test_sigmoid_dot_chain_gradcheck(rows, cols, seed):
    """Random-shape composite: sum(1/(1+exp(-(A@B)))) gradchecks."""
    rng = np.random.default_rng(seed)
    a_data = rng.normal(size=(rows, cols))
    b_data = rng.normal(size=(cols,))

    def build(a, b):
        z = a @ b
        return 1.0 / ((-z).exp() + 1.0)

    check_gradients(build, a_data, b_data)
