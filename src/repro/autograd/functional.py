"""Differentiable neural functionals built on :class:`~repro.autograd.tensor.Tensor`."""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """``exp(min(z,0)) / (1 + exp(-|z|))`` — never overflows."""
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic sigmoid."""
    data = _stable_sigmoid(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * data * (1.0 - data))

    return Tensor._make(data, (x,), backward)


def log_sigmoid(x: Tensor) -> Tensor:
    """``log(sigmoid(x)) = min(x, 0) - log1p(exp(-|x|))`` — stable."""
    z = x.data
    data = np.minimum(z, 0.0) - np.log1p(np.exp(-np.abs(z)))
    sig = _stable_sigmoid(z)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (1.0 - sig))

    return Tensor._make(data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (1.0 - data**2))

    return Tensor._make(data, (x,), backward)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    data = np.where(x.data > 0, x.data, slope * x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * np.where(x.data > 0, 1.0, slope))

    return Tensor._make(data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * data).sum(axis=axis, keepdims=True)
        x._accumulate(data * (grad - dot))

    return Tensor._make(data, (x,), backward)
