"""The :class:`Tensor`: a numpy array with a reverse-mode gradient tape.

Each differentiable operation records its parents and a closure that
accumulates gradients into them; :meth:`Tensor.backward` runs the tape in
reverse topological order.  Broadcasting follows numpy semantics, with
gradients summed back over broadcast axes.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple, Union

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size-1 in the original.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


ArrayLike = Union["Tensor", np.ndarray, float, int]


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward

    # ------------------------------------------------------------- structure

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying array (shared, not copied)."""
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------- tape core

    @staticmethod
    def _lift(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    f"backward() without an explicit gradient needs a scalar, "
                    f"got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, False)]
            while stack:
                current, processed = stack.pop()
                if processed:
                    topo.append(current)
                    continue
                if id(current) in visited:
                    continue
                visited.add(id(current))
                stack.append((current, True))
                for parent in current._parents:
                    stack.append((parent, False))

        visit(self)
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------- arithmetic ops

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2))

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        a, b = self.data, other.data
        if a.ndim > 2 or b.ndim > 2:
            raise ValueError(
                f"matmul supports 1-D/2-D operands, got {a.ndim}-D @ {b.ndim}-D"
            )
        out_data = a @ b

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if a.ndim == 2 and b.ndim == 2:
                    self._accumulate(grad @ b.T)
                elif a.ndim == 2 and b.ndim == 1:  # (n,k)@(k,) -> (n,)
                    self._accumulate(np.outer(grad, b))
                elif a.ndim == 1 and b.ndim == 2:  # (k,)@(k,m) -> (m,)
                    self._accumulate(b @ grad)
                else:  # (k,)@(k,) -> scalar
                    self._accumulate(grad * b)
            if other.requires_grad:
                if a.ndim == 2 and b.ndim == 2:
                    other._accumulate(a.T @ grad)
                elif a.ndim == 2 and b.ndim == 1:
                    other._accumulate(a.T @ grad)
                elif a.ndim == 1 and b.ndim == 2:
                    other._accumulate(np.outer(a, grad))
                else:
                    other._accumulate(grad * a)

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------ reductions

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ----------------------------------------------------------- shape/index

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return self._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        out_data = self.data.T

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return self._make(out_data, (self,), backward)

    def gather_rows(self, indices) -> "Tensor":
        """Row lookup ``self[indices]`` with scatter-add gradients.

        This is the embedding-table primitive: the forward copies rows,
        the backward adds each output-row gradient back into its source
        row (duplicated indices accumulate).
        """
        idx = np.asarray(indices, dtype=np.int64)
        out_data = self.data[idx]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, idx, grad)
            self._accumulate(full)

        return self._make(out_data, (self,), backward)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis, differentiable."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, end)
                t._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)
