"""Parameter initialisers returning gradient-tracked tensors."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd.tensor import Tensor
from repro.utils.rng import RngLike, new_rng


def normal_(shape: Sequence[int], std: float = 0.1, rng: RngLike = None) -> Tensor:
    """Gaussian-initialised parameter with standard deviation ``std``."""
    rng = new_rng(rng)
    return Tensor(rng.normal(0.0, std, size=tuple(shape)), requires_grad=True)


def xavier_uniform(shape: Sequence[int], rng: RngLike = None) -> Tensor:
    """Glorot/Xavier uniform initialisation for weight matrices."""
    rng = new_rng(rng)
    if len(shape) < 2:
        fan_in = fan_out = int(shape[0]) if shape else 1
    else:
        fan_in, fan_out = int(shape[0]), int(shape[1])
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=tuple(shape)), requires_grad=True)
