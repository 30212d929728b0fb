"""The first-order optimiser over autograd tensors.

The paper trains SUPA with Adam (lr 3e-3, weight decay 1e-4); the
baselines that train through the tape use Adam.
Weight decay is applied as decoupled L2 on the raw gradient (classic
Adam-with-L2, matching the common framework default the paper used).
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.autograd.tensor import Tensor


class Adam:
    """Adam (Kingma & Ba, 2015) with L2 weight decay."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 3e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        for p in self.params:
            if not p.requires_grad:
                raise ValueError("optimizer received a non-trainable tensor")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= betas[0] < 1.0 or not 0.0 <= betas[1] < 1.0:
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            # Parameter updates run strictly after backward() has drained
            # the tape, so the in-place write cannot corrupt saved
            # activations.
            p.data -= self.lr * m_hat / (  # reprolint: disable=inplace-mutation
                np.sqrt(v_hat) + self.eps
            )
