"""Implementation-choice ablations called out in DESIGN.md section 5.

Not paper artefacts, but benches for this reproduction's own design
decisions:

* hand-derived SUPA gradients vs. the generic autograd engine — the
  same interaction loss computed both ways, measuring step overhead (the
  hand gradient is the engine's own Eq. 7 kernels on one edge's rows);
* alias-table negative sampling vs. linear scan over a cumulative
  distribution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Adam, Tensor
from repro.autograd.functional import log_sigmoid
from repro.core.engine import kernels
from repro.utils.alias import AliasTable
from repro.utils.rng import new_rng

DIM = 64
RNG = np.random.default_rng(0)
H_U, C_U = RNG.normal(size=DIM), RNG.normal(size=DIM)
H_V, C_V = RNG.normal(size=DIM), RNG.normal(size=DIM)
#: one edge as the engine stacks it: endpoint rows ``(u, v)`` and their
#: context rows
H_STAR, CONTEXT = np.stack((H_U, H_V)), np.stack((C_U, C_V))


def hand_gradient() -> np.ndarray:
    """``d L_inter / d h*`` per endpoint row (equal to ``d / d c^r``),
    from the engine's fused Eq. 7 kernel."""
    return kernels.interaction_rows(H_STAR, CONTEXT)[1]


def test_hand_gradient_step(benchmark):
    """Analytic forward+backward of the interaction loss."""

    grads = benchmark(hand_gradient)
    assert grads.shape == (2, DIM)


def test_autograd_gradient_step(benchmark):
    """The same loss through the tape — the overhead SUPA avoids."""

    def step():
        h_u = Tensor(H_U, requires_grad=True)
        c_u = Tensor(C_U, requires_grad=True)
        h_v = Tensor(H_V, requires_grad=True)
        c_v = Tensor(C_V, requires_grad=True)
        h_r_u = (h_u + c_u) * 0.5
        h_r_v = (h_v + c_v) * 0.5
        loss = -log_sigmoid(h_r_u @ h_r_v)
        loss.backward()
        return h_u.grad

    grad = benchmark(step)
    assert np.allclose(grad, hand_gradient()[0])


WEIGHTS = np.random.default_rng(1).random(5000) ** 2


def test_alias_sampling(benchmark):
    table = AliasTable(WEIGHTS)
    rng = new_rng(0)
    out = benchmark(lambda: table.sample(rng, size=10))
    assert len(out) == 10


def test_linear_scan_sampling(benchmark):
    """The naive alternative the alias table replaces."""
    probs = WEIGHTS / WEIGHTS.sum()
    cdf = np.cumsum(probs)
    rng = new_rng(0)

    def scan():
        return np.searchsorted(cdf, rng.random(10))

    out = benchmark(scan)
    assert len(out) == 10
