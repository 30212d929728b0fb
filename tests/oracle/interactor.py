"""The edge-type specific interactor, one edge at a time (Section III-C.2, Eq. 7).

The readable form of Eq. 7: the interaction loss ``L_inter = -log
sigma(h_u^r . h_v^r)`` over the final embeddings ``h^r = 1/2 (h* + c^r)``
(Eq. 6, :func:`repro.core.updater.final_embedding`) that pulls the two
interactive nodes together.  Forward and analytic backward are separate
so the oracle engine can fold the gradients into its dict accumulators;
both are one-edge calls of the split Eq. 7 kernels in
:mod:`tests.oracle.kernels`, which the engine's fused
:func:`~repro.core.engine.kernels.interaction_rows` is pinned to.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from tests.oracle import kernels


class InteractionForward(NamedTuple):
    """Forward state of the interaction loss for one edge."""

    loss: float
    score: float
    h_r_u: np.ndarray
    h_r_v: np.ndarray


def interaction_loss(
    h_star_u: np.ndarray,
    c_u: np.ndarray,
    h_star_v: np.ndarray,
    c_v: np.ndarray,
) -> InteractionForward:
    """Eq. 7 forward: ``-log sigma(h_u^r . h_v^r)``."""
    loss, score, h_r = kernels.interaction_forward(
        np.stack((h_star_u, h_star_v)), np.stack((c_u, c_v))
    )
    return InteractionForward(
        loss=float(loss[0]), score=float(score[0]), h_r_u=h_r[0], h_r_v=h_r[1]
    )


def interaction_loss_backward(
    fwd: InteractionForward,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients ``(d/dh*_u, d/dc_u, d/dh*_v, d/dc_v)`` of Eq. 7."""
    grad = kernels.interaction_backward(
        np.asarray([fwd.score], dtype=np.float64), np.stack((fwd.h_r_u, fwd.h_r_v))
    )
    return grad[0], grad[0], grad[1], grad[1]
