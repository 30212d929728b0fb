"""The split kernels the round executor's fused ones are pinned to.

The per-edge oracle computes each loss with its own forward and
backward, one edge at a time, from the separate sigmoid and log-sigmoid
below.  The production kernels (:mod:`repro.core.engine.kernels`) fuse
them — one exponential for both sigmoids, Eq. 7's forward and backward
in one call, Eq. 10 hops and Eq. 12 negatives in one draw kernel — and
must keep every bit: ``tests/core/test_round_kernels.py`` pins each
fused form against the split one here, and the parity suite pins the
two engines end to end.  The shared primitives (``rowwise_dot``,
``sequential_sum``, Eq. 5, the Eq. 8-9 factors) are imported from
production; nothing here is a second copy of them.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.engine.kernels import rowwise_dot, sequential_sum

# ------------------------------------------------------------------ sigmoids


def sigmoid_branched(x: np.ndarray) -> np.ndarray:
    """Numerically-stable sigmoid (``x >= 0``: ``1/(1+exp(-min(x,500)))``;
    else ``z/(1+z)`` with ``z = exp(max(x,-500))``).  Both branches read
    one ``exp(-min(|x|, 500))``, which is each branch's exponential."""
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.minimum(np.abs(x), 500.0))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def log_sigmoid_branched(x: np.ndarray) -> np.ndarray:
    """``log sigma(x)`` without overflow (``x >= 0``:
    ``-log1p(exp(-x))``; else ``x - log1p(exp(x))``), both branches from
    one ``exp(-|x|)``."""
    x = np.asarray(x, dtype=np.float64)
    tail = np.log1p(np.exp(-np.abs(x)))
    return np.where(x >= 0.0, -tail, x - tail)


def sequential_colsum(mat: np.ndarray) -> np.ndarray:
    """Column sums accumulated row-by-row (the array analogue of adding
    per-sample gradient vectors into an accumulator in sample order)."""
    if mat.shape[0] == 0:
        return np.zeros(mat.shape[1], dtype=np.float64)
    return np.add.accumulate(mat, axis=0)[-1]


# ------------------------------------------------------------ Eq. 7 interactor


def interaction_forward(
    h_star: np.ndarray, context: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 6-7 forward over stacked endpoint pairs.

    Rows ``2i`` / ``2i + 1`` of both inputs are edge ``i``'s ``u`` /
    ``v`` side.  Returns ``(loss, score, h_r)``: the per-edge
    ``-log sigma(h_u^r . h_v^r)``, its score, and the ``(2k, dim)``
    final embeddings ``h^r = 1/2 (h* + c^r)`` the backward reuses.
    """
    h_r = 0.5 * (h_star + context)
    score = rowwise_dot(h_r[0::2], h_r[1::2])
    return -log_sigmoid_branched(score), score, h_r


def interaction_backward(score: np.ndarray, h_r: np.ndarray) -> np.ndarray:
    """Gradient of Eq. 7 w.r.t. each endpoint's ``h*`` *and* ``c^r``.

    With ``s = h_u^r . h_v^r`` the upstream derivative is
    ``dL/ds = sigma(s) - 1``; Eq. 6's half factor makes the two
    gradients of a side equal, so one ``(2k, dim)`` array serves both.
    """
    coeff = (sigmoid_branched(score) - 1.0)[:, None]
    grad = np.empty(h_r.shape, dtype=np.float64)
    grad[0::2] = coeff * h_r[1::2]
    grad[1::2] = coeff * h_r[0::2]
    return 0.5 * grad


# --------------------------------------------------------- Eq. 10 propagation


def propagation_rows(
    context_rows: np.ndarray, source_rows: np.ndarray, cum_factors: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 10 hop by hop, no reduction across hops.

    ``source_rows`` gathers each hop's source target embedding.  Returns
    ``(loss_terms, context_grads, source_grads)``.
    """
    scores = rowwise_dot(context_rows, cum_factors[:, None] * source_rows)
    coeff = ((sigmoid_branched(scores) - 1.0) * cum_factors)[:, None]
    return (
        -log_sigmoid_branched(scores),
        coeff * source_rows,
        coeff * context_rows,
    )


def propagation_forward(
    context_rows: np.ndarray,
    h_star_sides: np.ndarray,
    sides: np.ndarray,
    cum_factors: np.ndarray,
) -> Tuple[np.ndarray, float]:
    """Eq. 10 forward over the surviving propagation hops of one edge.

    ``context_rows`` gathers ``c_z^r`` per hop, ``h_star_sides`` is the
    ``(2, dim)`` stack of source target embeddings and ``sides`` selects
    the flow's source per hop.  Returns ``(scores, loss)``.
    """
    d_vecs = cum_factors[:, None] * h_star_sides[sides]
    scores = rowwise_dot(context_rows, d_vecs)
    loss = sequential_sum(-log_sigmoid_branched(scores))
    return scores, loss


def propagation_backward(
    context_rows: np.ndarray,
    h_star_sides: np.ndarray,
    sides: np.ndarray,
    cum_factors: np.ndarray,
    scores: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients of Eq. 10: per-hop context grads and the two summed
    source-side grads (``np.add.at`` keeps hop-order accumulation)."""
    coeff = (sigmoid_branched(scores) - 1.0) * cum_factors
    context_grads = coeff[:, None] * h_star_sides[sides]
    grad_sides = np.zeros(h_star_sides.shape, dtype=np.float64)
    np.add.at(grad_sides, sides, coeff[:, None] * context_rows)
    return context_grads, grad_sides


# ------------------------------------------------------------- Eq. 12 negative


def negative_rows(
    context_rows: np.ndarray, source_rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 12 draw by draw, no reduction across draws.

    Returns ``(loss_terms, context_grads, source_grads)``, shaped like
    :func:`propagation_rows`.
    """
    scores = rowwise_dot(context_rows, source_rows)
    coeff = sigmoid_branched(scores)[:, None]
    return (
        -log_sigmoid_branched(-scores),
        coeff * source_rows,
        coeff * context_rows,
    )


def negative_forward_backward(
    context_rows: np.ndarray, h_star: np.ndarray
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Eq. 12 loss and gradients for one side's negative samples.

    Returns ``(loss, context_grads, grad_h_star)``; ``grad_h_star`` is
    pre-summed over samples in draw order.
    """
    terms, context_grads, source_grads = negative_rows(
        context_rows, np.broadcast_to(h_star, context_rows.shape)
    )
    return sequential_sum(terms), context_grads, sequential_colsum(source_grads)
