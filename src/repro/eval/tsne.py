"""A compact exact t-SNE (van der Maaten & Hinton, 2008) in numpy.

Substitutes for scikit-learn's implementation in the Figure 9 embedding
visualisation.  Exact (O(n^2)) affinities are fine at that figure's scale
(tens of points).  Includes the standard machinery: per-point perplexity
calibration by bisection, symmetrised P, early exaggeration, momentum
gradient descent on the KL divergence.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.rng import RngLike, new_rng


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    sq = np.sum(x**2, axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d, 0.0)
    return np.maximum(d, 0.0)


def _row_affinities(dists_row: np.ndarray, i: int, perplexity: float) -> np.ndarray:
    """Calibrate one row's Gaussian bandwidth to hit ``perplexity``."""
    target_entropy = np.log(perplexity)
    beta_lo, beta_hi, beta = 0.0, np.inf, 1.0
    d = np.delete(dists_row, i)
    for _ in range(64):
        p = np.exp(-d * beta)
        total = p.sum()
        if total <= 0:
            entropy, p_norm = 0.0, np.zeros_like(p)
        else:
            p_norm = p / total
            entropy = -np.sum(p_norm * np.log(np.maximum(p_norm, 1e-300)))
        if abs(entropy - target_entropy) < 1e-5:
            break
        if entropy > target_entropy:
            beta_lo = beta
            beta = beta * 2.0 if beta_hi == np.inf else (beta + beta_hi) / 2.0
        else:
            beta_hi = beta
            beta = (beta + beta_lo) / 2.0
    row = np.zeros(dists_row.size, dtype=np.float64)
    row[np.arange(dists_row.size) != i] = p_norm
    return row


def tsne(
    x: np.ndarray,
    n_components: int = 2,
    perplexity: float = 10.0,
    iterations: int = 300,
    learning_rate: float = 20.0,
    early_exaggeration: float = 4.0,
    exaggeration_iters: int = 50,
    rng: RngLike = 0,
    init: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Project ``x`` (n, d) to ``(n, n_components)`` with t-SNE.

    Deterministic for a fixed ``rng`` seed.  ``perplexity`` is clamped to
    at most ``(n - 1) / 3`` as usual.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected (n, d) input, got shape {x.shape}")
    n = x.shape[0]
    if n < 4:
        raise ValueError(f"t-SNE needs at least 4 points, got {n}")
    perplexity = min(perplexity, (n - 1) / 3.0)
    rng = new_rng(rng)

    dists = _pairwise_sq_dists(x)
    p = np.stack([_row_affinities(dists[i], i, perplexity) for i in range(n)])
    p = (p + p.T) / (2.0 * n)
    p = np.maximum(p, 1e-12)

    y = init.copy() if init is not None else rng.normal(0.0, 1e-4, size=(n, n_components))
    velocity = np.zeros_like(y)
    for it in range(iterations):
        exaggeration = early_exaggeration if it < exaggeration_iters else 1.0
        momentum = 0.5 if it < exaggeration_iters else 0.8

        dy = _pairwise_sq_dists(y)
        q_unnorm = 1.0 / (1.0 + dy)
        np.fill_diagonal(q_unnorm, 0.0)
        q = np.maximum(q_unnorm / q_unnorm.sum(), 1e-12)

        coeff = (exaggeration * p - q) * q_unnorm
        grad = 4.0 * ((np.diag(coeff.sum(axis=1)) - coeff) @ y)

        velocity = momentum * velocity - learning_rate * grad
        y = y + velocity
        y = y - y.mean(axis=0)
    return y
