"""The node-type specific updater (Section III-C.1, Eq. 5).

Computes the *target embedding* of a node by forgetting its short-term
memory according to the active time interval:

    h* = h^L + h^S * g(sigma(alpha_phi(v)) * Delta_V(v)),
    g(x) = 1 / log(e + x).

Training computes Eq. 5 with the row kernels
(:mod:`repro.core.engine.kernels`); this module is the read side:
:func:`final_embedding_rows` is the one vectorised Eq. 14 formula that
candidate scoring (Eq. 15 over the whole catalogue) and serving share.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SUPAConfig, g_decay


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def final_embedding(h_star: np.ndarray, context: np.ndarray) -> np.ndarray:
    """Eq. 6/14: ``h^r = 1/2 (h* + c^r)``."""
    return 0.5 * (h_star + context)


def active_interval(last_time: float, now: float) -> float:
    """``Delta_V = now - t'`` clamped to 0; fresh for never-seen nodes."""
    if not np.isfinite(last_time):
        return 0.0
    return max(0.0, now - last_time)


def final_embedding_rows(
    long_rows: np.ndarray,
    short_rows: np.ndarray,
    context_rows: np.ndarray,
    alpha: np.ndarray,
    slots: np.ndarray,
    deltas: np.ndarray,
    cfg: SUPAConfig,
) -> np.ndarray:
    """Eq. 14's ``h^r = 1/2 (h* + c^r)`` from gathered component rows.

    The one served formula: ``SUPA.final_embedding_rows`` gathers the
    live memory's rows, the serve store (:mod:`repro.serve.store`) the
    rows it captured at publish time, and both call this, so a served
    row is bitwise the model's answer at the same clock.  ``h*`` is the
    decayed Eq. 5 form (``slots`` index ``alpha``; non-finite and
    negative ``deltas`` — never-seen nodes, clock skew — clamp to 0),
    Eq. 14's plain ``h^L + h^S`` without forgetting, and ``h^L`` alone
    without short-term memory.  (Eq. 14's gamma = 1 holds right after an
    update; the decayed form reads Definition 2's time dependence.)
    """
    if not cfg.use_short_term:
        h_star = long_rows
    elif not cfg.use_forgetting:
        h_star = long_rows + short_rows
    else:
        deltas = np.asarray(deltas, dtype=np.float64)
        deltas = np.where(np.isfinite(deltas), np.maximum(deltas, 0.0), 0.0)
        slots = np.asarray(slots, dtype=np.int64)
        gammas = g_decay(_sigmoid(np.asarray(alpha, dtype=np.float64)[slots]) * deltas)
        h_star = long_rows + gammas[:, None] * short_rows
    return final_embedding(h_star, context_rows)
