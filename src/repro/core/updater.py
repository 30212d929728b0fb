"""The node-type specific updater (Section III-C.1, Eq. 5).

Computes the *target embedding* of a node by forgetting its short-term
memory according to the active time interval:

    h* = h^L + h^S * g(sigma(alpha_phi(v)) * Delta_V(v)),
    g(x) = 1 / log(e + x).

The forward returns everything the analytic backward needs, and
:func:`final_embedding_rows` is the one vectorised Eq. 14 formula that
candidate scoring (Eq. 15 over the whole catalogue) and serving share.

The per-node forward/backward are thin 1-row wrappers over the shared
array kernels (:mod:`repro.core.engine.kernels`), so the reference and
batched execution engines compute Eq. 5 with literally the same code.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.config import SUPAConfig, g_decay
from repro.core.engine import kernels
from repro.core.interactor import final_embedding
from repro.core.memory import NodeMemory


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


class TargetEmbedding(NamedTuple):
    """Forward result for one node, with backward bookkeeping.

    ``gamma`` is the forgetting coefficient applied to the short-term
    memory and ``x`` its pre-``g`` argument ``sigma(alpha) * Delta``;
    both are needed by :func:`target_embedding_backward`.  ``sig``
    caches the forward's ``sigma(alpha)`` (``None`` on ablation
    branches) so the backward skips the recomputation.
    """

    h_star: np.ndarray
    gamma: float
    x: float
    node: int
    alpha_slot: int
    delta: float
    sig: "np.ndarray | None" = None


def active_interval(last_time: float, now: float) -> float:
    """``Delta_V = now - t'`` clamped to 0; fresh for never-seen nodes."""
    if not np.isfinite(last_time):
        return 0.0
    return max(0.0, now - last_time)


def target_embedding(
    memory: NodeMemory,
    node: int,
    node_type_id: int,
    delta: float,
    cfg: SUPAConfig,
) -> TargetEmbedding:
    """Eq. 5 forward for a single node at active interval ``delta``.

    Ablations: ``use_short_term=False`` drops ``h^S`` entirely
    (SUPA_nf); ``use_forgetting=False`` freezes ``gamma = 1`` (the
    time-blind part of SUPA_nt).
    """
    slot = memory.alpha_slot(node_type_id)
    h, gamma, x, sig = kernels.target_forward(
        memory.long[node : node + 1],
        memory.short[node : node + 1],
        memory.alpha[slot : slot + 1],
        np.asarray([delta], dtype=np.float64),
        cfg,
    )
    return TargetEmbedding(h[0], float(gamma[0]), float(x[0]), node, slot, delta, sig)


def target_embedding_backward(
    memory: NodeMemory,
    fwd: TargetEmbedding,
    grad_h_star: np.ndarray,
    cfg: SUPAConfig,
):
    """Analytic gradients of a loss w.r.t. ``(h^L, h^S, alpha)``.

    Returns ``(grad_long, grad_short_or_None, grad_alpha_or_None)``.
    The alpha gradient chains ``g'(x) * Delta * sigma'(alpha)`` through
    the inner product of the upstream gradient with ``h^S``.
    """
    slot = fwd.alpha_slot
    g_long, g_short, g_alpha = kernels.target_backward(
        grad_h_star[None, :],
        memory.short[fwd.node : fwd.node + 1],
        memory.alpha[slot : slot + 1],
        np.asarray([fwd.gamma], dtype=np.float64),
        np.asarray([fwd.x], dtype=np.float64),
        np.asarray([fwd.delta], dtype=np.float64),
        cfg,
        sig=fwd.sig,
    )
    return (
        g_long[0],
        None if g_short is None else g_short[0],
        None if g_alpha is None else float(g_alpha[0]),
    )


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
