"""The node-type specific updater, one node at a time (Section III-C.1, Eq. 5).

The readable form of Eq. 5, the target embedding of a node whose
short-term memory is forgotten according to its active time interval:

    h* = h^L + h^S * g(sigma(alpha_phi(v)) * Delta_V(v)),
    g(x) = 1 / log(e + x).

The forward returns everything the analytic backward needs.  Both are
thin 1-row wrappers over the shared array kernels
(:mod:`repro.core.engine.kernels`), so the oracle and the batched engine
compute Eq. 5 with the same code — except that the oracle's backward
takes ``g'(x)`` from :func:`~repro.core.config.g_decay_derivative` (the
split form), where the engine reuses the forward's ``log(e + x)``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.config import SUPAConfig
from repro.core.engine import kernels
from repro.core.memory import NodeMemory


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


def alpha_slot(memory: NodeMemory, node_type_id: int) -> int:
    """The alpha parameter of one node type (0 when alpha is shared)."""
    return node_type_id if memory.typed_alpha else 0


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
    slot = alpha_slot(memory, node_type_id)
    h, gamma, x, sig, _ = kernels.target_forward(
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
