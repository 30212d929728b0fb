"""The time-aware propagation module, one edge at a time (Section III-D, Eq. 8-10).

Two propagation flows carry the target embeddings of the interactive
nodes across the sampled influenced graph.  Crossing an edge of age
``Delta_E`` multiplies the carried information by
``D(Delta_E) * g(Delta_E)`` — **attenuation** via ``g`` and
**termination** via the out-of-date filter ``D`` (Eq. 9).  The
propagation loss (Eq. 10) is a skip-gram objective between the arriving
information and each influenced node's context embedding.

This readable form walks the influenced graph's Python objects, lowers
the surviving hops to flat arrays and calls the split Eq. 10 kernels
(:mod:`tests.oracle.kernels`), which the batched engine's fused draw
kernel is pinned to bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.config import SUPAConfig, g_decay
from repro.core.memory import NodeMemory
from repro.graph.sampling import Walk

from tests.oracle import kernels
from tests.oracle.sampling import InfluencedGraph


@dataclass
class PropagationStep:
    """One ``<z_i, r_i>`` hop reached by a propagation flow.

    ``cum_factor`` is the product of all edge factors on the path so
    far, so the arriving information is ``cum_factor * h*_source``;
    ``source_side`` is 0 when the flow started at ``u``, 1 for ``v``.
    """

    node: int
    rel: int
    cum_factor: float
    source_side: int
    score: float  # c_z^{r} . d_{p,z}


@dataclass
class PropagationForward:
    """Forward state of Eq. 10 over the whole influenced graph."""

    loss: float
    steps: List[PropagationStep]


def edge_factor(delta_e: float, cfg: SUPAConfig) -> float:
    """``D(Delta_E) * g(Delta_E)`` of Eq. 8; 1.0 when decay is ablated.

    Scalar twin of :func:`repro.core.engine.kernels.edge_factors` (same
    branches, same arithmetic — the parity suite asserts they agree
    bitwise); the scalar form avoids a 1-element array round trip on
    every hop of the reference path.
    """
    if not cfg.use_propagation_decay:
        return 1.0
    if delta_e > cfg.tau:
        return 0.0
    return float(g_decay(max(delta_e, 0.0)))


def _walk_steps(
    walk: Walk, now: float, source_side: int, cfg: SUPAConfig
) -> List[Tuple[int, int, float]]:
    """``(node, rel, cum_factor)`` per hop until the flow terminates."""
    out = []
    cum = 1.0
    for step in walk.steps[1:]:
        factor = edge_factor(now - step.t, cfg)
        if factor == 0.0:
            break  # Eq. 9: out-of-date edge terminates this flow.
        cum *= factor
        out.append((step.node, step.rel, cum))
    return out


def _step_arrays(
    memory: NodeMemory, steps: List[PropagationStep]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lower step objects to ``(slots, nodes, sides, cums)`` arrays."""
    nodes = np.asarray([s.node for s in steps], dtype=np.int64)
    rels = np.asarray([s.rel for s in steps], dtype=np.int64)
    sides = np.asarray([s.source_side for s in steps], dtype=np.int64)
    cums = np.asarray([s.cum_factor for s in steps], dtype=np.float64)
    return memory.context_slots(rels), nodes, sides, cums


def propagation_loss(
    memory: NodeMemory,
    influenced: InfluencedGraph,
    h_star_u: np.ndarray,
    h_star_v: np.ndarray,
    now: float,
    cfg: SUPAConfig,
) -> PropagationForward:
    """Eq. 10 forward: ``-sum log sigma(c_z^{r} . d_{p,z})``.

    The initial interaction information of each flow is the target
    embedding of its source node (the new edge's information is already
    folded into the short-term memories).
    """
    steps: List[PropagationStep] = []
    for walks, side in ((influenced.walks_u, 0), (influenced.walks_v, 1)):
        for walk in walks:
            for node, rel, cum in _walk_steps(walk, now, side, cfg):
                steps.append(
                    PropagationStep(
                        node=node,
                        rel=rel,
                        cum_factor=cum,
                        source_side=side,
                        score=0.0,
                    )
                )
    if not steps:
        return PropagationForward(loss=0.0, steps=steps)
    slots, nodes, sides, cums = _step_arrays(memory, steps)
    h_sides = np.stack((h_star_u, h_star_v))
    scores, loss = kernels.propagation_forward(
        memory.context[slots, nodes], h_sides, sides, cums
    )
    for i, step in enumerate(steps):
        step.score = float(scores[i])
    return PropagationForward(loss=loss, steps=steps)


def propagation_loss_backward(
    memory: NodeMemory,
    fwd: PropagationForward,
    h_star_u: np.ndarray,
    h_star_v: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, List[Tuple[int, int, np.ndarray]]]:
    """Gradients of Eq. 10.

    Returns ``(grad_h_star_u, grad_h_star_v, context_grads)`` where
    ``context_grads`` is a list of ``(context_slot, node, grad)``
    contributions (duplicates to be accumulated by the caller).
    """
    if not fwd.steps:
        zero = np.zeros(h_star_u.shape, dtype=np.float64)
        return zero, zero.copy(), []
    slots, nodes, sides, cums = _step_arrays(memory, fwd.steps)
    scores = np.asarray([s.score for s in fwd.steps], dtype=np.float64)
    h_sides = np.stack((h_star_u, h_star_v))
    ctx_grads, grad_sides = kernels.propagation_backward(
        memory.context[slots, nodes], h_sides, sides, cums, scores
    )
    context_grads = [
        (int(slots[i]), step.node, ctx_grads[i]) for i, step in enumerate(fwd.steps)
    ]
    return grad_sides[0], grad_sides[1], context_grads
