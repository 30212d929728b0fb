"""Vectorised numpy kernels shared by the round executor and its oracle.

Every float produced on the training hot path — Eq. 5 target
embeddings, the Eq. 7 interaction score, the propagation weighting of
Eq. 8-9, the skip-gram losses of Eq. 10/12 and their analytic
gradients — is computed here, once, as an array kernel.  The per-edge
oracle (:mod:`repro.core.interactor`, :mod:`repro.core.updater`,
:mod:`repro.core.propagation`) calls them one edge at a time; the
round executor (:mod:`repro.core.engine.engine`) calls the row kernels
(``*_rows``, ``interaction_*``, ``target_*``) once per conflict-free
round over ``[round, dim]`` stacks.  Neither owns any arithmetic, which
is what makes the two *bitwise* comparable.

Bitwise-determinism contract (verified by the golden parity suite):

* ufunc evaluation is element-for-element independent of the array
  length, so a row kernel applied to a stack of rounds' rows equals the
  same kernel applied one edge at a time;
* ``rowwise_dot`` reduces each row independently of the batch size
  (unlike BLAS ``np.dot``, whose summation order is unspecified —
  never mix the two on values that must match across engines);
* ``sequential_sum`` / ``sequential_colsum`` /
  ``padded_segment_sums`` accumulate strictly left-to-right
  (``np.add.accumulate``), matching a scalar ``+=`` loop;
* ``np.add.at`` applies duplicate-index contributions sequentially in
  index order, matching dict-based gradient accumulation.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.config import SUPAConfig, g_decay, g_decay_derivative

__all__ = [
    "sigmoid_branched",
    "log_sigmoid_branched",
    "sigmoid_clipped",
    "rowwise_dot",
    "sequential_sum",
    "sequential_colsum",
    "padded_segment_sums",
    "edge_factors",
    "walk_cumulative_factors",
    "target_forward",
    "target_backward",
    "interaction_forward",
    "interaction_backward",
    "propagation_rows",
    "propagation_forward",
    "propagation_backward",
    "negative_rows",
    "negative_forward_backward",
    "accumulate_rows",
]


# ------------------------------------------------------------------ primitives


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


def sigmoid_clipped(x: np.ndarray) -> np.ndarray:
    """The updater's clipped-form sigmoid, ``1/(1+exp(-clip(x)))``.

    Kept distinct from :func:`sigmoid_branched`: the two legacy helpers
    differ in the last ulp for negative inputs, and each engine must use
    the form its loss historically used to stay bitwise-stable.
    """
    return 1.0 / (1.0 + np.exp(-np.clip(np.asarray(x, dtype=np.float64), -500, 500)))


def rowwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row inner products with a batch-size-independent reduction.

    ``(a * b).sum(axis=1)`` reduces each row with numpy's pairwise
    algorithm over exactly ``dim`` elements, so row ``i``'s value is
    identical whether the batch holds 1 row or 10 000.
    """
    return (a * b).sum(axis=1)


def sequential_sum(values: np.ndarray) -> float:
    """Strict left-to-right sum, equal bitwise to a scalar ``+=`` loop."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1])


def sequential_colsum(mat: np.ndarray) -> np.ndarray:
    """Column sums accumulated row-by-row (the array analogue of adding
    per-sample gradient vectors into an accumulator in sample order)."""
    if mat.shape[0] == 0:
        return np.zeros(mat.shape[1], dtype=np.float64)
    return np.add.accumulate(mat, axis=0)[-1]


def padded_segment_sums(
    values: np.ndarray, slots: np.ndarray, num_segments: int, width: int
) -> np.ndarray:
    """Left-to-right row sums of ``values`` grouped into segments.

    ``slots[i] = segment * width + position`` places row ``i`` at its
    position within its segment (positions run ``0, 1, ...`` in
    accumulation order; ``width`` bounds the longest segment).  The
    rows are scattered into a zero-padded ``(segment, width, dim)``
    block and accumulated along ``width``, so segment ``s`` receives
    ``v0 + v1 + ...`` in position order — :func:`sequential_colsum` per
    segment, in a constant number of array calls (``np.add.at`` visits
    one row per inner-loop call).  Trailing padding adds exact zeros;
    an empty segment sums to zero.
    """
    padded = np.zeros((num_segments * width, values.shape[1]), dtype=np.float64)
    padded[slots] = values
    return np.add.accumulate(padded.reshape(num_segments, width, -1), axis=1)[:, -1]


# ------------------------------------------------------------ Eq. 8-9 factors


def edge_factors(delta_e: np.ndarray, cfg: SUPAConfig) -> np.ndarray:
    """``D(Delta_E) * g(Delta_E)`` of Eq. 8 per edge age; 1 when the
    decay ablation (SUPA_nd) is on, 0 past the termination threshold."""
    delta_e = np.asarray(delta_e, dtype=np.float64)
    if not cfg.use_propagation_decay:
        return np.ones(delta_e.shape, dtype=np.float64)
    out = np.zeros(delta_e.shape, dtype=np.float64)
    live = delta_e <= cfg.tau
    out[live] = g_decay(np.maximum(delta_e[live], 0.0))
    return out


def walk_cumulative_factors(
    factors: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Running edge-factor products per walk with Eq. 9 termination.

    ``factors`` holds the per-hop edge factors of all walks back to
    back; ``offsets`` is the CSR walk boundary array.  Returns
    ``(cum, keep)`` where ``cum[i]`` is the product of factors up to and
    including hop ``i`` of its walk and ``keep[i]`` marks hops reached
    before the walk's first zero factor (an out-of-date edge terminates
    the flow; that hop and everything after it is dropped).

    The loop is over hop *positions* (at most ``walk_length - 1``
    iterations), vectorised across walks, and multiplies in exactly the
    per-walk sequential order of the scalar reference.
    """
    factors = np.asarray(factors, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    cum = np.zeros(factors.shape, dtype=np.float64)
    keep = np.zeros(factors.shape, dtype=bool)
    num_walks = offsets.size - 1
    if factors.size == 0 or num_walks <= 0:
        return cum, keep
    starts = offsets[:-1]
    lengths = offsets[1:] - starts
    carry = np.ones(num_walks, dtype=np.float64)
    alive = np.ones(num_walks, dtype=bool)
    for position in range(int(lengths.max())):
        active = np.flatnonzero(alive & (position < lengths))
        if active.size == 0:
            break
        idx = starts[active] + position
        f = factors[idx]
        nz = f != 0.0
        prod = carry[active] * f
        live_idx = idx[nz]
        cum[live_idx] = prod[nz]
        keep[live_idx] = True
        carry[active[nz]] = prod[nz]
        alive[active[~nz]] = False
    return cum, keep


# ------------------------------------------------------------- Eq. 5 updater


def target_forward(
    long_rows: np.ndarray,
    short_rows: np.ndarray,
    alpha_values: np.ndarray,
    deltas: np.ndarray,
    cfg: SUPAConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Eq. 5 forward over a batch of nodes.

    Returns ``(h_star, gamma, x, sig)`` where ``x = sigma(alpha) * Delta``
    is the pre-``g`` argument the backward needs and ``sig`` is the
    ``sigma(alpha)`` factor (``None`` on the ablation branches that never
    evaluate it) — :func:`target_backward` accepts it to skip the
    recomputation.  Ablations follow the per-node reference:
    ``use_short_term=False`` drops ``h^S`` (gamma = x = 0),
    ``use_forgetting=False`` freezes gamma at 1.
    """
    n = long_rows.shape[0]
    if not cfg.use_short_term:
        return (
            long_rows.copy(),
            np.zeros(n, dtype=np.float64),
            np.zeros(n, dtype=np.float64),
            None,
        )
    if not cfg.use_forgetting:
        return (
            long_rows + short_rows,
            np.ones(n, dtype=np.float64),
            np.zeros(n, dtype=np.float64),
            None,
        )
    sig = sigmoid_clipped(alpha_values)
    x = sig * np.asarray(deltas, dtype=np.float64)
    gamma = g_decay(x)
    h_star = long_rows + gamma[:, None] * short_rows
    return h_star, gamma, x, sig


def target_backward(
    grad_h_star: np.ndarray,
    short_rows: np.ndarray,
    alpha_values: np.ndarray,
    gamma: np.ndarray,
    x: np.ndarray,
    deltas: np.ndarray,
    cfg: SUPAConfig,
    sig: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Analytic gradients of Eq. 5 w.r.t. ``(h^L, h^S, alpha)``.

    ``grad_short``/``grad_alpha`` are ``None`` when the corresponding
    parameter does not participate (matching the scalar reference, so
    callers skip the optimiser update entirely instead of applying a
    zero gradient — an applied zero still advances Adam moments).
    ``sig`` forwards the ``sigma(alpha)`` already evaluated by
    :func:`target_forward` (same input → same bits, so passing it is
    purely a recomputation skip).
    """
    grad_long = grad_h_star
    if not cfg.use_short_term:
        return grad_long, None, None
    grad_short = gamma[:, None] * grad_h_star
    if not cfg.use_forgetting:
        return grad_long, grad_short, None
    if sig is None:
        sig = sigmoid_clipped(alpha_values)
    dgamma_dalpha = (
        g_decay_derivative(x) * np.asarray(deltas, dtype=np.float64) * sig * (1.0 - sig)
    )
    grad_alpha = rowwise_dot(grad_h_star, short_rows) * dgamma_dalpha
    return grad_long, grad_short, grad_alpha


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
    ``(loss_terms, context_grads, source_grads)`` — the caller sums the
    terms per edge and the source grads per ``(edge, side)`` in hop
    order.
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


# ------------------------------------------------------------- accumulation


def accumulate_rows(
    rows: np.ndarray, grads: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sum duplicate-row gradient contributions in encounter order.

    Returns ``(unique_rows, summed_grads)`` ready for
    :meth:`repro.core.memory.SparseAdam.update_rows` (which requires
    unique rows).  ``np.add.at`` adds duplicates sequentially in index
    order, matching dict-based accumulation bitwise; the sorted row
    order is numerically irrelevant because Adam is per-row.
    """
    rows = np.asarray(rows, dtype=np.int64)
    grads = np.asarray(grads, dtype=np.float64)
    unique, inverse = np.unique(rows, return_inverse=True)
    if unique.size == rows.size:
        return rows, grads
    out = np.zeros((unique.size, grads.shape[1]), dtype=np.float64)
    np.add.at(out, inverse, grads)
    return unique, out
