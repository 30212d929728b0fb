"""Vectorised numpy kernels: every float of the round executor.

Every float produced on the training hot path — Eq. 5 target
embeddings, the Eq. 7 interaction score, the propagation weighting of
Eq. 8-9, the skip-gram losses of Eq. 10/12 and their analytic
gradients — is computed here as an array kernel.  The round executor
(:mod:`repro.core.engine.engine`) calls the row kernels once per
conflict-free round over ``[round, dim]`` stacks, fused so a round
costs few array calls: :func:`interaction_rows` is Eq. 7's forward and
backward, :func:`context_draw_rows` scores a round's Eq. 10 hops and
Eq. 12 negatives in one pass, and both read :func:`sigmoid_nll`, which
draws the sigmoid and the loss from one exponential.

Their specification is the per-edge oracle's split forms
(``tests/oracle/kernels.py``: separate forward and backward, one kernel
per loss, separate sigmoid and log-sigmoid), which the oracle engine
calls one edge at a time.  Each fused form is pinned bit for bit to the
split form it replaces (``tests/core/test_round_kernels.py``), and the
parity suite holds the two engines byte-identical end to end.

Bitwise-determinism contract:

* ufunc evaluation is element-for-element independent of the array
  length, so a row kernel applied to a stack of rounds' rows equals the
  same kernel applied one edge at a time;
* a fused kernel only shares intermediates or applies IEEE identities
  (``1.0 * x``, ``x - 0.0``, ``-1.0 * x`` are exact), never reorders an
  operation;
* ``rowwise_dot`` reduces each row independently of the batch size
  (unlike BLAS ``np.dot``, whose summation order is unspecified —
  never mix the two on values that must match across engines);
* ``sequential_sum`` / ``padded_segment_sums`` accumulate strictly
  left to right, matching a scalar ``+=`` loop;
* ``np.add.at`` applies duplicate-index contributions sequentially in
  index order, matching dict-based gradient accumulation.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.config import SUPAConfig, g_decay, g_decay_derivative

__all__ = [
    "sigmoid_nll",
    "sigmoid_clipped",
    "rowwise_dot",
    "sequential_sum",
    "padded_segment_sums",
    "edge_factors",
    "walk_cumulative_factors",
    "target_forward",
    "target_backward",
    "interaction_rows",
    "context_draw_rows",
    "accumulate_rows",
]


# ------------------------------------------------------------------ primitives


def sigmoid_nll(
    x: np.ndarray, signs: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """``(sigma(x), -log sigma(t))`` with ``t = signs * x`` (``t = x``
    when ``signs`` is ``None``; each sign is ``+1.0`` or ``-1.0``).

    Both read one ``z = exp(-|x|)``, since ``|t| = |x|``: the sigmoid
    is ``1/(1+z)`` for ``x >= 0``, else ``z/(1+z)``, and ``log sigma(t)``
    is ``-log1p(z)`` for ``t >= 0``, else ``t - log1p(z)``.  The
    sigmoid's exponential is clipped at ``|x| = 500``; where any
    ``|x|`` exceeds that, it is recomputed from the clipped argument.
    Equal, bit for bit, to the oracle's separate ``sigmoid_branched`` /
    ``log_sigmoid_branched`` pair.
    """
    x = np.asarray(x, dtype=np.float64)
    t = x if signs is None else signs * x
    magnitude = np.abs(x)
    z = np.exp(-magnitude)
    tail = np.log1p(z)
    nll = -np.where(t >= 0.0, -tail, t - tail)
    if magnitude.size and not magnitude.max() <= 500.0:  # NaN falls back too
        z = np.exp(-np.minimum(magnitude, 500.0))
    return np.where(x >= 0.0, 1.0, z) / (1.0 + z), nll


def sigmoid_clipped(x: np.ndarray) -> np.ndarray:
    """The updater's clipped-form sigmoid, ``1/(1+exp(-clip(x)))``.

    Kept distinct from :func:`sigmoid_nll`'s branched sigmoid: the two
    forms differ in the last ulp for negative inputs, and Eq. 5 must keep
    the form it historically used to stay bitwise-stable.
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


def padded_segment_sums(
    values: np.ndarray, slots: np.ndarray, num_segments: int, width: int
) -> np.ndarray:
    """Left-to-right row sums of ``values`` grouped into segments.

    ``slots[i] = position * num_segments + segment`` places row ``i`` at
    its position within its segment (positions run ``0, 1, ...`` in
    accumulation order; ``width`` bounds the longest segment).  The rows
    are scattered into a zero-padded *position-major* ``(width,
    segment · dim)`` block and reduced over positions, so segment ``s``
    receives ``v0 + v1 + ...`` in position order: ``np.add.reduce`` over
    the outer axis adds one whole row of the block at a time, the same
    additions as ``np.add.accumulate`` (≈ 3 µs against ≈ 34 µs for a
    ``backfill``-sized ``(8, 27 · 32)`` block on a 2-CPU host).  It
    starts from ``-0.0``, the exact additive identity (numpy's default
    ``+0.0`` would turn an all ``-0.0`` sum positive).  A one-column
    block would reduce along its contiguous axis, which numpy sums
    pairwise, so it is accumulated instead.  Trailing padding adds exact
    zeros; an empty segment sums to ``+0.0`` (``width >= 1``).
    """
    dim = values.shape[1]
    padded = np.zeros((width, num_segments * dim), dtype=np.float64)
    padded.reshape(-1, dim)[slots] = values
    if num_segments * dim == 1:
        return np.add.accumulate(padded, axis=0)[-1:]
    return np.add.reduce(padded, axis=0, initial=-0.0).reshape(num_segments, dim)


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
) -> Tuple[
    np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]
]:
    """Eq. 5 forward over a batch of nodes.

    Returns ``(h_star, gamma, x, sig, log_term)`` where ``x = sigma(alpha)
    * Delta`` is the pre-``g`` argument the backward needs, ``sig`` the
    ``sigma(alpha)`` factor and ``log_term`` the ``log(e + x)`` that
    ``gamma = g(x)`` divides by (both ``None`` on the ablation branches
    that never evaluate them) — :func:`target_backward` accepts them to
    skip the recomputation.  Ablations follow the per-node reference:
    ``use_short_term=False`` drops ``h^S`` (gamma = x = 0; ``short_rows``
    is not read), ``use_forgetting=False`` freezes gamma at 1.
    """
    n = long_rows.shape[0]
    if not cfg.use_short_term:
        return (
            long_rows.copy(),
            np.zeros(n, dtype=np.float64),
            np.zeros(n, dtype=np.float64),
            None,
            None,
        )
    if not cfg.use_forgetting:
        return (
            long_rows + short_rows,
            np.ones(n, dtype=np.float64),
            np.zeros(n, dtype=np.float64),
            None,
            None,
        )
    sig = sigmoid_clipped(alpha_values)
    x = sig * np.asarray(deltas, dtype=np.float64)
    log_term = np.log(np.e + x)
    gamma = 1.0 / log_term  # g_decay(x), same operations
    h_star = long_rows + gamma[:, None] * short_rows
    return h_star, gamma, x, sig, log_term


def target_backward(
    grad_h_star: np.ndarray,
    short_rows: np.ndarray,
    alpha_values: np.ndarray,
    gamma: np.ndarray,
    x: np.ndarray,
    deltas: np.ndarray,
    cfg: SUPAConfig,
    sig: Optional[np.ndarray] = None,
    log_term: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Analytic gradients of Eq. 5 w.r.t. ``(h^L, h^S, alpha)``.

    ``grad_short``/``grad_alpha`` are ``None`` when the corresponding
    parameter does not participate (matching the scalar reference, so
    callers skip the optimiser update entirely instead of applying a
    zero gradient — an applied zero still advances Adam moments).
    ``sig`` / ``log_term`` forward the ``sigma(alpha)`` and ``log(e +
    x)`` already evaluated by :func:`target_forward` (same input → same
    bits, so passing them is purely a recomputation skip: ``g'(x) =
    -1 / ((e + x) · log(e + x)²)`` is :func:`g_decay_derivative`'s
    expression).  ``grad_long`` is ``grad_h_star`` itself.
    """
    grad_long = grad_h_star
    if not cfg.use_short_term:
        return grad_long, None, None
    grad_short = gamma[:, None] * grad_h_star
    if not cfg.use_forgetting:
        return grad_long, grad_short, None
    if sig is None:
        sig = sigmoid_clipped(alpha_values)
    if log_term is None:
        g_prime = g_decay_derivative(x)
    else:
        g_prime = -1.0 / ((np.e + x) * log_term**2)
    dgamma_dalpha = g_prime * np.asarray(deltas, dtype=np.float64) * sig * (1.0 - sig)
    grad_alpha = rowwise_dot(grad_h_star, short_rows) * dgamma_dalpha
    return grad_long, grad_short, grad_alpha


# ------------------------------------------------------------ Eq. 7 interactor


def interaction_rows(
    h_star: np.ndarray, context: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 6-7 forward and backward over stacked endpoint pairs.

    Rows ``2i`` / ``2i + 1`` of both inputs are edge ``i``'s ``u`` /
    ``v`` side.  With ``h^r = 1/2 (h* + c^r)`` and ``s = h_u^r . h_v^r``
    returns ``(loss, grad)``: the per-edge ``-log sigma(s)`` and the
    ``(2k, dim)`` gradient w.r.t. each endpoint's ``h*`` *and* ``c^r``
    (``dL/ds = sigma(s) - 1``; Eq. 6's half factor makes a side's two
    gradients equal).
    """
    h_r = 0.5 * (h_star + context)
    pairs = h_r.reshape(-1, 2, h_r.shape[1])
    score = rowwise_dot(pairs[:, 0], pairs[:, 1])
    sig, loss = sigmoid_nll(score)
    grad = (sig - 1.0)[:, None, None] * pairs[:, ::-1]
    return loss, (0.5 * grad).reshape(h_r.shape)


# ------------------------------------------------- Eq. 10 / Eq. 12 draws


def context_draw_rows(
    context_rows: np.ndarray,
    source_rows: np.ndarray,
    factors: np.ndarray,
    labels: np.ndarray,
    signs: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 10 hops and Eq. 12 negatives, draw by draw, in one pass.

    A draw scores ``s = c . (factor · h*_source)``.  A hop (Eq. 10) has
    its Eq. 8-9 ``factor``, label 1 and sign +1: loss ``-log sigma(s)``,
    ``dL/ds = (sigma(s) - 1) · factor``.  A negative (Eq. 12) has factor
    1, label 0 and sign -1: loss ``-log sigma(-s)``, ``dL/ds =
    sigma(s)``.  ``1.0 · x``, ``x - 0.0`` and ``-1.0 · x`` are exact, so
    each kind keeps the bits of its own split kernel.  Returns
    ``(loss_terms, context_grads, source_grads)`` with no reduction
    across draws — the caller sums terms per loss owner and the source
    grads per ``(kind, edge, side)`` in draw order.
    """
    scores = rowwise_dot(context_rows, factors[:, None] * source_rows)
    sig, terms = sigmoid_nll(scores, signs)
    coeff = ((sig - labels) * factors)[:, None]
    return terms, coeff * source_rows, coeff * context_rows


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
