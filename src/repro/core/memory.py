"""SUPA's learnable state and the sparse Adam optimiser that updates it.

Each node owns three learnable vectors (Section III-C): a long-term
memory ``h^L``, a short-term memory ``h^S`` and one context embedding
``c^r`` per edge type.  A global vector of node-type parameters
``alpha_o`` controls short-term forgetting.  Because each streamed edge
touches only a handful of rows, updates go through a *sparse* Adam that
keeps per-row step counts for bias correction (the numpy analogue of
``torch.optim.SparseAdam``).

The three kinds of row live in **one** ``((2 + R) · N, d)`` table —
long rows at ``[0, N)``, short rows at ``[N, 2N)``, context rows from
``2N`` — under one :class:`SparseAdam`, so a round barrier applies all
of them in one call.  ``long`` / ``short`` / ``context`` are views of
that table.

The same sparsity makes InsLearn's best-model restore (Algorithm 1
line 20) cheap: :meth:`SparseAdam.update_rows` is the only writer of
learnable state, so an **undo log** of the pre-images of the rows
written since a *mark* is enough to return to the marked state — cost
proportional to the rows an update touched, never to the node count
(:meth:`MemoryOptimizer.mark` / ``rollback`` / ``release``).

The learned state a checkpoint saves is one flat, name-ordered map of
live views, listed by :func:`state_views` alone and written back by
:func:`load_state`; ``SUPA.state_views`` / ``state_dict`` /
``load_state_dict`` are the model's face of the two.
"""

from __future__ import annotations

from math import sqrt
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike, new_rng


class SparseAdam:
    """Adam over selected rows of a 2-D parameter array.

    Bias correction uses per-row step counts, so rarely touched rows are
    not over-corrected.  ``weight_decay`` adds L2 on touched rows only
    (the standard sparse-training convention).
    """

    def __init__(
        self,
        param: np.ndarray,
        lr: float,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if param.ndim != 2:
            raise ValueError(f"SparseAdam expects 2-D parameters, got {param.ndim}-D")
        self.param = param
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = np.zeros_like(param)
        self._v = np.zeros_like(param)
        self._steps = np.zeros(param.shape[0], dtype=np.int64)
        # ``1 - beta**t`` bias-correction lookup tables, grown on demand
        # and indexed by ``t`` itself (slot 0 is padding — step counts
        # start at 1).  Entries are produced by the same ``**`` ufunc the
        # per-call code used, so looked-up values are identical; the
        # lookup replaces two transcendental ``np.power`` evaluations
        # per update.
        self._corr1 = np.empty(0, dtype=np.float64)
        self._corr2 = np.empty(0, dtype=np.float64)
        # An upper bound on every row's step count: an ``update_rows``
        # call raises a row's count by at most one, so counting calls
        # sizes the tables without a per-call ``max`` over the rows.
        self._step_bound = 0
        # Undo log: ``None`` while closed; while open, the pre-images
        # ``(rows, param, m, v, steps)`` saved since the last mark, with
        # ``_logged`` flagging those rows so each is saved once per mark.
        self._undo: Optional[List[Tuple[np.ndarray, ...]]] = None
        self._logged = np.zeros(param.shape[0], dtype=bool)

    def mark(self) -> None:
        """Make the current state the one :meth:`rollback` returns to
        (opens the undo log, or drops the pre-images it holds)."""
        if self._undo is None:
            self._undo = []
            return
        for entry in self._undo:
            self._logged[entry[0]] = False
        self._undo.clear()

    def save_rows(self, rows: np.ndarray) -> None:
        """Log the pre-images of ``rows`` ahead of a write to them.

        No-op while the log is closed; rows already logged since the
        mark are skipped, so the saved value is always the value *at*
        the mark.  Duplicate and never-written rows are harmless.
        """
        if self._undo is None:
            return
        rows = np.asarray(rows, dtype=np.int64)
        fresh = np.unique(rows[~self._logged[rows]])
        if fresh.size == 0:
            return
        self._logged[fresh] = True
        self._undo.append(
            (fresh, self.param[fresh], self._m[fresh], self._v[fresh], self._steps[fresh])
        )

    def rollback(self) -> None:
        """Write every logged pre-image home: the state at the mark."""
        for rows, param, m, v, steps in self._undo:
            self.param[rows] = param
            self._m[rows] = m
            self._v[rows] = v
            self._steps[rows] = steps
        self.mark()

    def release(self) -> None:
        """Drop the log and close it (idempotent)."""
        if self._undo is not None:
            self.mark()
            self._undo = None

    def _grow_corrections(self, upto: int) -> None:
        size = max(upto, 2 * self._corr1.size, 64)
        exponents = np.arange(0, size + 1, dtype=np.float64)
        self._corr1 = 1.0 - self.beta1**exponents
        self._corr2 = 1.0 - self.beta2**exponents

    def update_rows(self, rows: np.ndarray, grads: np.ndarray) -> None:
        """Apply one Adam step to ``rows`` with per-row ``grads``.

        ``rows`` must be unique; accumulate duplicate contributions
        before calling.  While the undo log is open the caller saves
        the rows first (:meth:`save_rows`) — once per replay pass from
        the compiled plan, not here: a per-call "already logged?"
        gather measurably slows large batches.

        Every value is the textbook expression ``param -= lr · m̂ /
        (√v̂ + ε)`` with ``m̂ = m / (1 − β₁ᵗ)``, ``v̂ = v / (1 − β₂ᵗ)``,
        evaluated in that operation order on ``take`` gathers and
        in-place temporaries; ``tests/core/test_memory.py`` keeps the
        expression form as the bitwise oracle.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        grads = np.asarray(grads, dtype=np.float64)
        param = self.param
        if grads.shape != (rows.size, param.shape[1]):
            raise ValueError(
                f"grads shape {grads.shape} does not match "
                f"({rows.size}, {param.shape[1]})"
            )
        if self.weight_decay:
            grads = grads + self.weight_decay * param.take(rows, axis=0)
        t = self._steps.take(rows)
        t += 1
        self._steps[rows] = t
        self._step_bound += 1
        if self._step_bound >= self._corr1.size:
            self._grow_corrections(self._step_bound)
        beta1, beta2 = self.beta1, self.beta2
        m = self._m.take(rows, axis=0)
        m *= beta1
        m += (1.0 - beta1) * grads
        v = self._v.take(rows, axis=0)
        v *= beta2
        square = grads * grads
        square *= 1.0 - beta2
        v += square
        self._m[rows] = m
        self._v[rows] = v
        # From here ``m`` / ``v`` are scratch: m̂, then lr · m̂, then the
        # step; v̂, then √v̂ + ε.
        m /= self._corr1.take(t)[:, None]
        v /= self._corr2.take(t)[:, None]
        np.sqrt(v, out=v)
        v += self.eps
        m *= self.lr
        m /= v
        updated = param.take(rows, axis=0)
        updated -= m
        param[rows] = updated

    def update_chain(self, rows: np.ndarray, grads: np.ndarray) -> None:
        """Apply ``len(rows)`` one-row Adam steps, one after another.

        For single-column parameters (the ``alpha`` vector) whose rows
        nearly every streamed edge shares: step ``i`` must see the
        moments step ``i - 1`` left, so the steps cannot be fused — but
        they can run on Python floats.  Bitwise identical to
        ``for r, g in zip(rows, grads): update_rows([r], [[g]])`` (the
        same IEEE operations in the same order; pinned by
        ``tests/core/test_memory.py``) at a fraction of the per-call
        dispatch cost.  ``rows`` may repeat; the caller saves undo-log
        pre-images as for :meth:`update_rows`.
        """
        if self.param.shape[1] != 1:
            raise ValueError("update_chain expects a single-column parameter")
        if len(rows) == 0:
            return
        param = self.param[:, 0]
        m_all = self._m[:, 0]
        v_all = self._v[:, 0]
        steps = self._steps
        upto = int(steps.max()) + len(rows)
        self._step_bound = max(self._step_bound, upto)
        if upto >= self._corr1.size:
            self._grow_corrections(upto)
        corr1 = self._corr1.item
        corr2 = self._corr2.item
        beta1, beta2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        rest1, rest2 = 1.0 - beta1, 1.0 - beta2
        weight_decay = self.weight_decay
        state: Dict[int, Tuple[float, float, float, int]] = {}
        for row, grad in zip(rows.tolist(), grads.tolist()):
            if row in state:
                p, m, v, t = state[row]
            else:
                p, m, v, t = param.item(row), m_all.item(row), v_all.item(row), steps.item(row)
            if weight_decay:
                grad = grad + weight_decay * p
            t += 1
            m = m * beta1 + rest1 * grad
            v = v * beta2 + rest2 * (grad * grad)
            p -= lr * (m / corr1(t)) / (sqrt(v / corr2(t)) + eps)
            state[row] = (p, m, v, t)
        for row, (p, m, v, t) in state.items():
            param[row] = p
            m_all[row] = m
            v_all[row] = v
            steps[row] = t


class NodeMemory:
    """The full learnable state of a SUPA model.

    Arrays (``N`` nodes, ``R`` edge types, ``O`` node types, dim ``d``):

    - ``table``: ``((2 + R) · N, d)``, every learnable row — the
      optimiser's one parameter table; the next three are views of it,
    - ``long``: ``(N, d)`` long-term memories, table rows ``[0, N)``,
    - ``short``: ``(N, d)`` short-term memories, rows ``[N, 2N)``,
    - ``context``: ``(R, N, d)`` relation-specific context embeddings,
      rows ``[2N, (2 + R) · N)`` slot-major (``R = 1`` when
      ``typed_context`` is off — SUPA_se),
    - ``alpha``: ``(O,)`` node-type forgetting parameters
      (``O = 1`` when ``typed_alpha`` is off — SUPA_sn).
    """

    def __init__(
        self,
        num_nodes: int,
        num_edge_types: int,
        num_node_types: int,
        dim: int,
        init_std: float = 0.1,
        rng: RngLike = None,
        typed_context: bool = True,
        typed_alpha: bool = True,
    ):
        if num_nodes < 1 or num_edge_types < 1 or num_node_types < 1:
            raise ValueError("memory needs at least one node, edge type and node type")
        rng = new_rng(rng)
        self.num_nodes = num_nodes
        self.dim = dim
        self.typed_context = typed_context
        self.typed_alpha = typed_alpha
        self.num_context_slots = num_edge_types if typed_context else 1
        self.num_alpha_slots = num_node_types if typed_alpha else 1
        #: first table row of the short / context block
        self.short_offset = num_nodes
        self.context_offset = 2 * num_nodes
        self.table = np.empty(
            ((2 + self.num_context_slots) * num_nodes, dim), dtype=np.float64
        )
        self.long = self.table[:num_nodes]
        self.short = self.table[num_nodes : 2 * num_nodes]
        self.context = self.table[2 * num_nodes :].reshape(
            self.num_context_slots, num_nodes, dim
        )
        # Long, short, then context slot by slot: the draws one
        # (R, N, d) normal would make, in the same order.
        for block in (self.long, self.short, *self.context):
            block[...] = rng.normal(0.0, init_std, size=(num_nodes, dim))
        self.alpha = np.zeros(self.num_alpha_slots, dtype=np.float64)

    def context_slot(self, edge_type_id: int) -> int:
        """Map an edge type to its context table (0 when shared)."""
        return edge_type_id if self.typed_context else 0

    def context_slots(self, edge_type_ids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`context_slot` for the batched engine."""
        ids = np.asarray(edge_type_ids, dtype=np.int64)
        return ids if self.typed_context else np.zeros(ids.shape, dtype=np.int64)

    def alpha_slots(self, node_type_ids: np.ndarray) -> np.ndarray:
        """Map node types to their alpha parameters (all 0 when shared)."""
        ids = np.asarray(node_type_ids, dtype=np.int64)
        return ids if self.typed_alpha else np.zeros(ids.shape, dtype=np.int64)


class MemoryOptimizer:
    """One sparse Adam over the memory's row table, plus the alpha chain;
    the defaults are the paper's (Section IV-C), no decay on alpha."""

    def __init__(
        self, memory: NodeMemory, lr: float = 3e-3, weight_decay: float = 1e-4
    ):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.memory = memory
        self.table = SparseAdam(memory.table, lr, weight_decay=weight_decay)
        # memory.alpha[:, None] is a numpy view, so SparseAdam's in-place
        # updates write straight through to the memory's alpha vector.
        self.alpha = SparseAdam(memory.alpha[:, None], lr, weight_decay=0.0)
        self._adams = (self.table, self.alpha)
        self._alpha_rows = np.arange(memory.num_alpha_slots, dtype=np.int64)

    # ------------------------------------------------------------- undo log

    def mark(self) -> None:
        """Mark the current learnable state as the rollback target.

        The first call opens the undo log; a later one *commits* — the
        pre-images held so far are dropped and the current state becomes
        the new target.  Between a mark and a :meth:`rollback`, every
        writer must :meth:`save_rows` before it writes.
        """
        for adam in self._adams:
            adam.mark()

    def save_rows(self, node_rows: np.ndarray, context_rows: np.ndarray) -> None:
        """Save the pre-images one replay pass is about to overwrite.

        ``node_rows`` are nodes (their long and short rows are saved),
        ``context_rows`` rows of the context block; one call on the
        table, plus every alpha slot (a handful of scalars).  No-op
        while the log is closed.
        """
        memory = self.memory
        self.table.save_rows(
            np.concatenate(
                (
                    node_rows,
                    node_rows + memory.short_offset,
                    context_rows + memory.context_offset,
                )
            )
        )
        self.alpha.save_rows(self._alpha_rows)

    def rollback(self) -> None:
        """Return to the state at the last :meth:`mark` (log stays open)."""
        for adam in self._adams:
            adam.rollback()

    def release(self) -> None:
        """Close the undo log, dropping whatever it holds (idempotent)."""
        for adam in self._adams:
            adam.release()


def state_views(optimizer: MemoryOptimizer) -> Dict[str, np.ndarray]:
    """The learned state of ``optimizer`` and its memory: name → live
    view, in name (sorted) order — the checkpoint archive's members.

    ``memory.{alpha,context,long,short}`` are :class:`NodeMemory`'s
    arrays; ``optimizer.<part>.{m,steps,v}`` are the Adam moments and
    step counts of that part's rows (``long`` / ``short`` / ``context``
    are row blocks of the one table, ``alpha`` its own optimiser).
    """
    memory, table = optimizer.memory, optimizer.table
    n = memory.num_nodes
    parts = {
        "alpha": (memory.alpha, optimizer.alpha, slice(None)),
        "context": (memory.context, table, slice(2 * n, None)),
        "long": (memory.long, table, slice(0, n)),
        "short": (memory.short, table, slice(n, 2 * n)),
    }
    views = {f"memory.{name}": array for name, (array, _, _) in parts.items()}
    for name, (_, adam, rows) in parts.items():
        views[f"optimizer.{name}.m"] = adam._m[rows]
        views[f"optimizer.{name}.steps"] = adam._steps[rows]
        views[f"optimizer.{name}.v"] = adam._v[rows]
    return views


def load_state(optimizer: MemoryOptimizer, state: Dict[str, np.ndarray]) -> None:
    """Write ``state`` (name → array, as :func:`state_views` names them)
    into the live arrays, views staying views.

    Every name, shape and dtype is checked before anything is written,
    so a refused state (``ValueError``) leaves the model as it was.  The
    step counts may jump past the calls made so far, so each Adam's call
    bound is re-seeded from them.
    """
    views = state_views(optimizer)
    for name, target in views.items():
        if name not in state:
            raise ValueError(f"model state has no {name!r}")
        value = np.asarray(state[name])
        if value.shape != target.shape or value.dtype != target.dtype:
            raise ValueError(
                f"model state {name!r} is {value.dtype}{value.shape}, "
                f"expected {target.dtype}{target.shape}"
            )
    for name, target in views.items():
        target[...] = state[name]
    for adam in optimizer._adams:
        adam._step_bound = int(adam._steps.max(initial=0))
