"""SUPA's learnable state and the sparse Adam optimiser that updates it.

Each node owns three learnable vectors (Section III-C): a long-term
memory ``h^L``, a short-term memory ``h^S`` and one context embedding
``c^r`` per edge type.  A global vector of node-type parameters
``alpha_o`` controls short-term forgetting.  Because each streamed edge
touches only a handful of rows, updates go through a *sparse* Adam that
keeps per-row step counts for bias correction (the numpy analogue of
``torch.optim.SparseAdam``).

The same sparsity makes InsLearn's best-model restore (Algorithm 1
line 20) cheap: :meth:`SparseAdam.update_rows` is the only writer of
learnable state, so an **undo log** of the pre-images of the rows
written since a *mark* is enough to return to the marked state — cost
proportional to the rows an update touched, never to the node count
(:meth:`MemoryOptimizer.mark` / ``rollback`` / ``release``).
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
        # per update, which is measurable because this runs four times
        # per streamed edge.
        self._corr1 = np.empty(0, dtype=np.float64)
        self._corr2 = np.empty(0, dtype=np.float64)
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
        gather, four calls per edge, measurably slows large batches.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        grads = np.asarray(grads, dtype=np.float64)
        if grads.shape != (rows.size, self.param.shape[1]):
            raise ValueError(
                f"grads shape {grads.shape} does not match "
                f"({rows.size}, {self.param.shape[1]})"
            )
        if self.weight_decay:
            grads = grads + self.weight_decay * self.param[rows]
        t = self._steps[rows] + 1
        self._steps[rows] = t
        tmax = int(t.max())
        if tmax >= self._corr1.size:
            self._grow_corrections(tmax)
        m = self._m[rows] * self.beta1 + (1.0 - self.beta1) * grads
        v = self._v[rows] * self.beta2 + (1.0 - self.beta2) * grads**2
        self._m[rows] = m
        self._v[rows] = v
        m_hat = m / self._corr1[t][:, None]
        v_hat = v / self._corr2[t][:, None]
        self.param[rows] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

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

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {
            "m": self._m.copy(),
            "v": self._v.copy(),
            "steps": self._steps.copy(),
        }

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self._m[...] = state["m"]
        self._v[...] = state["v"]
        self._steps[...] = state["steps"]


class NodeMemory:
    """The full learnable state of a SUPA model.

    Arrays (``N`` nodes, ``R`` edge types, ``O`` node types, dim ``d``):

    - ``long``: ``(N, d)`` long-term memories,
    - ``short``: ``(N, d)`` short-term memories,
    - ``context``: ``(R, N, d)`` relation-specific context embeddings
      (``R = 1`` when ``typed_context`` is off — SUPA_se),
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
        self.long = rng.normal(0.0, init_std, size=(num_nodes, dim))
        self.short = rng.normal(0.0, init_std, size=(num_nodes, dim))
        self.context = rng.normal(
            0.0, init_std, size=(self.num_context_slots, num_nodes, dim)
        )
        self.alpha = np.zeros(self.num_alpha_slots, dtype=np.float64)

    def context_slot(self, edge_type_id: int) -> int:
        """Map an edge type to its context table (0 when shared)."""
        return edge_type_id if self.typed_context else 0

    def alpha_slot(self, node_type_id: int) -> int:
        """Map a node type to its alpha parameter (0 when shared)."""
        return node_type_id if self.typed_alpha else 0

    def context_slots(self, edge_type_ids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`context_slot` for the batched engine."""
        ids = np.asarray(edge_type_ids, dtype=np.int64)
        return ids if self.typed_context else np.zeros(ids.shape, dtype=np.int64)

    def alpha_slots(self, node_type_ids: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`alpha_slot` for the batched engine."""
        ids = np.asarray(node_type_ids, dtype=np.int64)
        return ids if self.typed_alpha else np.zeros(ids.shape, dtype=np.int64)

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {
            "long": self.long.copy(),
            "short": self.short.copy(),
            "context": self.context.copy(),
            "alpha": self.alpha.copy(),
        }

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for name in ("long", "short", "context", "alpha"):
            target = getattr(self, name)
            if target.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {target.shape} vs {state[name].shape}"
                )
            target[...] = state[name]


class MemoryOptimizer:
    """Bundles the sparse Adam instances for every memory array."""

    def __init__(self, memory: NodeMemory, lr: float, weight_decay: float):
        self.memory = memory
        self.long = SparseAdam(memory.long, lr, weight_decay=weight_decay)
        self.short = SparseAdam(memory.short, lr, weight_decay=weight_decay)
        # Context is (R, N, d); flatten the first two axes so each
        # (relation, node) pair is one sparse row.
        self._context_flat = memory.context.reshape(-1, memory.dim)
        self.context = SparseAdam(self._context_flat, lr, weight_decay=weight_decay)
        # memory.alpha[:, None] is a numpy view, so SparseAdam's in-place
        # updates write straight through to the memory's alpha vector.
        self.alpha = SparseAdam(memory.alpha[:, None], lr, weight_decay=0.0)
        self._adams = (self.long, self.short, self.context, self.alpha)
        self._alpha_rows = np.arange(memory.num_alpha_slots, dtype=np.int64)

    def context_row(self, slot: int, node: int) -> int:
        """Flat row index of context embedding ``(slot, node)``."""
        return slot * self.memory.num_nodes + node

    def step(
        self,
        long_grads: Dict[int, np.ndarray],
        short_grads: Dict[int, np.ndarray],
        context_grads: Dict[int, np.ndarray],
        alpha_grads: Optional[Dict[int, float]] = None,
    ) -> None:
        """Apply accumulated per-row gradients in one sparse Adam step.

        The reference engine's per-edge path: with the undo log open,
        the gradient-dict keys are the rows to save.
        """
        if long_grads:
            rows = np.fromiter(long_grads, dtype=np.int64, count=len(long_grads))
            self.long.save_rows(rows)
            self.long.update_rows(rows, np.stack([long_grads[r] for r in rows]))
        if short_grads:
            rows = np.fromiter(short_grads, dtype=np.int64, count=len(short_grads))
            self.short.save_rows(rows)
            self.short.update_rows(rows, np.stack([short_grads[r] for r in rows]))
        if context_grads:
            rows = np.fromiter(context_grads, dtype=np.int64, count=len(context_grads))
            self.context.save_rows(rows)
            self.context.update_rows(rows, np.stack([context_grads[r] for r in rows]))
        if alpha_grads:
            rows = np.fromiter(alpha_grads, dtype=np.int64, count=len(alpha_grads))
            grads = np.asarray([alpha_grads[r] for r in rows])[:, None]
            self.alpha.save_rows(rows)
            self.alpha.update_rows(rows, grads)

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

        ``node_rows`` index long/short memories, ``context_rows`` the
        flat context table; every alpha slot is saved with them (a
        handful of scalars).  No-op while the log is closed.
        """
        self.long.save_rows(node_rows)
        self.short.save_rows(node_rows)
        self.context.save_rows(context_rows)
        self.alpha.save_rows(self._alpha_rows)

    def rollback(self) -> None:
        """Return to the state at the last :meth:`mark` (log stays open)."""
        for adam in self._adams:
            adam.rollback()

    def release(self) -> None:
        """Close the undo log, dropping whatever it holds (idempotent)."""
        for adam in self._adams:
            adam.release()

    def state_dict(self) -> Dict[str, Dict[str, np.ndarray]]:
        return {
            "long": self.long.state_dict(),
            "short": self.short.state_dict(),
            "context": self.context.state_dict(),
            "alpha": self.alpha.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Dict[str, np.ndarray]]) -> None:
        self.long.load_state_dict(state["long"])
        self.short.load_state_dict(state["short"])
        self.context.load_state_dict(state["context"])
        self.alpha.load_state_dict(state["alpha"])
