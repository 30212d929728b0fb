"""Skip-gram with negative sampling (SGNS) — the word2vec core shared by
the random-walk baselines (DeepWalk, node2vec, GATNE, NetWalk) and LINE.

Hand-written numpy gradients with per-centre vectorisation: one update
gathers the centre's window contexts plus ``k`` negatives and applies a
single fused SGD step, which is what makes corpus training tractable in
pure Python.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.utils.alias import AliasTable
from repro.utils.rng import RngLike, new_rng


class SkipGramTrainer:
    """SGNS over integer-token sequences.

    Parameters
    ----------
    num_nodes:
        Vocabulary size (node count).
    dim:
        Embedding dimension.
    negatives:
        Negative samples per positive pair.
    window:
        Context window radius within a walk.
    noise_weights:
        Unnormalised noise distribution (usually degree^0.75); uniform
        when omitted.
    """

    def __init__(
        self,
        num_nodes: int,
        dim: int,
        lr: float = 0.025,
        negatives: int = 5,
        window: int = 3,
        noise_weights: Optional[np.ndarray] = None,
        rng: RngLike = None,
    ):
        if num_nodes < 1:
            raise ValueError("vocabulary must be non-empty")
        self.num_nodes = num_nodes
        self.dim = dim
        self.lr = lr
        self.negatives = negatives
        self.window = window
        self.rng = new_rng(rng)
        bound = 0.5 / dim
        self.target = self.rng.uniform(-bound, bound, size=(num_nodes, dim))
        self.context = np.zeros((num_nodes, dim), dtype=np.float64)
        if noise_weights is None:
            noise_weights = np.ones(num_nodes, dtype=np.float64)
        weights = np.asarray(noise_weights, dtype=np.float64)
        if weights.sum() <= 0:
            weights = np.ones(num_nodes, dtype=np.float64)
        self._noise = AliasTable(weights)

    # ------------------------------------------------------------------ steps

    def train_pair(self, center: int, context: int, lr: Optional[float] = None) -> float:
        """One positive pair + ``negatives`` noise pairs; returns loss."""
        lr = self.lr if lr is None else lr
        targets = np.concatenate(
            ([context], np.asarray(self._noise.sample(self.rng, self.negatives)))
        )
        labels = np.zeros(targets.size, dtype=np.float64)
        labels[0] = 1.0
        return self._fused_step(center, targets, labels, lr)

    def _fused_step(
        self, center: int, targets: np.ndarray, labels: np.ndarray, lr: float
    ) -> float:
        w = self.target[center]
        ctx = self.context[targets]
        scores = ctx @ w
        sig = 1.0 / (1.0 + np.exp(-np.clip(scores, -500, 500)))
        coeff = sig - labels  # d(-log sigma(+-s)) / ds
        grad_w = coeff @ ctx
        # Context rows may repeat (duplicate negatives): accumulate.
        np.add.at(self.context, targets, -lr * np.outer(coeff, w))
        self.target[center] -= lr * grad_w
        with np.errstate(divide="ignore"):
            loss = -(
                labels * np.log(np.maximum(sig, 1e-12))
                + (1 - labels) * np.log(np.maximum(1 - sig, 1e-12))
            ).sum()
        return float(loss)

    # ----------------------------------------------------------------- corpus

    def train_corpus(
        self,
        corpus: Sequence[Sequence[int]],
        epochs: int = 2,
        lr_decay: bool = True,
    ) -> float:
        """Window-based SGNS over a walk corpus; returns final-epoch loss."""
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        total_steps = max(1, epochs * sum(max(0, len(w) - 1) for w in corpus))
        step = 0
        last_epoch_loss = 0.0
        for epoch in range(epochs):
            epoch_loss = 0.0
            for walk in corpus:
                walk = list(walk)
                for i, center in enumerate(walk):
                    lo = max(0, i - self.window)
                    hi = min(len(walk), i + self.window + 1)
                    for j in range(lo, hi):
                        if j == i:
                            continue
                        lr = (
                            self.lr * max(1e-4, 1.0 - step / total_steps)
                            if lr_decay
                            else self.lr
                        )
                        epoch_loss += self.train_pair(center, walk[j], lr)
                    step += 1
            last_epoch_loss = epoch_loss
        return last_epoch_loss

    def embeddings(self) -> np.ndarray:
        """The learned node representations (target vectors)."""
        return self.target
