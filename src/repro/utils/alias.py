"""Walker's alias method for O(1) sampling from discrete distributions.

Used for the skip-gram noise distribution (degree^0.75), node2vec biased
transitions, and popularity-skewed synthetic data generation.  Building the
table is O(n); each draw is O(1), which matters because SUPA draws
``2 * N_neg`` negatives per edge over millions of edges.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.utils.rng import RngLike, new_rng


class AliasTable:
    """Constant-time sampler over a fixed discrete distribution.

    Parameters
    ----------
    weights:
        Non-negative, not-all-zero unnormalised probabilities.  The table
        samples index ``i`` with probability ``weights[i] / sum(weights)``.
    """

    def __init__(self, weights: Sequence[float]):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError(f"weights must be 1-D, got shape {w.shape}")
        if w.size == 0:
            raise ValueError("cannot build an alias table over zero outcomes")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and non-negative")
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must not all be zero")

        n = w.size
        prob = w * (n / total)
        self._n = n
        self._prob = np.empty(n, dtype=np.float64)
        self._alias = np.empty(n, dtype=np.int64)

        small = [i for i in range(n) if prob[i] < 1.0]
        large = [i for i in range(n) if prob[i] >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            self._prob[s] = prob[s]
            self._alias[s] = g
            prob[g] = (prob[g] + prob[s]) - 1.0
            if prob[g] < 1.0:
                small.append(g)
            else:
                large.append(g)
        for leftover in large + small:
            self._prob[leftover] = 1.0
            self._alias[leftover] = leftover

    def __len__(self) -> int:
        return self._n

    def sample(self, rng: RngLike = None, size: Optional[int] = None):
        """Draw one index (``size=None``) or an array of ``size`` indices."""
        rng = new_rng(rng)
        if size is None:
            i = int(rng.integers(self._n))
            if rng.random() < self._prob[i]:
                return i
            return int(self._alias[i])
        idx = rng.integers(self._n, size=size)
        keep = rng.random(size) < self._prob[idx]
        return np.where(keep, idx, self._alias[idx])
