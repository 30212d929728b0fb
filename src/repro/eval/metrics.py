"""Top-K ranking metrics: H@K, NDCG@K, MRR (Section IV-C).

All metrics consume *ranks*: the 1-based position of the ground-truth
node among the scored candidates.  Ties are resolved by competition
ranking with half-credit for equal scores
(``rank = 1 + #greater + 0.5 * #equal-others``), so an untrained model
scoring everything identically gets the expected mid-list rank rather
than a spuriously perfect one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np


def rank_of_target(scores: np.ndarray, target_position: int) -> float:
    """The 1-based rank of ``scores[target_position]`` within ``scores``."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= target_position < scores.size:
        raise IndexError(
            f"target position {target_position} outside {scores.size} candidates"
        )
    target = scores[target_position]
    greater = int(np.sum(scores > target))
    equal_others = int(np.sum(scores == target)) - 1
    return 1.0 + greater + 0.5 * equal_others


def hit_rate(ranks: Sequence[float], k: int) -> float:
    """H@K: fraction of ground-truth nodes ranked in the top ``k``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        return 0.0
    return float(np.mean(ranks <= k))


def ndcg(ranks: Sequence[float], k: int) -> float:
    """NDCG@K with a single relevant item per query.

    With one ground-truth node the ideal DCG is 1, so
    ``NDCG@K = 1 / log2(1 + rank)`` for hits inside the top ``k``, else 0.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        return 0.0
    gains = np.where(ranks <= k, 1.0 / np.log2(1.0 + ranks), 0.0)
    return float(np.mean(gains))


def mrr(ranks: Sequence[float]) -> float:
    """Mean reciprocal rank of the ground-truth nodes."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        return 0.0
    return float(np.mean(1.0 / ranks))


class RankingAccumulator:
    """Collects per-query ranks and reports the paper's metric set."""

    def __init__(self, hit_ks: Iterable[int] = (20, 50), ndcg_k: int = 10):
        self.hit_ks = tuple(sorted(set(hit_ks)))
        self.ndcg_k = ndcg_k
        self.ranks: List[float] = []

    def add_rank(self, rank: float) -> None:
        if rank < 1:
            raise ValueError(f"ranks are 1-based, got {rank}")
        self.ranks.append(float(rank))

    def __len__(self) -> int:
        return len(self.ranks)

    def metrics(self) -> Dict[str, float]:
        """H@K for each configured K, NDCG@``ndcg_k``, and MRR."""
        out = {f"H@{k}": hit_rate(self.ranks, k) for k in self.hit_ks}
        out[f"NDCG@{self.ndcg_k}"] = ndcg(self.ranks, self.ndcg_k)
        out["MRR"] = mrr(self.ranks)
        return out
