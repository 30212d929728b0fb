"""Full-catalogue ranking evaluation for link prediction.

For every test edge ``(u, v, r, t)`` the evaluated model scores the
ground-truth node ``v`` against every candidate of the right type
(Eq. 15: ``gamma(u, v', r) = h_u^r . h_v'^r``), and the ranks feed the
H@K / NDCG / MRR accumulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Protocol, Sequence

import numpy as np

from repro.eval.metrics import RankingAccumulator, rank_of_target
from repro.utils.rng import new_rng


class Scorer(Protocol):
    """Anything that scores candidate nodes for a query node."""

    def score(
        self, node: int, candidates: np.ndarray, edge_type: str, t: float
    ) -> np.ndarray:
        """Return one score per candidate; higher means more likely."""
        ...


class RankingQuery(NamedTuple):
    """One evaluation query derived from a held-out edge."""

    node: int
    true_node: int
    candidates: np.ndarray
    edge_type: str
    t: float


@dataclass
class EvaluationResult:
    """Metrics plus the raw ranks (kept for significance testing)."""

    metrics: Dict[str, float]
    ranks: np.ndarray
    num_queries: int = field(default=0)

    def __post_init__(self) -> None:
        self.num_queries = int(self.ranks.size)

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]


class RankingEvaluator:
    """Runs :class:`RankingQuery` batches through a scorer.

    Parameters
    ----------
    hit_ks / ndcg_k:
        The metric cut-offs (paper: H@20, H@50, NDCG@10, MRR).
    max_queries:
        Optional subsample cap — large test sets are subsampled uniformly
        at random to bound evaluation cost.
    seed:
        The subsample's seed.  Every :meth:`evaluate` draws from a fresh
        generator built from it, so the subsample depends only on the
        seed and the number of queries: every model one evaluator ranks
        on the same query list is ranked on the same queries.
    """

    def __init__(
        self,
        hit_ks: Iterable[int] = (20, 50),
        ndcg_k: int = 10,
        max_queries: Optional[int] = None,
        seed: int = 0,
    ):
        self.hit_ks = tuple(hit_ks)
        self.ndcg_k = ndcg_k
        self.max_queries = max_queries
        self.seed = seed

    def _subsample(self, queries: Sequence[RankingQuery]) -> Sequence[RankingQuery]:
        if self.max_queries is None or len(queries) <= self.max_queries:
            return queries
        rng = new_rng(self.seed)
        idx = rng.choice(len(queries), size=self.max_queries, replace=False)
        return [queries[i] for i in sorted(idx)]

    def evaluate(self, model: Scorer, queries: Sequence[RankingQuery]) -> EvaluationResult:
        """Score every query and return aggregated metrics."""
        queries = self._subsample(list(queries))
        acc = RankingAccumulator(hit_ks=self.hit_ks, ndcg_k=self.ndcg_k)
        ranks: List[float] = []
        for q in queries:
            position = int(np.flatnonzero(q.candidates == q.true_node)[0]) if q.true_node in q.candidates else -1
            if position < 0:
                raise ValueError(
                    f"ground-truth node {q.true_node} missing from its candidate set"
                )
            scores = np.asarray(
                model.score(q.node, q.candidates, q.edge_type, q.t), dtype=np.float64
            )
            if scores.shape != (q.candidates.size,):
                raise ValueError(
                    f"scorer returned shape {scores.shape} for "
                    f"{q.candidates.size} candidates"
                )
            rank = rank_of_target(scores, position)
            acc.add_rank(rank)
            ranks.append(rank)
        return EvaluationResult(metrics=acc.metrics(), ranks=np.asarray(ranks))
