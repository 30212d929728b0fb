"""The shared baseline API and embedding-scoring helpers.

Every baseline is constructed from a :class:`~repro.datasets.base.Dataset`
(for the schema and node layout), trained with :meth:`fit` on an edge
stream, and queried with :meth:`score` — the same signature SUPA
exposes, so evaluation code is method-agnostic.

``partial_fit`` supports the dynamic link-prediction protocol
(Section IV-E): static methods retrain on everything seen so far (the
paper retrains them per slice), while dynamic methods override it with a
genuine incremental update.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np

from repro.datasets.base import Dataset
from repro.graph.streams import EdgeStream
from repro.utils.rng import new_rng


class BaselineModel(abc.ABC):
    """Abstract recommendation baseline over a DMHG dataset."""

    #: human-readable method name used in benchmark tables
    name: str = "baseline"
    #: whether the method consumes timestamps (used in reports only)
    is_dynamic: bool = False

    def __init__(self, dataset: Dataset, dim: int = 32, seed: int = 0):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dataset = dataset
        self.dim = dim
        self.seed = seed
        self.rng = new_rng(seed)
        self._seen = EdgeStream([])

    # ------------------------------------------------------------------ train

    @abc.abstractmethod
    def fit(self, stream: EdgeStream) -> None:
        """Train from scratch on ``stream``."""

    def partial_fit(self, stream: EdgeStream) -> None:
        """Incorporate new edges.

        Default behaviour retrains on the concatenation of everything
        seen so far — the "retrain per slice" treatment static methods
        get in the dynamic protocol.  Dynamic methods override this.
        """
        self._seen = EdgeStream(list(self._seen) + list(stream))
        self.fit(self._seen)

    # ------------------------------------------------------------------ score

    @abc.abstractmethod
    def score(
        self, node: int, candidates: np.ndarray, edge_type: str, t: float
    ) -> np.ndarray:
        """Scores of ``candidates`` as partners of ``node`` under
        ``edge_type`` at time ``t`` (higher = more likely)."""


class EmbeddingModel(BaselineModel):
    """Baseline whose predictions are inner products of node embeddings.

    Subclasses fill ``self.embeddings`` — either one ``(N, d)`` array,
    or a dict mapping edge type names to ``(N, d)`` arrays for multiplex
    methods.  Missing relations fall back to the ``None`` key or the
    mean of the available tables.
    """

    def __init__(self, dataset: Dataset, dim: int = 32, seed: int = 0):
        super().__init__(dataset, dim=dim, seed=seed)
        self.embeddings: Optional[object] = None

    def _table(self, edge_type: str) -> np.ndarray:
        if self.embeddings is None:
            raise RuntimeError(f"{self.name}: score() called before fit()")
        if isinstance(self.embeddings, dict):
            table = self.embeddings.get(edge_type)
            if table is None:
                table = self.embeddings.get(None)
            if table is None:
                table = np.mean(list(self.embeddings.values()), axis=0)
            return table
        return self.embeddings

    def score(
        self, node: int, candidates: np.ndarray, edge_type: str, t: float
    ) -> np.ndarray:
        table = self._table(edge_type)
        return table[np.asarray(candidates, dtype=np.int64)] @ table[node]


def bipartite_pairs(dataset: Dataset, stream: EdgeStream) -> Dict[str, np.ndarray]:
    """``(n_edges, 2)`` arrays of (query, target) node pairs per relation.

    The query node is the relation's source-role endpoint.  Used by the
    BPR-trained recommendation baselines.
    """
    by_rel: Dict[str, list] = {}
    for e in stream:
        src_type, _ = dataset.schema.endpoints_of(e.edge_type)
        if dataset.node_type_of(e.u) == src_type:
            pair = (e.u, e.v)
        else:
            pair = (e.v, e.u)
        by_rel.setdefault(e.edge_type, []).append(pair)
    return {
        rel: np.asarray(pairs, dtype=np.int64) for rel, pairs in by_rel.items()
    }
