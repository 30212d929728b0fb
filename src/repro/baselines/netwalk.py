"""NetWalk (Yu et al., KDD 2018), simplified.

Dynamic network embedding via walk encoding with incremental updates: a
reservoir of random walks is maintained as the network evolves; new
edges add fresh walks through their endpoints and the encoder is
updated on the new material only, so embeddings track the stream.

Simplification vs. the original: the deep autoencoder with clique
(pairwise) regularisation is replaced by skip-gram encoding of the same
walk reservoir — both learn from walk co-occurrence; the incremental
walk-reservoir update, which is the dynamic mechanism, is kept.
NetWalk was built for anomaly detection, and the paper finds it weak
for recommendation (Table V); this implementation preserves that
characteristic.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.base import EmbeddingModel
from repro.baselines.sgns import SkipGramTrainer
from repro.datasets.base import Dataset
from repro.graph.streams import EdgeStream


class NetWalk(EmbeddingModel):
    """Walk-reservoir embeddings with incremental stream updates."""

    name = "NetWalk"
    is_dynamic = True

    def __init__(
        self,
        dataset: Dataset,
        dim: int = 32,
        num_walks: int = 3,
        walk_length: int = 6,
        window: int = 2,
        negatives: int = 3,
        epochs: int = 1,
        reservoir_capacity: int = 5000,
        seed: int = 0,
    ):
        super().__init__(dataset, dim=dim, seed=seed)
        self.num_walks = num_walks
        self.walk_length = walk_length
        self.window = window
        self.negatives = negatives
        self.epochs = epochs
        self.reservoir_capacity = reservoir_capacity
        self._trainer: Optional[SkipGramTrainer] = None
        self._reservoir: List[List[int]] = []
        self._graph = None

    def fit(self, stream: EdgeStream) -> None:
        self._graph = self.dataset.empty_graph()
        self._trainer = SkipGramTrainer(
            num_nodes=self.dataset.num_nodes,
            dim=self.dim,
            negatives=self.negatives,
            window=self.window,
            rng=self.rng,
        )
        self._reservoir = []
        self._seen = EdgeStream([])
        self.partial_fit(stream)

    def partial_fit(self, stream: EdgeStream) -> None:
        """Incremental update: extend the graph, spawn walks through the
        new edges' endpoints, retrain on the fresh walks."""
        if self._trainer is None:
            self.fit(stream)
            return
        new_walks: List[List[int]] = []
        for e in stream:
            self._graph.add_edge(e.u, e.v, e.edge_type, e.t)
        for e in stream:
            for endpoint in (e.u, e.v):
                for _ in range(self.num_walks):
                    walk = [endpoint]
                    current = endpoint
                    for _ in range(self.walk_length - 1):
                        nbrs = self._graph.neighbors(current)
                        if not nbrs:
                            break
                        current = nbrs[int(self.rng.integers(len(nbrs)))][0]
                        walk.append(current)
                    if len(walk) > 1:
                        new_walks.append(walk)
        self._reservoir.extend(new_walks)
        if len(self._reservoir) > self.reservoir_capacity:
            self._reservoir = self._reservoir[-self.reservoir_capacity :]
        if new_walks:
            self._trainer.train_corpus(new_walks, epochs=self.epochs, lr_decay=False)
        self.embeddings = self._trainer.embeddings()
