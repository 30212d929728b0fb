"""LightGCN (He et al., SIGIR 2020).

Graph convolution for collaborative filtering stripped to its essence:
no feature transforms, no nonlinearity — embeddings are propagated
``E^(k+1) = A_hat E^(k)`` and the final representation is the layer
mean.  Trained with BPR.  A neighbour-aggregation model, hence exposed
to neighbourhood disturbance in the eta-truncation experiment (Fig. 6).
"""

from __future__ import annotations

from repro.autograd import Tensor
from repro.autograd.init import normal_
from repro.baselines.base import EmbeddingModel, bipartite_pairs
from repro.baselines.gcn_common import (
    BPRSampler,
    normalized_adjacency,
    sparse_matmul,
    train_bpr,
)
from repro.datasets.base import Dataset
from repro.graph.streams import EdgeStream


class LightGCN(EmbeddingModel):
    """Layer-averaged linear graph convolution + BPR."""

    name = "LightGCN"

    def __init__(
        self,
        dataset: Dataset,
        dim: int = 32,
        num_layers: int = 2,
        steps: int = 300,
        batch_size: int = 128,
        lr: float = 0.01,
        seed: int = 0,
    ):
        super().__init__(dataset, dim=dim, seed=seed)
        self.num_layers = num_layers
        self.steps = steps
        self.batch_size = batch_size
        self.lr = lr

    def fit(self, stream: EdgeStream) -> None:
        n = self.dataset.num_nodes
        adj = normalized_adjacency(n, stream)
        base = normal_((n, self.dim), std=0.1, rng=self.rng)

        def propagate() -> Tensor:
            layer = base
            total = base
            for _ in range(self.num_layers):
                layer = sparse_matmul(adj, layer)
                total = total + layer
            return total * (1.0 / (self.num_layers + 1))

        pairs = bipartite_pairs(self.dataset, stream)
        if pairs:
            sampler = BPRSampler(self.dataset, pairs, rng=self.rng)
            train_bpr(
                [base],
                propagate,
                sampler,
                steps=self.steps,
                batch_size=self.batch_size,
                lr=self.lr,
            )
        self.embeddings = propagate().numpy().copy()
