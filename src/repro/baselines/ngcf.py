"""NGCF (Wang et al., SIGIR 2019).

Neural Graph Collaborative Filtering: message passing over the
user-item graph with both a linear term and a bilinear
element-product term per layer,

    E^(k+1) = LeakyReLU( (A_hat + I) E^(k) W1 + (A_hat E^(k) * E^(k)) W2 ),

final representations concatenate all layers.  Trained with BPR.
"""

from __future__ import annotations

import scipy.sparse as sp

from repro.autograd import Tensor
from repro.autograd.functional import leaky_relu
from repro.autograd.init import normal_, xavier_uniform
from repro.autograd.tensor import concatenate
from repro.baselines.base import EmbeddingModel, bipartite_pairs
from repro.baselines.gcn_common import (
    BPRSampler,
    normalized_adjacency,
    sparse_matmul,
    train_bpr,
)
from repro.datasets.base import Dataset
from repro.graph.streams import EdgeStream


class NGCF(EmbeddingModel):
    """Message-passing CF with bilinear interaction terms."""

    name = "NGCF"

    def __init__(
        self,
        dataset: Dataset,
        dim: int = 32,
        num_layers: int = 2,
        steps: int = 250,
        batch_size: int = 128,
        lr: float = 0.005,
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
        adj_self = (adj + sp.eye(n, format="csr")).tocsr()
        base = normal_((n, self.dim), std=0.1, rng=self.rng)
        w1 = [xavier_uniform((self.dim, self.dim), rng=self.rng) for _ in range(self.num_layers)]
        w2 = [xavier_uniform((self.dim, self.dim), rng=self.rng) for _ in range(self.num_layers)]

        def propagate() -> Tensor:
            layer = base
            layers = [base]
            for k in range(self.num_layers):
                side = sparse_matmul(adj_self, layer) @ w1[k]
                bilinear = (sparse_matmul(adj, layer) * layer) @ w2[k]
                layer = leaky_relu(side + bilinear, slope=0.2)
                layers.append(layer)
            return concatenate(layers, axis=1)

        pairs = bipartite_pairs(self.dataset, stream)
        if pairs:
            sampler = BPRSampler(self.dataset, pairs, rng=self.rng)
            train_bpr(
                [base] + w1 + w2,
                propagate,
                sampler,
                steps=self.steps,
                batch_size=self.batch_size,
                lr=self.lr,
            )
        self.embeddings = propagate().numpy().copy()
