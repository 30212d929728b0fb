"""MB-GMN (Xia et al., SIGIR 2021), simplified.

Multi-behaviour recommendation with a graph meta network: each
behaviour gets its own light graph convolution over its behaviour
adjacency, and a meta network transfers knowledge across behaviours by
generating a behaviour-specific mixing of the cross-behaviour summary:

    E_r = LightGCN_r(E) + (mean_r' LightGCN_r'(E)) @ W_meta_r.

Simplification vs. the original: the meta-knowledge learner that
generates per-*user* weights is reduced to per-*behaviour* generated
transforms — cross-behaviour transfer, the mechanism Table V credits it
for, is kept.  Trained with BPR over all behaviours jointly.
"""

from __future__ import annotations

from typing import Dict

from repro.autograd import Tensor
from repro.autograd.init import normal_, xavier_uniform
from repro.baselines.base import EmbeddingModel, bipartite_pairs
from repro.baselines.gcn_common import (
    BPRSampler,
    normalized_adjacency,
    sparse_matmul,
    train_bpr,
)
from repro.datasets.base import Dataset
from repro.graph.streams import EdgeStream


class MBGMN(EmbeddingModel):
    """Per-behaviour graph convolutions with meta knowledge transfer."""

    name = "MB-GMN"

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
        relations = list(self.dataset.schema.edge_types)
        adjs = {
            r: normalized_adjacency(n, stream, edge_types=[r]) for r in relations
        }
        base = normal_((n, self.dim), std=0.1, rng=self.rng)
        meta = {
            r: xavier_uniform((self.dim, self.dim), rng=self.rng) for r in relations
        }

        def behaviour_view(rel: str) -> Tensor:
            layer = base
            total = base
            for _ in range(self.num_layers):
                layer = sparse_matmul(adjs[rel], layer)
                total = total + layer
            return total * (1.0 / (self.num_layers + 1))

        def all_tables() -> Dict[str, Tensor]:
            views = {r: behaviour_view(r) for r in relations}
            summary = views[relations[0]]
            for r in relations[1:]:
                summary = summary + views[r]
            summary = summary * (1.0 / len(relations))
            return {r: views[r] + summary @ meta[r] for r in relations}

        pairs = bipartite_pairs(self.dataset, stream)
        if pairs:
            sampler = BPRSampler(self.dataset, pairs, rng=self.rng)
            train_bpr(
                [base] + [meta[r] for r in relations],
                propagate=lambda: all_tables()[relations[0]],
                sampler=sampler,
                steps=self.steps,
                batch_size=self.batch_size,
                lr=self.lr,
                relation_tables=all_tables,
            )
        self.embeddings = {r: t.numpy().copy() for r, t in all_tables().items()}
        self.embeddings[None] = base.numpy().copy()
