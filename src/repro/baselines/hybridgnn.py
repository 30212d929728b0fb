"""HybridGNN (Gu et al., ICDE 2022), simplified.

Hybrid representation learning in multiplex heterogeneous networks:
per-relation aggregation flows are fused by hierarchical attention — a
node-level aggregation within each relation, then a semantic-level
attention across relations:

    h_r = A_hat_r E W_r,     beta = softmax_r(q . tanh(mean(h_r) W_s)),
    E_final = E + sum_r beta_r h_r.

Simplification vs. the original: random-walk based hybrid aggregation
flows are approximated by the per-relation convolution (one flow per
relation); the hierarchical (node + semantic) attention fusion is kept.
Trained with BPR.
"""

from __future__ import annotations

from repro.autograd import Tensor
from repro.autograd.functional import softmax, tanh
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


class HybridGNN(EmbeddingModel):
    """Relation-wise aggregation fused by semantic attention."""

    name = "HybridGNN"

    def __init__(
        self,
        dataset: Dataset,
        dim: int = 32,
        steps: int = 250,
        batch_size: int = 128,
        lr: float = 0.005,
        seed: int = 0,
    ):
        super().__init__(dataset, dim=dim, seed=seed)
        self.steps = steps
        self.batch_size = batch_size
        self.lr = lr

    def fit(self, stream: EdgeStream) -> None:
        n = self.dataset.num_nodes
        relations = list(self.dataset.schema.edge_types)
        adjs = {r: normalized_adjacency(n, stream, edge_types=[r]) for r in relations}
        base = normal_((n, self.dim), std=0.1, rng=self.rng)
        w_rel = {r: xavier_uniform((self.dim, self.dim), rng=self.rng) for r in relations}
        semantic_query = normal_((self.dim,), std=0.1, rng=self.rng)

        def propagate() -> Tensor:
            flows = [sparse_matmul(adjs[r], base) @ w_rel[r] for r in relations]
            # Semantic attention: score each relation by its mean activation.
            scores = [
                (tanh(flow.mean(axis=0)) * semantic_query).sum().reshape(1)
                for flow in flows
            ]
            beta = softmax(concatenate(scores, axis=0).reshape(1, len(relations)))
            beta = beta.reshape(len(relations))
            out = base
            for k, flow in enumerate(flows):
                out = out + flow * beta.gather_rows([k])
            return out

        pairs = bipartite_pairs(self.dataset, stream)
        if pairs:
            sampler = BPRSampler(self.dataset, pairs, rng=self.rng)
            train_bpr(
                [base, semantic_query] + [w_rel[r] for r in relations],
                propagate,
                sampler,
                steps=self.steps,
                batch_size=self.batch_size,
                lr=self.lr,
            )
        self.embeddings = propagate().numpy().copy()
