"""DyHATR (Xue et al., ECML-PKDD 2020), simplified.

Dynamic heterogeneous graph embedding with hierarchical attention and a
temporal RNN: per snapshot, node-level aggregation runs within each
edge type, semantic attention fuses the per-type views, and a GRU over
the snapshot sequence captures evolution.

Simplification vs. the original: node-level GAT attention is replaced by
normalised-adjacency mean aggregation with a per-type transform (one
head), and the temporal attention after the GRU is dropped in favour of
the GRU's final state.  The hierarchy — type-wise aggregation, semantic
fusion, recurrent evolution — is kept.  Trained with BPR summed across
snapshots.
"""

from __future__ import annotations

from typing import List

from repro.autograd import Adam, Tensor
from repro.autograd.functional import sigmoid, softmax, tanh
from repro.autograd.init import normal_, xavier_uniform
from repro.autograd.tensor import concatenate
from repro.baselines.base import EmbeddingModel, bipartite_pairs
from repro.baselines.gcn_common import (
    BPRSampler,
    bpr_step,
    normalized_adjacency,
    sparse_matmul,
)
from repro.datasets.base import Dataset
from repro.graph.streams import EdgeStream


class DyHATR(EmbeddingModel):
    """Hierarchical (type + semantic) attention with a temporal GRU."""

    name = "DyHATR"
    is_dynamic = True

    def __init__(
        self,
        dataset: Dataset,
        dim: int = 32,
        num_snapshots: int = 3,
        steps: int = 100,
        batch_size: int = 128,
        lr: float = 0.01,
        seed: int = 0,
    ):
        super().__init__(dataset, dim=dim, seed=seed)
        self.num_snapshots = num_snapshots
        self.steps = steps
        self.batch_size = batch_size
        self.lr = lr

    def fit(self, stream: EdgeStream) -> None:
        n = self.dataset.num_nodes
        relations = list(self.dataset.schema.edge_types)
        snapshots = stream.equal_slices(min(self.num_snapshots, max(1, len(stream))))
        adjs = [
            {r: normalized_adjacency(n, snap, edge_types=[r], self_loops=True) for r in relations}
            for snap in snapshots
        ]

        features = normal_((n, self.dim), std=0.1, rng=self.rng)
        w_rel = {r: xavier_uniform((self.dim, self.dim), rng=self.rng) for r in relations}
        semantic_q = normal_((self.dim,), std=0.1, rng=self.rng)
        # GRU over snapshots acting on the (N, dim) node-state matrix.
        wz = xavier_uniform((self.dim, self.dim), rng=self.rng)
        uz = xavier_uniform((self.dim, self.dim), rng=self.rng)
        wh = xavier_uniform((self.dim, self.dim), rng=self.rng)
        uh = xavier_uniform((self.dim, self.dim), rng=self.rng)
        params = (
            [features, semantic_q, wz, uz, wh, uh] + [w_rel[r] for r in relations]
        )

        def snapshot_view(adj_by_rel) -> Tensor:
            views = [
                tanh(sparse_matmul(adj_by_rel[r], features) @ w_rel[r])
                for r in relations
            ]
            scores = [
                (tanh(v.mean(axis=0)) * semantic_q).sum().reshape(1) for v in views
            ]
            beta = softmax(concatenate(scores, axis=0).reshape(1, len(relations)))
            beta = beta.reshape(len(relations))
            out = views[0] * beta.gather_rows([0])
            for k in range(1, len(views)):
                out = out + views[k] * beta.gather_rows([k])
            return out

        def unroll() -> List[Tensor]:
            states = []
            h = features
            for adj_by_rel in adjs:
                x = snapshot_view(adj_by_rel)
                z = sigmoid(x @ wz + h @ uz)
                h_tilde = tanh(x @ wh + (h * z) @ uh)
                h = (1.0 - z) * h + z * h_tilde
                states.append(h)
            return states

        samplers = []
        for snap in snapshots:
            pairs = bipartite_pairs(self.dataset, snap)
            samplers.append(BPRSampler(self.dataset, pairs, rng=self.rng) if pairs else None)

        if any(s is not None for s in samplers):
            optimizer = Adam(params, lr=self.lr, weight_decay=1e-5)
            for step in range(self.steps):
                states = unroll()
                loss = None
                for state, sampler in zip(states, samplers):
                    if sampler is None:
                        continue
                    rel = sampler.relations[step % len(sampler.relations)]
                    q, pos, neg = sampler.sample(rel, self.batch_size)
                    term = bpr_step(state, q, pos, neg)
                    loss = term if loss is None else loss + term
                if loss is None:
                    break
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()

        self.embeddings = unroll()[-1].numpy().copy()
