"""EvolveGCN (Pareja et al., AAAI 2020), simplified (EvolveGCN-H style).

The graph stream is cut into snapshots; a GCN runs on each snapshot, and
the GCN *weight matrix* is the hidden state of a GRU that evolves it
from snapshot to snapshot:

    W_t = GRU(summary(E_t), W_{t-1}),    E_t = A_hat_t X W_t.

Trained end to end with BPR on each snapshot's edges (backprop through
time across snapshots).  Simplification: one GCN layer and a column-wise
GRU acting on the weight matrix; the defining mechanism — recurrently
evolved convolution weights — is kept.
"""

from __future__ import annotations

from typing import List, Optional

from repro.autograd import Adam, Tensor
from repro.autograd.functional import sigmoid, tanh
from repro.autograd.init import normal_, xavier_uniform
from repro.baselines.base import EmbeddingModel, bipartite_pairs
from repro.baselines.gcn_common import (
    BPRSampler,
    bpr_step,
    normalized_adjacency,
    sparse_matmul,
)
from repro.datasets.base import Dataset
from repro.graph.streams import EdgeStream


class _WeightGRU:
    """A GRU cell whose hidden state is the (dim x dim) GCN weight."""

    def __init__(self, dim: int, rng) -> None:
        self.wz = xavier_uniform((dim, dim), rng=rng)
        self.uz = xavier_uniform((dim, dim), rng=rng)
        self.wr = xavier_uniform((dim, dim), rng=rng)
        self.ur = xavier_uniform((dim, dim), rng=rng)
        self.wh = xavier_uniform((dim, dim), rng=rng)
        self.uh = xavier_uniform((dim, dim), rng=rng)

    def parameters(self) -> List[Tensor]:
        return [self.wz, self.uz, self.wr, self.ur, self.wh, self.uh]

    def step(self, x: Tensor, h: Tensor) -> Tensor:
        z = sigmoid(x @ self.wz + h @ self.uz)
        r = sigmoid(x @ self.wr + h @ self.ur)
        h_tilde = tanh(x @ self.wh + (r * h) @ self.uh)
        return (1.0 - z) * h + z * h_tilde


class EvolveGCN(EmbeddingModel):
    """GCN whose weights evolve across snapshots via a GRU."""

    name = "EvolveGCN"
    is_dynamic = True

    def __init__(
        self,
        dataset: Dataset,
        dim: int = 32,
        num_snapshots: int = 4,
        steps: int = 120,
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
        snapshots = stream.equal_slices(min(self.num_snapshots, max(1, len(stream))))
        adjs = [normalized_adjacency(n, snap, self_loops=True) for snap in snapshots]

        features = normal_((n, self.dim), std=0.1, rng=self.rng)
        w0 = xavier_uniform((self.dim, self.dim), rng=self.rng)
        gru = _WeightGRU(self.dim, self.rng)
        params = [features, w0] + gru.parameters()

        def unroll() -> List[Tensor]:
            """Embeddings per snapshot with the weight evolved by the GRU."""
            tables = []
            w = w0
            for adj in adjs:
                emb = tanh(sparse_matmul(adj, features) @ w)
                tables.append(emb)
                # Summarise the snapshot into a (dim, dim) update signal.
                summary_vec = emb.mean(axis=0).reshape(1, self.dim)
                summary = summary_vec.T @ summary_vec
                w = gru.step(summary, w)
            return tables

        samplers = []
        for snap in snapshots:
            pairs = bipartite_pairs(self.dataset, snap)
            samplers.append(BPRSampler(self.dataset, pairs, rng=self.rng) if pairs else None)

        if any(s is not None for s in samplers):
            optimizer = Adam(params, lr=self.lr, weight_decay=1e-5)
            for step in range(self.steps):
                tables = unroll()
                loss: Optional[Tensor] = None
                for table, sampler in zip(tables, samplers):
                    if sampler is None:
                        continue
                    rel = sampler.relations[step % len(sampler.relations)]
                    q, pos, neg = sampler.sample(rel, self.batch_size)
                    term = bpr_step(table, q, pos, neg)
                    loss = term if loss is None else loss + term
                if loss is None:
                    break
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()

        self.embeddings = unroll()[-1].numpy().copy()
