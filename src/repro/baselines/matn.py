"""MATN (Xia et al., SIGIR 2020), simplified.

Multiplex behavioural relation learning with a memory-augmented
attention network: behaviours share base embeddings but each behaviour
attends over a bank of ``K`` global memory transforms, giving
behaviour-specific views

    E_r = E + sum_k softmax(a_r)_k (E @ M_k).

Simplification vs. the original: the transformer-style cross-behaviour
encoder is reduced to the per-behaviour memory attention above (the
memory-unit mechanism that differentiates user-item relations is kept);
gated fusion is absorbed by the residual sum.  Trained with BPR per
behaviour.
"""

from __future__ import annotations

from typing import Dict

from repro.autograd import Tensor
from repro.autograd.functional import softmax
from repro.autograd.init import normal_, xavier_uniform
from repro.baselines.base import EmbeddingModel, bipartite_pairs
from repro.baselines.gcn_common import BPRSampler, train_bpr
from repro.datasets.base import Dataset
from repro.graph.streams import EdgeStream


class MATN(EmbeddingModel):
    """Memory-augmented attention over behaviour types."""

    name = "MATN"

    def __init__(
        self,
        dataset: Dataset,
        dim: int = 32,
        num_memories: int = 4,
        steps: int = 250,
        batch_size: int = 128,
        lr: float = 0.005,
        seed: int = 0,
    ):
        super().__init__(dataset, dim=dim, seed=seed)
        self.num_memories = num_memories
        self.steps = steps
        self.batch_size = batch_size
        self.lr = lr

    def fit(self, stream: EdgeStream) -> None:
        n = self.dataset.num_nodes
        base = normal_((n, self.dim), std=0.1, rng=self.rng)
        memories = [
            xavier_uniform((self.dim, self.dim), rng=self.rng)
            for _ in range(self.num_memories)
        ]
        relations = list(self.dataset.schema.edge_types)
        attn = {r: normal_((self.num_memories,), std=0.1, rng=self.rng) for r in relations}

        def relation_table(rel: str) -> Tensor:
            weights = softmax(attn[rel].reshape(1, self.num_memories))
            weights = weights.reshape(self.num_memories)
            out = base
            for k, mem in enumerate(memories):
                out = out + (base @ mem) * weights.gather_rows([k])
            return out

        def all_tables() -> Dict[str, Tensor]:
            return {r: relation_table(r) for r in relations}

        pairs = bipartite_pairs(self.dataset, stream)
        if pairs:
            sampler = BPRSampler(self.dataset, pairs, rng=self.rng)
            params = [base] + memories + [attn[r] for r in relations]
            train_bpr(
                params,
                propagate=lambda: relation_table(relations[0]),
                sampler=sampler,
                steps=self.steps,
                batch_size=self.batch_size,
                lr=self.lr,
                relation_tables=all_tables,
            )
        self.embeddings = {r: relation_table(r).numpy().copy() for r in relations}
        self.embeddings[None] = base.numpy().copy()
