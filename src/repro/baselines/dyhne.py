"""DyHNE (Wang et al., TKDE 2022), simplified.

Dynamic heterogeneous network embedding with metapath-based proximity:
node representations preserve the first- and second-order proximities of
a fused metapath-weighted adjacency

    M = sum_m theta_m W_m,      S = M + gamma * norm(M M),

solved spectrally (truncated SVD) — the matrix-factorisation treatment
the original builds its eigen-perturbation updates on.

Simplification vs. the original: snapshot updates recompute the
decomposition rather than perturbing eigenvectors; both approaches
produce the same embeddings, and recomputation mirrors the heavy matrix
cost the paper observes ("cannot produce results in a week" on the two
largest datasets).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.baselines.base import EmbeddingModel
from repro.datasets.base import Dataset
from repro.graph.metapath import MultiplexMetapath
from repro.graph.streams import EdgeStream


def metapath_adjacency(
    num_nodes: int, stream: EdgeStream, metapath: MultiplexMetapath
) -> sp.csr_matrix:
    """Row-normalised adjacency restricted to the metapath's first hop
    edge types (the pairwise building block of metapath proximity)."""
    wanted = set(metapath.edge_type_sets[0])
    rows, cols = [], []
    for e in stream:
        if e.edge_type in wanted:
            rows.extend((e.u, e.v))
            cols.extend((e.v, e.u))
    if not rows:
        return sp.csr_matrix((num_nodes, num_nodes))
    adj = sp.coo_matrix(
        (np.ones(len(rows), dtype=np.float64), (rows, cols)),
        shape=(num_nodes, num_nodes),
    ).tocsr()
    degree = np.asarray(adj.sum(axis=1)).ravel()
    inv = np.zeros_like(degree)
    inv[degree > 0] = 1.0 / degree[degree > 0]
    return (sp.diags(inv) @ adj).tocsr()


class DyHNE(EmbeddingModel):
    """Spectral embeddings of fused metapath proximity matrices."""

    name = "DyHNE"
    is_dynamic = True

    def __init__(
        self,
        dataset: Dataset,
        dim: int = 32,
        second_order_weight: float = 0.5,
        seed: int = 0,
    ):
        super().__init__(dataset, dim=dim, seed=seed)
        self.second_order_weight = second_order_weight

    def fit(self, stream: EdgeStream) -> None:
        n = self.dataset.num_nodes
        metapaths = self.dataset.metapaths
        if metapaths:
            fused = sp.csr_matrix((n, n))
            for mp in metapaths:
                fused = fused + metapath_adjacency(n, stream, mp)
            fused = fused * (1.0 / len(metapaths))
        else:
            fused = metapath_adjacency(
                n,
                stream,
                MultiplexMetapath.create(
                    [self.dataset.schema.node_types[0]] * 2,
                    [list(self.dataset.schema.edge_types)],
                ),
            )
        second = fused @ fused
        norm = spla.norm(second) or 1.0
        proximity = fused + self.second_order_weight * (second / norm * spla.norm(fused))

        k = min(self.dim, n - 2)
        if k < 1 or proximity.nnz == 0:
            self.embeddings = np.zeros((n, self.dim), dtype=np.float64)
            return
        # a seeded start vector: ARPACK's own draw is unseeded
        u, s, _ = spla.svds(
            proximity.astype(np.float64), k=k, v0=self.rng.standard_normal(n)
        )
        emb = u * np.sqrt(np.maximum(s, 0.0))
        if emb.shape[1] < self.dim:
            emb = np.pad(emb, ((0, 0), (0, self.dim - emb.shape[1])))
        self.embeddings = emb
