"""Negative sampling for the skip-gram objective (Eq. 12).

Negatives are drawn from a noise distribution proportional to
``degree^0.75`` (the word2vec convention the paper inherits), restricted
to the node type that could plausibly stand in for the positive node —
for a user-item edge, negatives for the user side are items and vice
versa.  Alias tables make each draw O(1); they are rebuilt every
``refresh_every`` processed edges because streaming degrees drift.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.graph.dmhg import DMHG
from repro.utils.alias import AliasTable
from repro.utils.rng import RngLike, new_rng


class NegativeSampler:
    """Degree-weighted per-node-type negative sampler over a live graph."""

    def __init__(self, graph: DMHG, power: float = 0.75, refresh_every: int = 1024):
        if refresh_every < 1:
            raise ValueError(f"refresh_every must be >= 1, got {refresh_every}")
        self.graph = graph
        self.power = power
        self.refresh_every = refresh_every
        self._tables: Dict[int, Optional[AliasTable]] = {}
        self._node_lists: Dict[int, np.ndarray] = {}
        self._since_refresh = 0
        self.refresh()

    def refresh(self) -> None:
        """Rebuild the per-type alias tables from current degrees.

        Types whose nodes all have zero degree fall back to uniform
        sampling over the type's nodes.
        """
        degrees = self.graph.degrees().astype(np.float64)
        type_ids = self.graph.node_type_ids()
        self._tables.clear()
        self._node_lists.clear()
        for type_id in range(self.graph.schema.num_node_types):
            nodes = np.flatnonzero(type_ids == type_id)
            self._node_lists[type_id] = nodes
            if nodes.size == 0:
                self._tables[type_id] = None
                continue
            weights = degrees[nodes] ** self.power
            if weights.sum() <= 0:
                weights = np.ones(nodes.size, dtype=np.float64)
            self._tables[type_id] = AliasTable(weights)
        self._since_refresh = 0

    def tick(self) -> None:
        """Count one processed edge; refresh when the budget is spent."""
        self._since_refresh += 1
        if self._since_refresh >= self.refresh_every:
            self.refresh()

    def sample(
        self, node_type_id: int, count: int, rng: RngLike = None
    ) -> np.ndarray:
        """Draw ``count`` node ids of ``node_type_id`` from the noise
        distribution (empty array when the type has no nodes)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        table = self._tables.get(node_type_id)
        nodes = self._node_lists.get(node_type_id)
        if table is None or nodes is None or nodes.size == 0 or count == 0:
            return np.empty(0, dtype=np.int64)
        rng = new_rng(rng)
        picks = table.sample(rng, size=count)
        return nodes[np.asarray(picks, dtype=np.int64)]
