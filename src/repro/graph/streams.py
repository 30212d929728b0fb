"""Time-ordered edge streams and the splits the paper's protocols use.

An :class:`EdgeStream` is a chronologically sorted list of
``(u, v, edge_type, t)`` records.  It provides:

* ``chronological_split`` — the 80% / 1% / 19% train/valid/test split of
  Section IV-C,
* ``sequential_batches`` — the ``S_batch``-sized batches InsLearn trains
  on (Algorithm 1, lines 1-2),
* ``split_train_valid`` — the per-batch "last ``S_valid`` edges are
  validation" rule (Algorithm 1, line 5), and
* ``equal_slices`` — the 10 equal parts of the dynamic link-prediction
  protocol (Section IV-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.graph.dmhg import DMHG
from repro.graph.schema import GraphSchema


class StreamEdge(NamedTuple):
    """An edge record before graph insertion: ``(u, v, edge_type, t)``."""

    u: int
    v: int
    edge_type: str
    t: float


def _is_time_sorted(edges: Sequence[StreamEdge]) -> bool:
    """True when ``edges`` are already in non-decreasing timestamp order."""
    return all(edges[i - 1].t <= edges[i].t for i in range(1, len(edges)))


@dataclass
class EdgeStream:
    """A chronologically sorted sequence of edge records.

    Construction sorts by timestamp (stable, so simultaneous edges keep
    their given order — the paper's static Amazon graph has one shared
    timestamp for every edge).
    """

    edges: List[StreamEdge]

    def __post_init__(self) -> None:
        # Streams are overwhelmingly constructed from already-ordered data
        # (slices of other streams, replay hand-off); an O(n) sortedness
        # check skips the sort and preserves the input's identity order.
        if _is_time_sorted(self.edges):
            self.edges = list(self.edges)
        else:
            self.edges = sorted(self.edges, key=lambda e: e.t)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[StreamEdge]:
        return iter(self.edges)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return EdgeStream(self.edges[item])
        return self.edges[item]

    def timestamps(self) -> np.ndarray:
        return np.asarray([e.t for e in self.edges], dtype=np.float64)

    def chronological_split(
        self, train_frac: float = 0.80, valid_frac: float = 0.01
    ) -> Tuple["EdgeStream", "EdgeStream", "EdgeStream"]:
        """Split into (train, valid, test) by time; test gets the rest."""
        if not 0.0 < train_frac < 1.0 or valid_frac < 0.0:
            raise ValueError(f"bad fractions: train={train_frac}, valid={valid_frac}")
        if train_frac + valid_frac >= 1.0:
            raise ValueError("train + valid fractions must leave room for test")
        n = len(self.edges)
        n_train = int(round(n * train_frac))
        n_valid = int(round(n * valid_frac))
        return (
            EdgeStream(self.edges[:n_train]),
            EdgeStream(self.edges[n_train : n_train + n_valid]),
            EdgeStream(self.edges[n_train + n_valid :]),
        )

    def sequential_batches(self, batch_size: int) -> List["EdgeStream"]:
        """Consecutive batches of ``batch_size`` edges (last may be short)."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return [
            EdgeStream(self.edges[i : i + batch_size])
            for i in range(0, len(self.edges), batch_size)
        ]

    def split_train_valid(self, valid_size: int) -> Tuple["EdgeStream", "EdgeStream"]:
        """Last ``valid_size`` edges become validation (Algorithm 1 line 5).

        When the stream is too short to spare ``valid_size`` edges, the
        validation set shrinks so at least one edge remains for training.
        """
        if valid_size < 0:
            raise ValueError(f"valid_size must be >= 0, got {valid_size}")
        valid_size = min(valid_size, max(0, len(self.edges) - 1))
        if valid_size == 0:
            return EdgeStream(list(self.edges)), EdgeStream([])
        return (
            EdgeStream(self.edges[:-valid_size]),
            EdgeStream(self.edges[-valid_size:]),
        )

    def equal_slices(self, parts: int) -> List["EdgeStream"]:
        """Split into ``parts`` equally sized chronological slices."""
        if parts < 1:
            raise ValueError(f"parts must be >= 1, got {parts}")
        bounds = np.linspace(0, len(self.edges), parts + 1).astype(int)
        return [
            EdgeStream(self.edges[bounds[i] : bounds[i + 1]]) for i in range(parts)
        ]

    def build_graph(
        self,
        schema: GraphSchema,
        num_nodes_by_type: Sequence[Tuple[str, int]],
        max_neighbors: int = None,
    ) -> DMHG:
        """Materialise a :class:`DMHG` containing every edge of the stream.

        ``num_nodes_by_type`` fixes the node-id layout: node ids are
        assigned contiguously per type, in the given order, so streams and
        datasets agree on ids.
        """
        graph = DMHG(schema, max_neighbors=max_neighbors)
        for node_type, count in num_nodes_by_type:
            graph.add_nodes(node_type, count)
        for e in self.edges:
            graph.add_edge(e.u, e.v, e.edge_type, e.t)
        return graph
