"""The :class:`Dataset` container binding a DMHG stream to its protocols.

A dataset owns the schema, the node-id layout (contiguous per type), the
chronological edge stream, and the predefined multiplex metapath schemas
(Table IV).  It derives the graph objects, the chronological splits, and
the ranking queries that the evaluation stack consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.eval.ranking import RankingQuery
from repro.graph.dmhg import DMHG
from repro.graph.metapath import MultiplexMetapath
from repro.graph.schema import GraphSchema
from repro.graph.streams import EdgeStream, StreamEdge


@dataclass
class Dataset:
    """A DMHG recommendation dataset.

    Parameters
    ----------
    name:
        Dataset identifier (e.g. ``"uci"``).
    schema:
        Node/edge type universe.
    nodes_by_type:
        Ordered ``(type, count)`` pairs; node ids are contiguous per type
        in this order, so id ranges are derivable without a lookup table.
    stream:
        The full chronological edge stream.
    metapaths:
        The predefined multiplex metapath schema set of Table IV.
    """

    name: str
    schema: GraphSchema
    nodes_by_type: List[Tuple[str, int]]
    stream: EdgeStream
    metapaths: List[MultiplexMetapath] = field(default_factory=list)
    #: edge types evaluated as recommendation targets; ``None`` = all.
    #: Structural relations (e.g. author-video uploads) are excluded
    #: here so ranking metrics measure the actual recommendation task.
    target_edge_types: Optional[List[str]] = None

    def __post_init__(self) -> None:
        offsets: Dict[str, Tuple[int, int]] = {}
        cursor = 0
        for node_type, count in self.nodes_by_type:
            self.schema.node_type_id(node_type)  # validates
            if count < 0:
                raise ValueError(f"negative node count for {node_type!r}")
            offsets[node_type] = (cursor, cursor + count)
            cursor += count
        self._type_ranges = offsets
        self._num_nodes = cursor
        for mp in self.metapaths:
            mp.validate_against(self.schema)
        if self.target_edge_types is not None:
            for r in self.target_edge_types:
                self.schema.edge_type_id(r)  # validates

    # -------------------------------------------------------------- structure

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return len(self.stream)

    def type_range(self, node_type: str) -> Tuple[int, int]:
        """Half-open id range ``[lo, hi)`` of ``node_type``."""
        try:
            return self._type_ranges[node_type]
        except KeyError:
            raise KeyError(
                f"dataset {self.name!r} has no nodes of type {node_type!r}"
            ) from None

    def nodes_of_type(self, node_type: str) -> np.ndarray:
        lo, hi = self.type_range(node_type)
        return np.arange(lo, hi, dtype=np.int64)

    def node_type_of(self, node: int) -> str:
        for node_type, (lo, hi) in self._type_ranges.items():
            if lo <= node < hi:
                return node_type
        raise IndexError(f"node {node} outside dataset ({self._num_nodes} nodes)")

    # ----------------------------------------------------------------- graphs

    def build_graph(
        self,
        stream: Optional[EdgeStream] = None,
        max_neighbors: Optional[int] = None,
    ) -> DMHG:
        """Materialise a graph holding ``stream`` (default: all edges)."""
        stream = self.stream if stream is None else stream
        return stream.build_graph(self.schema, self.nodes_by_type, max_neighbors)

    def empty_graph(self, max_neighbors: Optional[int] = None) -> DMHG:
        """All nodes, no edges — the starting state for streaming training."""
        return EdgeStream([]).build_graph(self.schema, self.nodes_by_type, max_neighbors)

    def split(
        self, train_frac: float = 0.80, valid_frac: float = 0.01
    ) -> Tuple[EdgeStream, EdgeStream, EdgeStream]:
        """The paper's 80% / 1% / 19% chronological split."""
        return self.stream.chronological_split(train_frac, valid_frac)

    # ---------------------------------------------------------------- queries

    def ranking_target(self, edge: StreamEdge) -> Tuple[int, int, np.ndarray]:
        """``(query_node, true_node, candidates)`` for a held-out edge.

        The query node is the edge's source-role endpoint; candidates are
        every node of the target-role type (the full catalogue).
        """
        src_type, dst_type = self.schema.endpoints_of(edge.edge_type)
        u_type = self.node_type_of(edge.u)
        if u_type == src_type:
            query, true = edge.u, edge.v
        elif u_type == dst_type:
            query, true = edge.v, edge.u
        else:
            raise ValueError(
                f"edge {edge} endpoints do not match declared types "
                f"({src_type} -> {dst_type})"
            )
        return query, true, self.nodes_of_type(dst_type if query == edge.u else src_type)

    def ranking_queries(
        self, stream: EdgeStream, edge_types: Optional[List[str]] = None
    ) -> List[RankingQuery]:
        """One :class:`RankingQuery` per target edge of ``stream``.

        ``edge_types`` overrides the dataset's ``target_edge_types``;
        edges of non-target types contribute no query.
        """
        wanted = edge_types if edge_types is not None else self.target_edge_types
        queries = []
        for edge in stream:
            if wanted is not None and edge.edge_type not in wanted:
                continue
            query, true, candidates = self.ranking_target(edge)
            queries.append(
                RankingQuery(
                    node=query,
                    true_node=true,
                    candidates=candidates,
                    edge_type=edge.edge_type,
                    t=edge.t,
                )
            )
        return queries

    # ------------------------------------------------------------- statistics

    def statistics(self) -> Dict[str, int]:
        """|V|, |E|, |O|, |R|, |T| — the Table III row of this dataset."""
        ts = self.stream.timestamps()
        return {
            "|V|": self.num_nodes,
            "|E|": self.num_edges,
            "|O|": self.schema.num_node_types,
            "|R|": self.schema.num_edge_types,
            "|T|": int(np.unique(ts).size) if ts.size else 0,
        }

    def describe(self) -> str:
        stats = self.statistics()
        paths = "; ".join(mp.describe() for mp in self.metapaths) or "(none)"
        return (
            f"{self.name}: |V|={stats['|V|']}, |E|={stats['|E|']}, "
            f"|O|={stats['|O|']}, |R|={stats['|R|']}, |T|={stats['|T|']}\n"
            f"  metapaths: {paths}"
        )
