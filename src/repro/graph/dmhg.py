"""The dynamic multiplex heterogeneous graph (DMHG) container.

Implements Definition 1: nodes with a type mapping ``phi: V -> O`` and a
stream of temporal edges ``(u, v, r, t)``.  The container supports the
operations the paper's system needs:

* streaming edge insertion (and deletion, Section III-A),
* per-node temporal adjacency with an optional recency cap ``eta``
  (``max_neighbors``) modelling the resource-constrained platforms that
  cause *neighbourhood disturbance* (Section IV-F),
* type/time-filtered neighbour queries for metapath walks,
* last-interaction timestamps for the active time interval ``Delta_V``,
* degree tallies for the skip-gram noise distribution.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.graph.schema import GraphSchema


class TemporalEdge(NamedTuple):
    """A single temporal edge ``(u, v, r, t)`` plus its store index."""

    u: int
    v: int
    rel: int
    t: float
    index: int


class DMHG:
    """A dynamic multiplex heterogeneous graph.

    Parameters
    ----------
    schema:
        The ``(O, R)`` type universe.
    max_neighbors:
        Optional recency cap ``eta``: each node keeps only its most
        recently inserted ``eta`` incident edges for traversal, matching
        the paper's memory-constrained setting.  ``None`` keeps everything.
    """

    def __init__(self, schema: GraphSchema, max_neighbors: Optional[int] = None):
        if max_neighbors is not None and max_neighbors < 1:
            raise ValueError(f"max_neighbors must be >= 1, got {max_neighbors}")
        self.schema = schema
        self.max_neighbors = max_neighbors
        self._node_types: List[int] = []
        self._nodes_by_type: Dict[int, List[int]] = {
            i: [] for i in range(schema.num_node_types)
        }
        self._type_pools: Dict[int, np.ndarray] = {}
        #: per node, its traversable incident edges as
        #: ``(other, rel, t, index)`` in insertion order
        self._adj: List[List[Tuple[int, int, float, int]]] = []
        #: per node, :meth:`candidates` answers keyed by filter; dropped
        #: whenever that node's adjacency list changes
        self._memo: List[Dict[tuple, tuple]] = []
        self._edge_u: List[int] = []
        self._edge_v: List[int] = []
        self._edge_rel: List[int] = []
        self._edge_t: List[float] = []
        self._edge_alive: List[bool] = []
        self._num_alive_edges = 0
        #: per node, its latest interaction time (``-inf`` if none); a
        #: growable buffer whose first ``num_nodes`` entries are live
        self._last_time = np.empty(0, dtype=np.float64)
        self._degree: List[int] = []

    # ------------------------------------------------------------------ nodes

    def add_node(self, node_type: str) -> int:
        """Create a node of ``node_type`` and return its integer id."""
        type_id = self.schema.node_type_id(node_type)
        node = len(self._node_types)
        self._node_types.append(type_id)
        self._nodes_by_type[type_id].append(node)
        self._type_pools.pop(type_id, None)
        self._adj.append([])
        self._memo.append({})
        if node == self._last_time.size:
            grown = np.full(max(16, 2 * node), -np.inf)
            grown[:node] = self._last_time
            self._last_time = grown
        self._degree.append(0)
        return node

    def add_nodes(self, node_type: str, count: int) -> List[int]:
        """Create ``count`` nodes of one type; returns their ids."""
        return [self.add_node(node_type) for _ in range(count)]

    @property
    def num_nodes(self) -> int:
        return len(self._node_types)

    def node_type(self, node: int) -> str:
        """The type name ``phi(node)``."""
        return self.schema.node_types[self._node_types[node]]

    def node_type_id(self, node: int) -> int:
        """The integer type id of ``node``."""
        return self._node_types[node]

    def node_type_ids(self) -> np.ndarray:
        """Array of type ids for all nodes (index = node id)."""
        return np.asarray(self._node_types, dtype=np.int64)

    def nodes_of_type(self, node_type: str) -> np.ndarray:
        """All node ids whose type is ``node_type``, ascending: a read-only
        int64 array, cached until the next :meth:`add_node` of that type."""
        type_id = self.schema.node_type_id(node_type)
        pool = self._type_pools.get(type_id)
        if pool is None:
            pool = np.asarray(self._nodes_by_type[type_id], dtype=np.int64)
            pool.flags.writeable = False
            self._type_pools[type_id] = pool
        return pool

    # ------------------------------------------------------------------ edges

    def add_edge(self, u: int, v: int, edge_type: str, t: float) -> int:
        """Insert edge ``(u, v, r, t)``; returns its index in the edge store.

        Endpoint node types are validated when the schema declares them.
        Insertion refreshes both endpoints' last-interaction timestamps.
        """
        self._check_node(u)
        self._check_node(v)
        rel = self.schema.edge_type_id(edge_type)
        if edge_type in self.schema.endpoints:
            src_type, dst_type = self.schema.endpoints_of(edge_type)
            if self.node_type(u) != src_type or self.node_type(v) != dst_type:
                raise ValueError(
                    f"edge type {edge_type!r} connects {src_type}->{dst_type}, "
                    f"got {self.node_type(u)}->{self.node_type(v)}"
                )
        index = len(self._edge_u)
        self._edge_u.append(u)
        self._edge_v.append(v)
        self._edge_rel.append(rel)
        self._edge_t.append(float(t))
        self._edge_alive.append(True)
        self._num_alive_edges += 1
        self._append_adj(u, (v, rel, float(t), index))
        self._append_adj(v, (u, rel, float(t), index))
        self._last_time[u] = max(self._last_time[u], float(t))
        self._last_time[v] = max(self._last_time[v], float(t))
        self._degree[u] += 1
        self._degree[v] += 1
        return index

    def remove_edge(self, index: int) -> None:
        """Delete the edge at ``index`` (idempotent tombstone)."""
        if not 0 <= index < len(self._edge_u):
            raise IndexError(f"edge index {index} out of range")
        if not self._edge_alive[index]:
            return
        self._edge_alive[index] = False
        self._num_alive_edges -= 1
        for node in (self._edge_u[index], self._edge_v[index]):
            self._adj[node] = [e for e in self._adj[node] if e[3] != index]
            self._memo[node].clear()
            self._degree[node] = max(0, self._degree[node] - 1)

    def _append_adj(self, node: int, entry: Tuple[int, int, float, int]) -> None:
        lst = self._adj[node]
        lst.append(entry)
        if self.max_neighbors is not None and len(lst) > self.max_neighbors:
            # Recency cap: forget the oldest inserted incident edge.  The
            # edge stays in the global store (it still exists historically)
            # but is no longer traversable from this node.
            del lst[0]
        self._memo[node].clear()

    @property
    def num_edges(self) -> int:
        """Number of live (non-deleted) edges."""
        return self._num_alive_edges

    def edge_at(self, index: int) -> TemporalEdge:
        """The edge stored at ``index`` (alive or tombstoned)."""
        return TemporalEdge(
            self._edge_u[index],
            self._edge_v[index],
            self._edge_rel[index],
            self._edge_t[index],
            index,
        )

    def edge_alive(self, index: int) -> bool:
        return self._edge_alive[index]

    def edges(self) -> Iterator[TemporalEdge]:
        """Iterate over live edges in insertion order."""
        for i in range(len(self._edge_u)):
            if self._edge_alive[i]:
                yield self.edge_at(i)

    # -------------------------------------------------------------- neighbours

    def neighbors(self, node: int) -> List[Tuple[int, int, float, int]]:
        """Traversable neighbours of ``node`` as ``(other, rel_id, t,
        edge_index)``, in adjacency (insertion) order; :meth:`candidates`
        is the filtered lookup a metapath hop makes."""
        self._check_node(node)
        return list(self._adj[node])

    def candidates(
        self, node: int, rel_ids: frozenset, type_id: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One metapath hop's admissible neighbours of ``node``.

        ``(others, rels, times)`` as int64 / int64 / float64 arrays, in
        adjacency (insertion) order, of the traversable edges whose type
        is in ``rel_ids`` and whose far end has node type ``type_id``.
        Answers are memoised per node and dropped whenever that node's
        adjacency list changes; they read nothing else that can change,
        so a memoised answer is never stale.  The arrays are read-only:
        every caller shares them.
        """
        memo = self._memo[node]
        key = (rel_ids, type_id)
        hit = memo.get(key)
        if hit is None:
            node_types = self._node_types
            entries = [
                e for e in self._adj[node]
                if e[1] in rel_ids and node_types[e[0]] == type_id
            ]
            hit = (
                np.asarray([e[0] for e in entries], dtype=np.int64),
                np.asarray([e[1] for e in entries], dtype=np.int64),
                np.asarray([e[2] for e in entries], dtype=np.float64),
            )
            for array in hit:
                array.flags.writeable = False
            memo[key] = hit
        return hit

    def degree(self, node: int) -> int:
        """Number of live incident edges of ``node`` (before the recency cap)."""
        self._check_node(node)
        return self._degree[node]

    def degrees(self) -> np.ndarray:
        """Degree of every node, indexed by node id."""
        return np.asarray(self._degree, dtype=np.int64)

    def last_interaction_time(self, node: int) -> float:
        """Timestamp ``t'_i`` of the latest interaction involving ``node``.

        ``-inf`` when the node has never interacted; callers clamp the
        active interval ``Delta_V`` accordingly.
        """
        self._check_node(node)
        return float(self._last_time[node])

    def last_interaction_times(self, nodes: Sequence[int]) -> np.ndarray:
        """Vectorised :meth:`last_interaction_time` over ``nodes``."""
        return self._last_time[: self.num_nodes][np.asarray(nodes, dtype=np.int64)]

    # ---------------------------------------------------------------- views

    def traversable_edge_indices(self) -> List[int]:
        """Indices of edges still reachable from some adjacency list.

        Under a recency cap, old incident edges fall out of nodes'
        neighbour lists; this returns the surviving "most recent
        subgraph" (the data a memory-constrained platform actually
        retains), sorted by insertion order.
        """
        seen = set()
        for entries in self._adj:
            for entry in entries:
                seen.add(entry[3])
        return sorted(seen)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self._node_types):
            raise IndexError(f"node {node} out of range (num_nodes={self.num_nodes})")

    def __repr__(self) -> str:
        return (
            f"DMHG(|V|={self.num_nodes}, |E|={self.num_edges}, "
            f"|O|={self.schema.num_node_types}, |R|={self.schema.num_edge_types}, "
            f"max_neighbors={self.max_neighbors})"
        )
