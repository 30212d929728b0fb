"""The dynamic multiplex heterogeneous graph (DMHG) container.

Implements Definition 1: nodes with a type mapping ``phi: V -> O`` and a
stream of temporal edges ``(u, v, r, t)``.  The container supports the
operations the paper's system needs:

* streaming edge insertion (and deletion, Section III-A),
* per-node temporal adjacency with an optional recency cap ``eta``
  (``max_neighbors``) modelling the resource-constrained platforms that
  cause *neighbourhood disturbance* (Section IV-F),
* a hop-filter index answering metapath walks' typed neighbour
  queries (below),
* last-interaction timestamps for the active time interval ``Delta_V``,
* degree tallies for the skip-gram noise distribution.

The hop-filter index.  A metapath hop admits the traversable edges whose
type is in ``rel_ids`` and whose far end has node type ``type_id``; that
``(rel_ids, type_id)`` pair is a *hop filter*, and each one a walk asks
for becomes a column ``f`` of the index on first use.  Per column, a
node's admissible entries sit in insertion order as one *segment* of a
shared pool (``others`` / ``rels`` / ``times``), located by the dense
``(num_nodes, F)`` arrays ``start`` and ``length``.  Inserts keep it
current: an entry is appended to each segment it matches (a full
segment moves to a fresh region twice its length at the pool's end), an
η eviction advances the start of each segment the evicted entry
matched, and :meth:`DMHG.remove_edge` rebuilds both endpoints' segments.
A pool slot is written at most once (growth copies into a new buffer),
so a view handed out never changes.  The index costs ``24·F`` bytes per
node (start, length, region end) plus 24 bytes per pool slot, a few
slots per admitted entry.  :meth:`DMHG.candidates` answers one ``(node,
filter)`` from it; :meth:`DMHG.hop_index` hands a whole hop level's
walks the arrays to gather from.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
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


#: smallest pool region a segment is given; a full one moves to a region
#: twice its length, so an append costs amortised O(1)
_MIN_REGION = 4


def _regions(length: np.ndarray) -> np.ndarray:
    """The region a segment of each ``length`` is laid out in."""
    return np.where(length > 0, np.maximum(_MIN_REGION, 2 * length), 0)


def _slots(base: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The pool slots of segments of ``length`` entries from ``base``."""
    slots = np.arange(int(length.sum()), dtype=np.int64)
    slots += np.repeat(base - (np.cumsum(length) - length), length)
    return slots


class HopIndex(NamedTuple):
    """Read-only views of :class:`DMHG`'s hop-filter index: the entries
    of ``(node, column f)`` are ``others / rels / times[start[node, f] :
    start[node, f] + length[node, f]]``, in insertion order."""

    #: ``(num_nodes, F)`` first pool slot of each segment
    start: np.ndarray
    #: ``(num_nodes, F)`` entries per segment
    length: np.ndarray
    #: the pool: far node, edge type id and time of each entry
    others: np.ndarray
    rels: np.ndarray
    times: np.ndarray


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
        #: rel id → its ``(source, target)`` type ids, where declared
        self._rel_ends: Dict[int, Tuple[int, int]] = {
            schema.edge_type_id(rel): (schema.node_type_id(s), schema.node_type_id(d))
            for rel, (s, d) in schema.endpoints.items()
        }
        #: per node, its traversable incident edges as
        #: ``(other, rel, t, index)`` in insertion order
        self._adj: List[List[Tuple[int, int, float, int]]] = []
        #: the hop-filter index (module docstring): filter → column,
        #: column → filter, and ``(rel, far-end type)`` → the columns an
        #: entry of that kind matches (cleared when a column is added)
        self._columns: Dict[tuple, int] = {}
        self._filters: List[tuple] = []
        self._matches: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        #: ``(3, node capacity, F)``: per segment its start, length and
        #: the end of its reserved region; grows with ``_last_time``
        self._set_seg(np.zeros((3, 0, 0), dtype=np.int64))
        #: the pool; slots below ``_pool_used`` are reserved
        self._set_pool(self._new_pool(0))
        self._pool_used = 0
        self._edge_u: List[int] = []
        self._edge_v: List[int] = []
        self._edge_rel: List[int] = []
        self._edge_t: List[float] = []
        self._edge_alive: List[bool] = []
        self._num_alive_edges = 0
        #: per node, its latest interaction time (``-inf`` if none); a
        #: growable buffer whose first ``num_nodes`` entries are live
        self._set_last_time(np.empty(0, dtype=np.float64))
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
        if node == self._last_time.size:
            grown = np.full(max(16, 2 * node), -np.inf)
            grown[:node] = self._last_time
            self._set_last_time(grown)
            seg = np.zeros((3, grown.size, len(self._filters)), dtype=np.int64)
            seg[:, :node] = self._seg
            self._set_seg(seg)
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
        ends = self._rel_ends.get(rel)
        if ends is not None and (
            self._node_types[u] != ends[0] or self._node_types[v] != ends[1]
        ):
            src_type, dst_type = self.schema.endpoints_of(edge_type)
            raise ValueError(
                f"edge type {edge_type!r} connects {src_type}->{dst_type}, "
                f"got {self.node_type(u)}->{self.node_type(v)}"
            )
        t = float(t)
        index = len(self._edge_u)
        self._edge_u.append(u)
        self._edge_v.append(v)
        self._edge_rel.append(rel)
        self._edge_t.append(t)
        self._edge_alive.append(True)
        self._num_alive_edges += 1
        self._append_adj(u, (v, rel, t, index))
        self._append_adj(v, (u, rel, t, index))
        last = self._last_time_mv  # Python floats, no numpy scalar
        last[u] = max(last[u], t)
        last[v] = max(last[v], t)
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
        ends = (self._edge_u[index], self._edge_v[index])
        for node in ends:
            self._adj[node] = [e for e in self._adj[node] if e[3] != index]
            self._degree[node] = max(0, self._degree[node] - 1)
        self._lay_out(range(len(self._filters)), list(dict.fromkeys(ends)))

    def _append_adj(self, node: int, entry: Tuple[int, int, float, int]) -> None:
        lst = self._adj[node]
        lst.append(entry)
        # index bookkeeping reads and writes Python ints and floats
        # through memoryviews: no numpy scalar per entry
        seg = self._seg_mv
        if self.max_neighbors is not None and len(lst) > self.max_neighbors:
            # Recency cap: forget the oldest inserted incident edge.  The
            # edge stays in the global store (it still exists historically)
            # but is no longer traversable from this node.  It is the
            # oldest entry of every segment it matched.
            for f in self._columns_of(lst.pop(0)):
                seg[0, node, f] += 1
                seg[1, node, f] -= 1
        for f in self._columns_of(entry):
            n = seg[1, node, f]
            slot = seg[0, node, f] + n
            if slot == seg[2, node, f]:
                slot = self._move(node, f, n) + n
            others, rels, times = self._pool_mv
            others[slot], rels[slot], times[slot] = entry[:3]
            seg[1, node, f] = n + 1

    # -------------------------------------------------------- hop-filter index

    def _set_last_time(self, last_time: np.ndarray) -> None:
        self._last_time, self._last_time_mv = last_time, memoryview(last_time)

    def _set_seg(self, seg: np.ndarray) -> None:
        self._seg, self._seg_mv = seg, memoryview(seg)

    def _set_pool(self, pool: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        self._pool, self._pool_mv = pool, tuple(memoryview(a) for a in pool)

    def _add_columns(self, keys: Sequence[tuple]) -> None:
        """Make each hop filter in ``keys`` that has no column one, built
        over every node in one pass over the adjacency lists."""
        new = [key for key in dict.fromkeys(keys) if key not in self._columns]
        if not new:
            return
        first = len(self._filters)
        for key in new:
            self._columns[key] = len(self._filters)
            self._filters.append(key)
        self._matches.clear()
        seg = np.zeros(self._seg.shape[:2] + (len(self._filters),), dtype=np.int64)
        seg[:, :, :first] = self._seg
        self._set_seg(seg)
        self._lay_out(range(first, len(self._filters)), range(self.num_nodes))

    def _columns_of(self, entry: Tuple[int, int, float, int]) -> Tuple[int, ...]:
        """The columns whose filter admits adjacency entry ``entry``."""
        key = (entry[1], self._node_types[entry[0]])
        cols = self._matches.get(key)
        if cols is None:
            cols = tuple(
                f for f, (rel_ids, type_id) in enumerate(self._filters)
                if key[0] in rel_ids and key[1] == type_id
            )
            self._matches[key] = cols
        return cols

    def _lay_out(self, columns: Sequence[int], nodes: Sequence[int]) -> None:
        """Write the segments of ``nodes`` in ``columns`` afresh from their
        adjacency lists, each in a fresh region twice its length."""
        lists = [self._adj[node] for node in nodes]
        owner = np.repeat(np.arange(len(lists)), [len(lst) for lst in lists])
        entries = list(chain.from_iterable(lists))
        values = [
            np.fromiter(map(itemgetter(k), entries), dtype=dtype, count=len(entries))
            for k, dtype in enumerate((np.int64, np.int64, np.float64))
        ]
        far_type = self.node_type_ids()[values[0]]
        for f in columns:
            rel_ids, type_id = self._filters[f]
            admitted = np.isin(values[1], list(rel_ids)) & (far_type == type_id)
            length = np.bincount(owner[admitted], minlength=len(lists))
            region = _regions(length)
            base = self._reserve(int(region.sum())) + np.cumsum(region) - region
            slots = _slots(base, length)
            for array, column in zip(self._pool, values):
                array[slots] = column[admitted]
            self._seg[:, nodes, f] = (base, length, base + region)

    def _move(self, node: int, f: int, n: int) -> int:
        """Move a full segment to a fresh region twice its length at the
        pool's end; returns its new start."""
        size = max(_MIN_REGION, 2 * n)
        base = self._reserve(size)
        seg = self._seg_mv
        start = seg[0, node, f]  # after any compaction
        for array in self._pool:
            array[base : base + n] = array[start : start + n]
        seg[0, node, f] = base
        seg[2, node, f] = base + size
        return base

    def _reserve(self, size: int) -> int:
        """The first of ``size`` fresh pool slots.  A full pool is
        compacted into a new buffer twice the size it then needs: each
        segment keeps its entries and a region twice their number."""
        if self._pool_used + size > self._pool[0].size:
            seg = self._seg[:, : self.num_nodes]
            start, length = seg[0].ravel(), seg[1].ravel()
            region = _regions(length)
            base = np.cumsum(region) - region
            used = int(region.sum())
            pool = self._new_pool(2 * (used + size))
            dest, source = _slots(base, length), _slots(start, length)
            for new, old in zip(pool, self._pool):
                new[dest] = old[source]
            seg[0] = base.reshape(seg[0].shape)
            seg[2] = (base + region).reshape(seg[0].shape)
            self._set_pool(pool)
            self._pool_used = used
        base = self._pool_used
        self._pool_used += size
        return base

    @staticmethod
    def _new_pool(size: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.empty(size, dtype=np.int64),
            np.empty(size, dtype=np.int64),
            np.empty(size, dtype=np.float64),
        )

    def hop_index(self, filters: Sequence[tuple]) -> Tuple[np.ndarray, HopIndex]:
        """The index columns of hop ``filters`` (``(rel_ids, type_id)``
        pairs, each built on first use) and read-only views of the index,
        valid until the graph next changes."""
        self._add_columns(filters)
        columns = np.asarray([self._columns[key] for key in filters], dtype=np.int64)
        num_nodes = self.num_nodes
        index = HopIndex(
            self._seg[0, :num_nodes],
            self._seg[1, :num_nodes],
            *(array[: self._pool_used] for array in self._pool),
        )
        for array in index:
            array.flags.writeable = False
        return columns, index

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
        is in ``rel_ids`` and whose far end has node type ``type_id``:
        read-only views of ``node``'s segment in the hop-filter index
        (module docstring), which never change.
        """
        self._check_node(node)
        key = (rel_ids, type_id)
        if key not in self._columns:
            self._add_columns([key])
        f = self._columns[key]
        start = self._seg_mv[0, node, f]
        stop = start + self._seg_mv[1, node, f]
        answer = tuple(array[start:stop] for array in self._pool)
        for array in answer:
            array.flags.writeable = False
        return answer

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
