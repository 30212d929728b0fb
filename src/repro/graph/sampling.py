"""Influenced graph sampling (Section III-B).

For a new edge ``(u, v, r, t)`` the Influenced Graph Sampling Module draws
``k`` metapath-constrained random walks of length ``l`` from each of the
two interactive nodes (Eq. 1-3).  The union of walks is the *influenced
graph* ``G_{s,e}`` on which the Time-aware Propagation Module spreads the
interaction information.  :func:`sample_pass_walks` samples a whole
pass's influenced graphs as flat arrays; the object walker
(:class:`Walk`) serves the random-walk baselines' corpora.

Walks are sampled *before* the new edge is inserted into the graph, so a
walk never trivially crosses the edge whose influence it measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.graph.dmhg import DMHG
from repro.graph.metapath import MultiplexMetapath
from repro.utils.rng import RngLike, new_rng


class WalkStep(NamedTuple):
    """One node on a walk plus the edge used to arrive at it.

    ``rel`` and ``t`` are ``None`` for the walk's start node.
    """

    node: int
    rel: Optional[int]
    t: Optional[float]


@dataclass
class Walk:
    """A metapath-constrained random walk: a sequence of :class:`WalkStep`."""

    steps: List[WalkStep]

    def __len__(self) -> int:
        return len(self.steps)

    def nodes(self) -> List[int]:
        return [s.node for s in self.steps]


class CompiledMetapath:
    """A metapath pre-resolved to integer type/relation ids.

    The walk hot path runs millions of "which node type next, which
    edge types allowed" lookups; compiling once per (metapath, schema)
    removes every per-step string lookup.
    """

    def __init__(self, metapath: MultiplexMetapath, schema) -> None:
        self.metapath = metapath
        self.head_type_id = schema.node_type_id(metapath.head)
        self.period = len(metapath) - 1
        type_ids = [schema.node_type_id(t) for t in metapath.node_types]
        # (rel_ids, next_type_id) per hop position within one period:
        # the filter pair :meth:`DMHG.candidates` answers for that hop
        # (Eq. 2-3, positions wrapping with the period).
        self._period_filters = [
            (
                frozenset(schema.edge_type_id(r) for r in rset),
                type_ids[(p + 1) % self.period],
            )
            for p, rset in enumerate(metapath.edge_type_sets)
        ]
        self._filters_for_len: Dict[int, list] = {}

    def filters_for(self, hops: int) -> list:
        """The ``(rel_ids, next_type_id)`` filter pairs of hops
        ``0..hops-1`` as one list, so a walk loop iterates filter pairs
        with no per-hop indexing or modulo.  Cached per length (walk
        length is a config constant, so in practice this holds a single
        entry)."""
        cached = self._filters_for_len.get(hops)
        if cached is None:
            cached = [self._period_filters[p % self.period] for p in range(hops)]
            self._filters_for_len[hops] = cached
        return cached


class HopFilters(NamedTuple):
    """A metapath set's ``(head type, option, hop) → filter id`` table.

    Option ``o`` of node type ``t`` (``compiled.for_type(t)[o]``) is row
    ``option_base[t] + o`` of ``table``; ``filters[table[row, h]]`` is the
    ``(rel_ids, next_type_id)`` hop filter of its hop ``h`` (0-based), a
    column of :meth:`DMHG.hop_index`.  Equal pairs share one id.
    """

    #: ``(T,)`` row of each node type's first option
    option_base: np.ndarray
    #: ``(T,)`` number of options (metapaths headed by the type)
    option_count: np.ndarray
    #: ``(M, hops)`` filter id per option and hop
    table: np.ndarray
    filters: List[tuple]


class CompiledMetapathSet:
    """Metapaths compiled against a schema, indexed by head node type id."""

    def __init__(self, metapaths: Sequence[MultiplexMetapath], schema) -> None:
        self.by_head: dict = {}
        self._num_types = schema.num_node_types
        self._hop_filters: Dict[int, HopFilters] = {}
        for mp in metapaths:
            compiled = CompiledMetapath(mp, schema)
            self.by_head.setdefault(compiled.head_type_id, []).append(compiled)

    def for_type(self, type_id: int) -> List["CompiledMetapath"]:
        return self.by_head.get(type_id, [])

    def hop_filters(self, hops: int) -> HopFilters:
        """The :class:`HopFilters` of walks with ``hops`` hops, built once
        per length."""
        cached = self._hop_filters.get(hops)
        if cached is None:
            ids: Dict[tuple, int] = {}
            base = np.zeros(self._num_types, dtype=np.int64)
            count = np.zeros(self._num_types, dtype=np.int64)
            rows = []
            for type_id, options in sorted(self.by_head.items()):
                base[type_id] = len(rows)
                count[type_id] = len(options)
                for mp in options:
                    rows.append(
                        [ids.setdefault(f, len(ids)) for f in mp.filters_for(hops)]
                    )
            table = np.asarray(rows, dtype=np.int64).reshape(len(rows), hops)
            cached = HopFilters(base, count, table, list(ids))
            self._hop_filters[hops] = cached
        return cached


def _sample_compiled_walk(
    graph: DMHG, start: int, compiled: CompiledMetapath, length: int, pick
) -> Walk:
    """One walk as objects: hop ``h`` (1-based) takes index ``pick(h, n)``
    among its ``n`` :meth:`DMHG.candidates`; stops early when a hop has
    none."""
    steps = [WalkStep(start, None, None)]
    current = start
    for h, (rel_ids, type_id) in enumerate(compiled.filters_for(length - 1), 1):
        others, rels, times = graph.candidates(current, rel_ids, type_id)
        if not others.size:
            break
        i = pick(h, others.size)
        current = int(others[i])
        steps.append(WalkStep(current, int(rels[i]), float(times[i])))
    return Walk(steps)


def _rng_pick(rng):
    """Per-hop picks drawn one by one from ``rng`` (the baselines' walkers)."""
    return lambda _, n: int(rng.integers(n))


class PassWalks(NamedTuple):
    """Every walk of one pass, flat: edge, then side (``u`` first), then
    walk, then hop — the order the per-edge sampler produces."""

    #: per hop: the node it reaches, the edge type id and time it uses
    nodes: np.ndarray
    rels: np.ndarray
    times: np.ndarray
    #: ``(W + 1,)`` CSR boundaries of the ``W`` kept walks in the hops
    offsets: np.ndarray
    #: ``(W,)`` side of each kept walk, 0 for ``u``
    sides: np.ndarray
    #: ``(B,)`` hops per edge
    hop_counts: np.ndarray


def sample_pass_walks(
    graph: DMHG,
    uv: np.ndarray,
    start_types: np.ndarray,
    compiled: CompiledMetapathSet,
    uniforms: Optional[np.ndarray],
) -> PassWalks:
    """Sample the influenced graphs of a pass's ``(B, 2)`` edges ``uv``
    (endpoint node types ``start_types``), all walks one hop at a time.

    Draw contract: no RNG is read here.  ``uniforms`` is the pass's
    ``(B, 2, k, l)`` walk draw (``None``: walks are off), read exactly as
    the per-edge object oracle reads each edge's block: slot 0 picks the
    walk's metapath among its start type's options, slot ``h`` picks hop
    ``h`` among the ``n`` candidates, both as ``int(u * n)`` (never ``n``
    for ``n < 2**53``).  A walk stops when its hop has no candidate, and
    one that stops at hop 1 is dropped; slots a walk does not reach are
    never read.

    The graph is static for the pass, so every live walk advances
    together, one hop level at a time, by gathers from the graph's
    hop-filter index (:meth:`DMHG.hop_index`): a walk at ``node`` on hop
    filter column ``f`` has ``n = length[node, f]`` candidates and takes
    pool slot ``start[node, f] + int(u * n)``.
    """
    batch = uv.shape[0]
    if uniforms is None:
        uniforms = np.empty((batch, 2, 0, 1), dtype=np.float64)
    num_walks, length = uniforms.shape[2:]
    hops = length - 1
    table = compiled.hop_filters(hops)
    columns, index = graph.hop_index(table.filters)
    # the index column of each option's hop
    column_of = columns[table.table]
    # walk ``(b, side, w)`` is row ``(2b + side) * k + w``
    draws = uniforms.reshape(-1, length)
    types = np.repeat(start_types.reshape(-1), num_walks)
    count = table.option_count[types]
    option = table.option_base[types] + (draws[:, 0] * count).astype(np.int64)
    taken = np.zeros(draws.shape[0], dtype=np.int64)
    hop_nodes = np.empty((draws.shape[0], hops), dtype=np.int64)
    hop_rels = np.empty((draws.shape[0], hops), dtype=np.int64)
    hop_times = np.empty((draws.shape[0], hops), dtype=np.float64)
    live = np.flatnonzero(count > 0)
    current = np.repeat(uv.reshape(-1), num_walks)[live]
    for h in range(hops):
        if not live.size:
            break
        f = column_of[option[live], h]
        n = index.length[current, f]
        moving = n > 0
        live, n = live[moving], n[moving]
        pick = index.start[current[moving], f[moving]]
        pick += (draws[live, h + 1] * n).astype(np.int64)
        current = index.others[pick]
        hop_nodes[live, h] = current
        hop_rels[live, h] = index.rels[pick]
        hop_times[live, h] = index.times[pick]
        taken[live] += 1
    reached = np.arange(hops) < taken[:, None]
    kept = taken > 0
    offsets = np.zeros(int(kept.sum()) + 1, dtype=np.int64)
    np.cumsum(taken[kept], out=offsets[1:])
    sides = np.tile(np.repeat(np.arange(2, dtype=np.int64), num_walks), batch)
    return PassWalks(
        nodes=hop_nodes[reached],
        rels=hop_rels[reached],
        times=hop_times[reached],
        offsets=offsets,
        sides=sides[kept],
        hop_counts=taken.reshape(batch, 2 * num_walks).sum(axis=1),
    )


def random_walk_corpus(
    graph: DMHG,
    num_walks: int,
    walk_length: int,
    rng: RngLike = None,
    metapaths: Optional[Sequence[MultiplexMetapath]] = None,
) -> List[List[int]]:
    """A DeepWalk-style corpus: ``num_walks`` walks from every node.

    With ``metapaths`` given, walks are schema-constrained (metapath2vec
    style); otherwise they are unconstrained uniform random walks.  Used
    by the random-walk baselines.
    """
    rng = new_rng(rng)
    pick = _rng_pick(rng)
    compiled = None
    if metapaths is not None:
        compiled = CompiledMetapathSet(metapaths, graph.schema)
    corpus: List[List[int]] = []
    for start in range(graph.num_nodes):
        for _ in range(num_walks):
            if compiled is not None:
                options = compiled.for_type(graph.node_type_id(start))
                if not options:
                    continue
                mp = options[int(rng.integers(len(options)))]
                walk = _sample_compiled_walk(graph, start, mp, walk_length, pick)
                seq = walk.nodes()
            else:
                seq = [start]
                current = start
                for _ in range(walk_length - 1):
                    nbrs = graph.neighbors(current)
                    if not nbrs:
                        break
                    current = nbrs[int(rng.integers(len(nbrs)))][0]
                    seq.append(current)
            if len(seq) > 1:
                corpus.append(seq)
    return corpus
