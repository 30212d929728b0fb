"""Influenced graph sampling (Section III-B).

For a new edge ``(u, v, r, t)`` the Influenced Graph Sampling Module draws
``k`` metapath-constrained random walks of length ``l`` from each of the
two interactive nodes (Eq. 1-3).  The union of walks is the *influenced
graph* ``G_{s,e}`` on which the Time-aware Propagation Module spreads the
interaction information.

Walks are sampled *before* the new edge is inserted into the graph, so a
walk never trivially crosses the edge whose influence it measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set

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

    @property
    def start(self) -> int:
        return self.steps[0].node

    def nodes(self) -> List[int]:
        return [s.node for s in self.steps]

    def hops(self) -> List[WalkStep]:
        """Steps after the start node, each carrying its arrival edge."""
        return self.steps[1:]


@dataclass
class InfluencedGraph:
    """The sampled influenced graph ``G_{s,e}`` of a new edge.

    ``walks_u``/``walks_v`` are the path sets ``p_u``/``p_v`` of Eq. 1,
    rooted at the two interactive nodes.
    """

    u: int
    v: int
    rel: int
    t: float
    walks_u: List[Walk] = field(default_factory=list)
    walks_v: List[Walk] = field(default_factory=list)

    @property
    def walks(self) -> List[Walk]:
        return self.walks_u + self.walks_v

    def influenced_nodes(self) -> Set[int]:
        """Nodes reached by any walk, excluding the two interactive nodes."""
        nodes: Set[int] = set()
        for walk in self.walks:
            nodes.update(step.node for step in walk.hops())
        nodes.discard(self.u)
        nodes.discard(self.v)
        return nodes


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


class CompiledMetapathSet:
    """Metapaths compiled against a schema, indexed by head node type id."""

    def __init__(self, metapaths: Sequence[MultiplexMetapath], schema) -> None:
        self.by_head: dict = {}
        for mp in metapaths:
            compiled = CompiledMetapath(mp, schema)
            self.by_head.setdefault(compiled.head_type_id, []).append(compiled)

    def for_type(self, type_id: int) -> List["CompiledMetapath"]:
        return self.by_head.get(type_id, [])


def uniform_pick(u: float, n: int) -> int:
    """The index in ``[0, n)`` that a uniform ``u`` in ``[0, 1)`` picks.

    ``int(u * n)``.  It never reaches ``n`` for ``n < 2**53``: the
    largest ``u`` is ``1 - 2**-53``, whose exact product with ``n`` lies
    ``n * 2**-53`` below ``n`` — more than half an ulp of ``n``, or
    exactly representable when ``n`` is a power of two — so the rounded
    product is below ``n`` (rounding is monotone) and truncation gives at
    most ``n - 1``.
    """
    return int(u * n)


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


def sample_influenced_graph_compiled(
    graph: DMHG,
    u: int,
    v: int,
    rel: int,
    t: float,
    compiled: CompiledMetapathSet,
    num_walks: int,
    walk_length: int,
    uniforms,
) -> InfluencedGraph:
    """Sample ``G_{s,e}`` for the new edge ``(u, v, rel, t)`` as objects.

    Draws ``num_walks`` (the paper's ``k``) walks of ``walk_length``
    (the paper's ``l``) from each interactive node.  Each walk picks a
    uniformly random schema among those applicable to its start node; a
    node with no applicable schema contributes no walks (its side of the
    influenced graph is empty, and propagation towards it is skipped).

    ``uniforms`` is the edge's ``(2, k, l)`` block of the pass's walk
    draw (DESIGN.md §9 rule 2): walk ``w`` of side ``s`` picks its schema
    with ``uniforms[s][w][0]`` and hop ``h`` with ``uniforms[s][w][h]``,
    both by :func:`uniform_pick`.  The object oracle of
    :func:`sample_walks_into`."""
    result = InfluencedGraph(u=u, v=v, rel=rel, t=float(t))
    for side, (node, bucket) in enumerate(((u, result.walks_u), (v, result.walks_v))):
        options = compiled.for_type(graph.node_type_id(node))
        if not options:
            continue
        for w in range(num_walks):
            slots = uniforms[side][w]
            mp = options[uniform_pick(slots[0], len(options))]
            walk = _sample_compiled_walk(
                graph, node, mp, walk_length, lambda h, n: uniform_pick(slots[h], n)
            )
            if len(walk) > 1:
                bucket.append(walk)
    return result


def sample_walks_into(
    graph: DMHG,
    u: int,
    v: int,
    compiled: CompiledMetapathSet,
    num_walks: int,
    walk_length: int,
    uniforms,
    nodes: List[int],
    rels: List[int],
    times: List[float],
    offsets: List[int],
    sides: List[int],
) -> int:
    """Sample one edge's influenced graph, appending hops to flat lists.

    The batch plan compiler passes *batch-level* lists here so a whole
    micro-batch accumulates into one flat CSR structure with a single
    list→array conversion at the end — no per-edge arrays, no per-edge
    concatenation.  ``offsets`` must arrive non-empty (the running CSR
    boundary list, ``[0]`` for a fresh structure); entries appended to
    it are global positions in ``nodes``.  Returns the number of hops
    appended for this edge.

    Draw contract: no RNG is read here.  ``uniforms`` is the edge's
    ``(2, k, l)`` block of the pass's walk draw (nested lists are
    fastest), read exactly as :func:`sample_influenced_graph_compiled`
    reads it — per side (``u`` first), per walk: slot 0 picks the
    metapath, slot ``h`` picks hop ``h`` by :func:`uniform_pick`, until
    the walk length is reached or no candidate exists.  Walks that fail
    at the first hop are dropped (the reference's ``len(walk) > 1``
    filter); slots a walk does not reach are never read.
    """
    begin_edge = len(nodes)
    hops = walk_length - 1
    candidates = graph.candidates
    for side, start in ((0, u), (1, v)):
        options = compiled.for_type(graph.node_type_id(start))
        if not options:
            continue
        num_options = len(options)
        for slots in uniforms[side][:num_walks]:
            # int(u * n) is uniform_pick, inlined on the hot path
            mp = options[int(slots[0] * num_options)]
            current = start
            begin = len(nodes)
            for (rel_ids, type_id), draw in zip(mp.filters_for(hops), slots[1:]):
                others, hop_rels, hop_times = candidates(current, rel_ids, type_id)
                n = len(others)
                if n == 0:
                    break
                pick = int(draw * n)
                current = others.item(pick)
                nodes.append(current)
                rels.append(hop_rels.item(pick))
                times.append(hop_times.item(pick))
            if len(nodes) > begin:
                offsets.append(len(nodes))
                sides.append(side)
    return len(nodes) - begin_edge


def sample_metapath_walk(
    graph: DMHG,
    start: int,
    metapath: MultiplexMetapath,
    length: int,
    rng: RngLike = None,
) -> Walk:
    """One random walk of up to ``length`` nodes following ``metapath``.

    At position ``i`` the next node must have type ``o_{P, f(i+1)}`` and be
    reachable over an edge whose type is in ``R_{P, f(i)}`` (Eq. 2-3); the
    choice among admissible neighbours is uniform.  The walk stops early
    when no admissible neighbour exists.
    """
    if length < 1:
        raise ValueError(f"walk length must be >= 1, got {length}")
    if graph.node_type(start) != metapath.head:
        raise ValueError(
            f"start node {start} has type {graph.node_type(start)!r}; "
            f"metapath head is {metapath.head!r}"
        )
    return _sample_compiled_walk(
        graph,
        start,
        CompiledMetapath(metapath, graph.schema),
        length,
        _rng_pick(new_rng(rng)),
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
