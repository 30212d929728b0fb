"""Influenced-graph sampling as Python objects, one edge at a time (Section III-B).

For a new edge ``(u, v, r, t)`` SUPA draws ``k`` metapath-constrained
random walks of length ``l`` from each of the two interactive nodes
(Eq. 1-3); the union of walks is the *influenced graph* ``G_{s,e}`` on
which the propagation module spreads the interaction information.  The
production sampler (:func:`repro.graph.sampling.sample_pass_walks`)
walks a whole pass one hop level at a time; this is its per-edge
oracle, reading the same pass draw and the same hop-filter index
(through :meth:`DMHG.candidates`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from repro.graph.dmhg import DMHG
from repro.graph.metapath import MultiplexMetapath
from repro.graph.sampling import (
    CompiledMetapath,
    CompiledMetapathSet,
    Walk,
    _rng_pick,
    _sample_compiled_walk,
)
from repro.utils.rng import RngLike, new_rng


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
            nodes.update(step.node for step in walk.steps[1:])
        nodes.discard(self.u)
        nodes.discard(self.v)
        return nodes


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
    both by :func:`uniform_pick`.  The per-edge object oracle of
    :func:`repro.graph.sampling.sample_pass_walks`."""
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
