"""Edge deletion as a special relation (Section III-A).

The paper handles deletions two ways: the time-aware propagation module
already refuses to spread information across out-of-date edges, and —
for *explicit* deletions — "edge deletion can be viewed as a special
relation (i.e., edge type) among nodes, and thus shares the same
process procedure with edge addition."

This module implements the second mechanism:

* :func:`extend_schema_with_deletions` derives a schema in which every
  edge type ``r`` gains a deletion twin ``un_r`` with the same
  endpoints, so un-events are first-class interactions with their own
  context embeddings;
* :func:`process_edge_deletion` removes the most recent live matching
  edge from the model's graph and (when the twin relation exists)
  trains on the deletion event exactly like an addition.
"""

from __future__ import annotations

from typing import Optional

from repro.core.model import SUPA
from repro.graph.schema import GraphSchema

DELETION_PREFIX = "un_"


def deletion_edge_type(edge_type: str, prefix: str = DELETION_PREFIX) -> str:
    """The deletion twin name of ``edge_type``."""
    return prefix + edge_type


def extend_schema_with_deletions(
    schema: GraphSchema, prefix: str = DELETION_PREFIX
) -> GraphSchema:
    """A schema where every edge type gains a same-endpoint deletion twin.

    Models built on the extended schema learn separate context
    embeddings for un-events, letting "user removed item from cart"
    carry its own (typically repulsive) semantics.
    """
    for etype in schema.edge_types:
        if etype.startswith(prefix):
            raise ValueError(
                f"edge type {etype!r} already carries the deletion prefix "
                f"{prefix!r}; extending again would be ambiguous"
            )
    edge_types = list(schema.edge_types) + [
        deletion_edge_type(r, prefix) for r in schema.edge_types
    ]
    endpoints = dict(schema.endpoints)
    for r in schema.edge_types:
        if r in schema.endpoints:
            endpoints[deletion_edge_type(r, prefix)] = schema.endpoints[r]
    return GraphSchema.create(schema.node_types, edge_types, endpoints)


def process_edge_deletion(
    model: SUPA,
    u: int,
    v: int,
    edge_type: str,
    t: float,
    learn: bool = True,
    prefix: str = DELETION_PREFIX,
) -> Optional[float]:
    """Delete the most recent live ``(u, v, edge_type)`` edge at time ``t``.

    The edge is removed from the live graph (so walks and propagation
    stop using it).  When ``learn`` is True and the model's schema has
    the ``un_<edge_type>`` twin, the deletion is additionally processed
    as a new interaction of that type — the paper's "special relation"
    treatment — and the training loss is returned.  Returns ``None``
    when no matching live edge exists.

    A matching edge joins ``u`` and ``v`` in either direction with
    ``t' <= t``; the newest wins, ties to the earlier-inserted one.  The
    search covers the whole edge store, not an adjacency list: under a
    recency cap the edge may have fallen out of both endpoints' lists,
    yet it is still live and still counts in their degrees.
    """
    rel = model.schema.edge_type_id(edge_type)
    pair = {(u, v), (v, u)}
    newest = None
    for edge in model.graph.edges():
        if (
            edge.rel == rel
            and edge.t <= t
            and (edge.u, edge.v) in pair
            and (newest is None or edge.t > newest.t)
        ):
            newest = edge
    if newest is None:
        return None
    model.graph.remove_edge(newest.index)

    twin = deletion_edge_type(edge_type, prefix)
    if learn and twin in model.schema.edge_types:
        return model.process_edge(u, v, twin, t)
    return None
