"""Type registries for dynamic multiplex heterogeneous graphs.

A :class:`GraphSchema` is the ``(O, R)`` part of Definition 1: the node
type set, the edge type set, and — because real recommender graphs attach
each behaviour to specific endpoint types (``click``: User -> Video) — a
mapping from each edge type to its ``(source, target)`` node types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Tuple


@dataclass(frozen=True)
class GraphSchema:
    """The node/edge type universe of a DMHG.

    Parameters
    ----------
    node_types:
        Names of the node types ``O`` (e.g. ``("user", "video", "author")``).
    edge_types:
        Names of the edge types ``R`` (e.g. ``("watch", "like", "upload")``).
    endpoints:
        For each edge type, the ``(source_type, target_type)`` pair it
        connects.  Edges are traversable in both directions; the pair only
        fixes which node plays which role when an edge is created.
    """

    node_types: Tuple[str, ...]
    edge_types: Tuple[str, ...]
    endpoints: Mapping[str, Tuple[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.node_types)) != len(self.node_types):
            raise ValueError(f"duplicate node types: {self.node_types}")
        if len(set(self.edge_types)) != len(self.edge_types):
            raise ValueError(f"duplicate edge types: {self.edge_types}")
        if not self.node_types:
            raise ValueError("a schema needs at least one node type")
        if not self.edge_types:
            raise ValueError("a schema needs at least one edge type")
        for etype, (src, dst) in self.endpoints.items():
            if etype not in self.edge_types:
                raise ValueError(f"endpoints given for unknown edge type {etype!r}")
            for o in (src, dst):
                if o not in self.node_types:
                    raise ValueError(
                        f"edge type {etype!r} references unknown node type {o!r}"
                    )
        # Cached name -> id lookups (the frozen dataclass workaround).
        object.__setattr__(
            self, "_node_index", {name: i for i, name in enumerate(self.node_types)}
        )
        object.__setattr__(
            self, "_edge_index", {name: i for i, name in enumerate(self.edge_types)}
        )

    @classmethod
    def create(
        cls,
        node_types: Sequence[str],
        edge_types: Sequence[str],
        endpoints: Mapping[str, Tuple[str, str]] = (),
    ) -> "GraphSchema":
        """Build a schema, defaulting missing endpoints for homogeneous graphs.

        If there is exactly one node type, every edge type without an
        explicit endpoint pair connects that type to itself.
        """
        endpoints = dict(endpoints)
        if len(node_types) == 1:
            only = node_types[0]
            for etype in edge_types:
                endpoints.setdefault(etype, (only, only))
        return cls(tuple(node_types), tuple(edge_types), endpoints)

    @property
    def num_node_types(self) -> int:
        return len(self.node_types)

    @property
    def num_edge_types(self) -> int:
        return len(self.edge_types)

    def node_type_id(self, name: str) -> int:
        """Integer id of node type ``name`` (stable ordering)."""
        try:
            return self._node_index[name]
        except KeyError:
            raise KeyError(f"unknown node type {name!r}; have {self.node_types}") from None

    def edge_type_id(self, name: str) -> int:
        """Integer id of edge type ``name`` (stable ordering)."""
        try:
            return self._edge_index[name]
        except KeyError:
            raise KeyError(f"unknown edge type {name!r}; have {self.edge_types}") from None

    def endpoints_of(self, edge_type: str) -> Tuple[str, str]:
        """The ``(source_type, target_type)`` pair of ``edge_type``."""
        if edge_type not in self.edge_types:
            raise KeyError(f"unknown edge type {edge_type!r}")
        if edge_type not in self.endpoints:
            raise KeyError(f"edge type {edge_type!r} has no declared endpoints")
        return tuple(self.endpoints[edge_type])
