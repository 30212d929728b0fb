"""Multiplex metapath schemas (Definition 3).

A multiplex metapath ``P = o_1 --R_1--> o_2 --R_2--> ... --R_{n-1}--> o_n``
prescribes node types and *sets* of admissible edge types along a path.
Walks longer than ``|P|`` repeat the schema by treating the tail node type
as the head (the paper's modular index ``f(i, |P|-1)``, applied by
:class:`~repro.graph.sampling.CompiledMetapath`), which requires a
symmetric schema.  Every declared and mined metapath here is symmetric, so
Eq. 4's reflection of an asymmetric schema has no caller and is left out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Sequence, Tuple

from repro.graph.schema import GraphSchema


@dataclass(frozen=True)
class MultiplexMetapath:
    """A typed walk template over a DMHG.

    Parameters
    ----------
    node_types:
        The sequence ``(o_1, ..., o_n)``, length >= 2.
    edge_type_sets:
        The sequence ``(R_1, ..., R_{n-1})`` of admissible edge type sets,
        one per hop.
    """

    node_types: Tuple[str, ...]
    edge_type_sets: Tuple[FrozenSet[str], ...]

    def __post_init__(self) -> None:
        if len(self.node_types) < 2:
            raise ValueError("a metapath needs at least two node types")
        if len(self.edge_type_sets) != len(self.node_types) - 1:
            raise ValueError(
                f"need {len(self.node_types) - 1} edge type sets, "
                f"got {len(self.edge_type_sets)}"
            )
        for rset in self.edge_type_sets:
            if not rset:
                raise ValueError("edge type sets must be non-empty")

    @classmethod
    def create(
        cls,
        node_types: Sequence[str],
        edge_type_sets: Sequence[Sequence[str]],
    ) -> "MultiplexMetapath":
        return cls(
            tuple(node_types),
            tuple(frozenset(rset) for rset in edge_type_sets),
        )

    def __len__(self) -> int:
        """The schema length ``|P| = n`` (number of node slots)."""
        return len(self.node_types)

    @property
    def head(self) -> str:
        return self.node_types[0]

    def validate_against(self, schema: GraphSchema) -> None:
        """Raise if the metapath references types absent from ``schema``
        or hops incompatible with declared edge endpoints."""
        for o in self.node_types:
            schema.node_type_id(o)
        for hop, rset in enumerate(self.edge_type_sets):
            src, dst = self.node_types[hop], self.node_types[hop + 1]
            for r in rset:
                schema.edge_type_id(r)
                if r in schema.endpoints:
                    s, d = schema.endpoints_of(r)
                    if {s, d} != {src, dst} and (s, d) != (src, dst):
                        raise ValueError(
                            f"hop {hop} of metapath uses edge type {r!r} "
                            f"({s}->{d}) between {src} and {dst}"
                        )

    def describe(self) -> str:
        """Human-readable arrow form, e.g. ``user -{click,like}-> video``."""
        parts = [self.node_types[0]]
        for hop, rset in enumerate(self.edge_type_sets):
            parts.append(f"-{{{','.join(sorted(rset))}}}-> {self.node_types[hop + 1]}")
        return " ".join(parts)
