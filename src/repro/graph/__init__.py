"""Dynamic multiplex heterogeneous graph (DMHG) substrate.

Implements Definition 1 of the paper: a graph ``G = (V, E, O, R)`` whose
temporal edges ``(u, v, r, t)`` arrive as a stream, together with the
multiplex metapath machinery (Definition 3) and the influenced-graph
sampling used by SUPA (Section III-B).
"""

from repro.graph.dmhg import DMHG, TemporalEdge
from repro.graph.metapath import MultiplexMetapath
from repro.graph.sampling import Walk, WalkStep
from repro.graph.schema import GraphSchema
from repro.graph.streams import EdgeStream

__all__ = [
    "DMHG",
    "TemporalEdge",
    "MultiplexMetapath",
    "Walk",
    "WalkStep",
    "GraphSchema",
    "EdgeStream",
]
