"""Conflict-free round partition of a micro-batch.

Section IV-H: "the update procedure of SUPA is localized".  Edges with
pairwise-disjoint endpoints touch disjoint memory rows, so a round of
them is the unit the engine executes as stacked ``[round, dim]`` array
operations (DESIGN.md §9).  :func:`partition_round_indices` is the
greedy earliest-round partition over a micro-batch's ``(B, 2)`` endpoint
id array, which :func:`~repro.core.engine.plan.compile_plan` lays its
plan out by; :func:`partition_conflict_free_rounds` is the same
algorithm over :class:`~repro.graph.streams.StreamEdge` objects, kept as
the edge-level reference the tests compare it against.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.graph.streams import StreamEdge


def partition_round_indices(uv: np.ndarray) -> List[List[int]]:
    """Greedy earliest-round partition over the batch's ``(B, 2)`` ids.

    Identical algorithm to :func:`partition_conflict_free_rounds`,
    returning edge *indices* so the plan can be laid out by them.
    """
    rounds: List[List[int]] = []
    next_free: Dict[int, int] = {}
    for b, (u, v) in enumerate(uv.tolist()):
        earliest = max(next_free.get(u, 0), next_free.get(v, 0))
        if earliest == len(rounds):
            rounds.append([])
        rounds[earliest].append(b)
        next_free[u] = next_free[v] = earliest + 1
    return rounds


def partition_conflict_free_rounds(
    edges: Sequence[StreamEdge],
) -> List[List[StreamEdge]]:
    """Split ``edges`` into rounds with pairwise-disjoint endpoints.

    Edges keep their relative time order within and across rounds: an
    edge is placed in the earliest round after the rounds containing any
    conflicting earlier edge.  ``next_free[x]`` is one past the last
    round holding ``x``, so no round from ``earliest`` on holds either
    endpoint.
    """
    rounds: List[List[StreamEdge]] = []
    next_free: Dict[int, int] = {}
    for e in edges:
        earliest = max(next_free.get(e.u, 0), next_free.get(e.v, 0))
        if earliest == len(rounds):
            rounds.append([])
        rounds[earliest].append(e)
        next_free[e.u] = next_free[e.v] = earliest + 1
    return rounds
