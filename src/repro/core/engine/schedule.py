"""Conflict-free round partition of a micro-batch.

Section IV-H: "the update procedure of SUPA is localized".  Edges with
pairwise-disjoint endpoints touch disjoint memory rows, so a round of
them is the unit the engine executes as stacked ``[round, dim]`` array
operations (DESIGN.md §9).  :func:`partition_round_indices` is the
greedy earliest-round partition over a micro-batch's ``(B, 2)`` endpoint
id array, which :func:`~repro.core.engine.plan.compile_plan` lays its
plan out by.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np


def partition_round_indices(uv: np.ndarray) -> List[List[int]]:
    """Greedy earliest-round partition over the batch's ``(B, 2)`` ids.

    Edges keep their relative stream order within and across rounds: an
    edge goes to the earliest round after every round holding either of
    its endpoints (``next_free[x]`` is one past the last round holding
    ``x``).  Returns edge *indices* so the plan can be laid out by them.
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
