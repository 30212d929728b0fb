"""Conflict-free sharding of SUPA's per-edge updates (planning half).

Section IV-H: "To deal with larger dynamic graphs, one can use multiple
GPUs to train SUPA since the update procedure of SUPA is localized."
This module partitions a time-ordered edge batch into rounds whose edges
touch pairwise-disjoint interactive nodes — such updates commute
(``tests/core/test_locality.py``) and can run on separate workers — and
estimates the resulting speedup from the critical path.

The partition is greedy earliest-round scheduling, which for this
interval-free conflict structure is optimal round-minimising for each
prefix.

These functions plan over :class:`~repro.graph.streams.StreamEdge`
objects; the execution-side twin that plans over compiled
:class:`~repro.core.engine.plan.BatchPlan` index arrays lives in
:mod:`repro.core.shard.schedule`, and the engine executes each of its
rounds as one stacked array pass
(:class:`repro.core.engine.engine.BatchedEngine`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.graph.streams import StreamEdge


def partition_conflict_free_rounds(
    edges: Sequence[StreamEdge],
) -> List[List[StreamEdge]]:
    """Split ``edges`` into rounds with pairwise-disjoint endpoints.

    Edges keep their relative time order within and across rounds: an
    edge is placed in the earliest round after the rounds containing any
    conflicting earlier edge.
    """
    rounds: List[List[StreamEdge]] = []
    round_touched: List[set] = []
    next_free: Dict[int, int] = {}
    for e in edges:
        earliest = max(next_free.get(e.u, 0), next_free.get(e.v, 0))
        while earliest < len(rounds) and (
            e.u in round_touched[earliest] or e.v in round_touched[earliest]
        ):
            earliest += 1
        if earliest == len(rounds):
            rounds.append([])
            round_touched.append(set())
        rounds[earliest].append(e)
        round_touched[earliest].update((e.u, e.v))
        next_free[e.u] = earliest + 1
        next_free[e.v] = earliest + 1
    return rounds


def estimate_parallel_speedup(
    edges: Sequence[StreamEdge], workers: int
) -> float:
    """Throughput multiple of ``workers`` parallel trainers vs. one.

    Each round's edges are independent; a round with ``s`` edges takes
    ``ceil(s / workers)`` time units against ``s`` sequentially, so the
    speedup is ``len(edges) / sum_r ceil(s_r / workers)``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not edges:
        return 1.0
    rounds = partition_conflict_free_rounds(edges)
    parallel_time = sum(int(np.ceil(len(r) / workers)) for r in rounds)
    return len(edges) / parallel_time


def shard_statistics(edges: Sequence[StreamEdge]) -> Dict[str, float]:
    """Summary of the conflict structure of an edge batch."""
    rounds = partition_conflict_free_rounds(edges)
    sizes = [len(r) for r in rounds]
    return {
        "edges": len(edges),
        "rounds": len(rounds),
        "max_round": max(sizes) if sizes else 0,
        "mean_round": float(np.mean(sizes)) if sizes else 0.0,
        "parallelism_bound": (len(edges) / len(rounds)) if rounds else 1.0,
    }
