"""Conflict-free rounds: the unit SUPA's localized updates execute in.

Section IV-H: "To deal with larger dynamic graphs, one can use multiple
GPUs to train SUPA since the update procedure of SUPA is localized."
Edges with pairwise-disjoint endpoints touch disjoint memory rows, so a
round of them can be computed as one stacked array operation
(DESIGN.md §9):

* :mod:`repro.core.shard.estimate` — the planning utilities: greedy
  conflict-free round partition over
  :class:`~repro.graph.streams.StreamEdge` lists and the analytical
  speedup bound.
* :mod:`repro.core.shard.schedule` — the same greedy partition over a
  compiled :class:`~repro.core.engine.plan.BatchPlan`'s index arrays,
  plus the round-major re-layout the engine executes.
"""

from repro.core.shard.estimate import (
    estimate_parallel_speedup,
    partition_conflict_free_rounds,
    shard_statistics,
)
from repro.core.shard.schedule import (
    RoundSchedule,
    build_schedule,
    partition_round_indices,
)

__all__ = [
    "RoundSchedule",
    "build_schedule",
    "estimate_parallel_speedup",
    "partition_conflict_free_rounds",
    "partition_round_indices",
    "shard_statistics",
]
