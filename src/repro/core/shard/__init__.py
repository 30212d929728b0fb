"""Shard-parallel execution: conflict-group scheduling for SUPA updates.

Section IV-H: "To deal with larger dynamic graphs, one can use multiple
GPUs to train SUPA since the update procedure of SUPA is localized."
This package is the CPU-side realisation of that claim (DESIGN.md §14):

* :mod:`repro.core.shard.estimate` — the planning utilities: greedy
  conflict-free round partition over :class:`~repro.graph.streams.StreamEdge` lists and the analytical
  speedup bound.
* :mod:`repro.core.shard.schedule` — the same greedy partition over a
  compiled :class:`~repro.core.engine.plan.BatchPlan`'s index arrays,
  plus cost-balanced chunking onto workers and contended-context-row
  detection for the deterministic barrier merge.
* :mod:`repro.core.shard.tasks` — the self-contained per-chunk work unit
  (:class:`ChunkTask`) and the pure worker function
  (:func:`execute_chunk`) that computes gradient bundles without ever
  touching shared optimiser state.
* :mod:`repro.core.shard.executor` — :class:`ShardedEngine`, the third
  ``SUPAConfig.engine``: coordinator-side compile + schedule, worker-side
  bundle computation, deterministic fused applies at each round barrier.
"""

from repro.core.shard.estimate import (
    estimate_parallel_speedup,
    partition_conflict_free_rounds,
    shard_statistics,
)
from repro.core.shard.schedule import RoundPlan, ShardSchedule, build_schedule
from repro.core.shard.tasks import ChunkResult, ChunkTask, execute_chunk, make_chunk_task

__all__ = [
    "ChunkResult",
    "ChunkTask",
    "RoundPlan",
    "ShardSchedule",
    "build_schedule",
    "estimate_parallel_speedup",
    "execute_chunk",
    "make_chunk_task",
    "partition_conflict_free_rounds",
    "shard_statistics",
]
