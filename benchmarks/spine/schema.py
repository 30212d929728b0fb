"""Names of the spine: workloads, end-to-end metrics, per-layer metrics.

This module is the single place a metric or workload is named.
``BENCHMARK.json`` at the repo root is ``manifest()`` written out, the
smoke test holds the two equal, and ``README.md`` is the glossary.  It
imports nothing from ``repro`` so the parent process (``run.py``) and
the tests can load it without paying the numpy/scipy import.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

#: seconds one run measures (the live phase of each workload is sized
#: to about this long on the 2-core sizing host)
RUN_SECONDS = 15


#: Every time metric is reported at nominal host speed (``hostspeed.py``)
#: and still gets the widest bound the contract allows.  On the sizing host
#: (a 2-vCPU VM on a shared machine) ten runs then spread by 2-11 % of the
#: median (quartile to quartile); unscaled they spread by 10-30 %.  The
#: host the driver checks on was the noisier of the two by half again, so
#: the bound keeps twice the widest spread seen here; README.md, "Noise
#: control".
TIME_BOUND = 0.25


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median the metric may worsen by
    bound: float
    help: str


class PerLayer(NamedTuple):
    layer: str
    name: str
    unit: str
    better: str
    help: str


WORKLOADS: List[Workload] = [
    Workload(
        "steady",
        "open loop, Poisson 300 edges/s plus 1 query per 4 events, async dispatch with "
        "WAL and admission: fill wait, queue lock, training and publish all block visibility",
    ),
    Workload(
        "backfill",
        "closed loop, one client ingesting back-to-back (1 query per 32 events), inline batches "
        "of 256, WAL and checkpoints on: the engine does nearly all the work, serve almost none",
    ),
    Workload(
        "read_heavy",
        "closed loop, Zipf queries over a 7.5k-node catalogue with one ingest per 8 "
        "queries: index and store do the work, writes pay O(num_nodes) copies not kernels",
    ),
    Workload(
        "crash_recover",
        "closed-loop ingest past two checkpoints, crash without flush, then recover three times "
        "(30-batch replay): WAL scan, checkpoint load, graph rebuild and replay block the result",
    ),
]

END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", TIME_BOUND,
             "imports + input generation + median of 3 x (build service, pre-fault) + warm-up"),
    # every time below is at nominal host speed: divided by the host's
    # slowdown while it was measured (rates multiplied), see hostspeed.py
    EndToEnd("visible_p50_ms", "ms", "lower", TIME_BOUND,
             "accepted event due -> index.invalidate of its batch returned (median)"),
    EndToEnd("visible_p99_ms", "ms", "lower", TIME_BOUND,
             "same, 99th percentile; stated limit on steady: <= 500 ms"),
    EndToEnd("ingest_tail_ms", "ms", "lower", TIME_BOUND,
             "event due -> ingest() returned, mean of the slowest 1 %"),
    EndToEnd("query_p95_ms", "ms", "lower", TIME_BOUND,
             "query due -> query() returned, 95th percentile (the highest that leaves ten "
             "samples beyond it on the workload with the fewest queries)"),
    EndToEnd("drain_eps", "1/s", "higher", TIME_BOUND,
             "accepted events / seconds spent inside the operations (open loop: / wall seconds)"),
    EndToEnd("read_qps", "1/s", "higher", TIME_BOUND,
             "queries / seconds spent inside the operations (open loop: / wall seconds)"),
    EndToEnd("recover_s", "s", "lower", TIME_BOUND,
             "median of the recover() calls (3 deep or 4 shallow) on pristine copies of the crashed state"),
    EndToEnd("next_event_auc", "share", "higher", 0.15,
             "mean share of the catalogue the served snapshot scores below the item of each next "
             "target-relation stream edge (0.5 = random)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15,
             "ru_maxrss of the workload's process"),
]

PER_LAYER: List[PerLayer] = [
    # --- the load generator (this harness): validity, not performance
    PerLayer("generator", "gen.lag_p99_ms", "ms", "lower", "issue time - due time, p99"),
    PerLayer("generator", "gen.offered_eps", "1/s", "higher", "events scheduled / scheduled span"),
    PerLayer("generator", "gen.achieved_eps", "1/s", "higher", "events issued / wall until the last returned"),
    PerLayer("generator", "gen.backlog_end_events", "count", "lower", "events due but unissued when the schedule ended"),
    PerLayer("generator", "gen.drain_tail_s", "s", "lower", "last due time -> last ingest returned"),
    PerLayer("generator", "gen.slo_miss_share", "share", "lower", "accepted events visible later than 500 ms"),
    PerLayer("generator", "proc.cpu_s", "s", "lower", "user+system CPU of the process during the live phase"),
    PerLayer("generator", "host.kernel_ms", "ms", "lower", "median time of the host-speed kernel during the live phase (per-layer seconds are raw: divide by this over 0.3 to compare runs)"),
    # --- serve.admission
    PerLayer("serve.admission", "admission.admit_s", "s", "lower", "busy seconds in admit()"),
    PerLayer("serve.admission", "admission.calls", "count", "lower", "admit() calls"),
    PerLayer("serve.admission", "admission.denied", "count", "lower", "throttled + shed decisions"),
    # --- resilience.wal
    PerLayer("resilience.wal", "wal.append_s", "s", "lower", "busy seconds in append_*()"),
    PerLayer("resilience.wal", "wal.appends", "count", "lower", "records appended"),
    PerLayer("resilience.wal", "wal.bytes", "bytes", "lower", "journal size on disk at the crash"),
    PerLayer("resilience.wal", "wal.scan_s", "s", "lower", "busy seconds in scan() + iter_records() during recover"),
    # --- serve.ingest (the queue)
    PerLayer("serve.ingest", "queue.put_s", "s", "lower", "busy seconds in put() (inline dispatch: contains the updates)"),
    PerLayer("serve.ingest", "queue.put_max_ms", "ms", "lower", "slowest put()"),
    PerLayer("serve.ingest", "queue.lock_wait_s", "s", "lower", "self time of put() + busy seconds in the queue.pending reads around it: where callers wait for the queue lock"),
    PerLayer("serve.ingest", "queue.fill_wait_p50_ms", "ms", "lower", "accept -> batch cut, median (service registry)"),
    PerLayer("serve.ingest", "queue.fill_wait_p99_ms", "ms", "lower", "accept -> batch cut, p99 (service registry)"),
    PerLayer("serve.ingest", "queue.batches", "count", "lower", "micro-batches cut"),
    PerLayer("serve.ingest", "queue.mean_batch", "count", "higher", "accepted events / batches"),
    # --- serve.dispatch
    PerLayer("serve.dispatch", "dispatch.busy_share", "share", "lower", "seconds inside productive dispatch_next() / live wall"),
    PerLayer("serve.dispatch", "dispatch.batches", "count", "lower", "batches drained by the dispatcher thread"),
    PerLayer("serve.dispatch", "dispatch.wake_p99_ms", "ms", "lower", "accept that completes a batch -> dispatch_next entered, p99"),
    # --- core.inslearn
    PerLayer("core.inslearn", "inslearn.batch_s", "s", "lower", "busy seconds in train_one_batch()"),
    PerLayer("core.inslearn", "inslearn.batches", "count", "lower", "train_one_batch() calls"),
    PerLayer("core.inslearn", "inslearn.iterations", "count", "lower", "replay iterations run"),
    PerLayer("core.inslearn", "inslearn.state_copy_s", "s", "lower", "busy seconds in model.state_dict() + load_state_dict()"),
    PerLayer("core.inslearn", "inslearn.state_copies", "count", "lower", "state_dict() + load_state_dict() calls"),
    PerLayer("core.inslearn", "inslearn.validate_s", "s", "lower", "busy seconds in validation_mrr()"),
    # --- core.engine
    PerLayer("core.engine", "engine.train_batch_s", "s", "lower", "busy seconds in model.train_batch()"),
    PerLayer("core.engine", "engine.train_batch_calls", "count", "lower", "model.train_batch() calls"),
    PerLayer("core.engine", "engine.edges", "count", "lower", "edge replays executed"),
    PerLayer("core.engine", "engine.compile_s", "s", "lower", "busy seconds in compile_plan()"),
    PerLayer("core.engine", "engine.execute_s", "s", "lower", "train_batch_s - compile_s"),
    PerLayer("core.engine", "engine.us_per_edge", "us", "lower", "train_batch_s / edges"),
    # --- graph
    PerLayer("graph", "graph.observe_s", "s", "lower", "busy seconds in model.observe()"),
    PerLayer("graph", "graph.observe_calls", "count", "lower", "model.observe() calls"),
    PerLayer("graph", "graph.cand_cache_hit_rate", "share", "higher", "neighbour-candidate cache hits / queries"),
    # --- core.memory
    PerLayer("core.memory", "memory.state_mb", "MB", "lower", "bytes of one model.state_dict()"),
    PerLayer("core.memory", "memory.bytes_per_node", "bytes", "lower", "state bytes / num_nodes"),
    # --- serve.store
    PerLayer("serve.store", "store.publish_s", "s", "lower", "busy seconds in publish()/publish_parts()"),
    PerLayer("serve.store", "store.publishes", "count", "lower", "snapshots published"),
    PerLayer("serve.store", "store.rows_published", "count", "lower", "rows written across publishes"),
    PerLayer("serve.store", "store.snapshot_s", "s", "lower", "busy seconds in snapshot()"),
    PerLayer("serve.store", "store.compactions", "count", "lower", "store compactions"),
    # --- serve.index
    PerLayer("serve.index", "index.top_k_s", "s", "lower", "busy seconds in top_k()"),
    PerLayer("serve.index", "index.top_k_calls", "count", "lower", "top_k() calls"),
    PerLayer("serve.index", "index.hit_rate", "share", "higher", "cache hits / top_k() calls"),
    PerLayer("serve.index", "index.miss_p50_ms", "ms", "lower", "median top_k() that missed the cache"),
    PerLayer("serve.index", "index.invalidate_s", "s", "lower", "busy seconds in invalidate()"),
    PerLayer("serve.index", "index.invalidated", "count", "lower", "cache entries dropped"),
    # --- serve.service (the facade)
    PerLayer("serve.service", "service.ingest_s", "s", "lower", "busy seconds in ingest()"),
    PerLayer("serve.service", "service.query_s", "s", "lower", "busy seconds in query()"),
    PerLayer("serve.service", "service.query_p50_ms", "ms", "lower", "median query() call (not from its due time)"),
    PerLayer("serve.service", "service.update_s", "s", "lower", "busy seconds in updates (train start -> invalidate end)"),
    PerLayer("serve.service", "service.update_p50_ms", "ms", "lower", "median update"),
    PerLayer("serve.service", "service.update_p99_ms", "ms", "lower", "p99 update (max when fewer than 1000 updates)"),
    PerLayer("serve.service", "service.flush_s", "s", "lower", "busy seconds in flush()"),
    # --- resilience.checkpoint
    PerLayer("resilience.checkpoint", "checkpoint.save_s", "s", "lower", "busy seconds in CheckpointManager.save()"),
    PerLayer("resilience.checkpoint", "checkpoint.saves", "count", "lower", "checkpoints written"),
    PerLayer("resilience.checkpoint", "checkpoint.bytes", "bytes", "lower", "bytes written across checkpoints"),
    PerLayer("resilience.checkpoint", "checkpoint.load_s", "s", "lower", "busy seconds in CheckpointManager.latest()"),
    # --- resilience.recovery
    PerLayer("resilience.recovery", "recovery.replay_s", "s", "lower", "busy seconds in apply_recovered_batch()"),
    PerLayer("resilience.recovery", "recovery.replayed_events", "count", "lower", "accept records replayed per recovery"),
    PerLayer("resilience.recovery", "recovery.replayed_batches", "count", "lower", "batches re-trained per recovery"),
    PerLayer("resilience.recovery", "recovery.replay_eps", "1/s", "higher", "events in replayed batches / replay_s"),
    # --- quality of what is served (this harness)
    PerLayer("quality", "quality.next_event_hit10", "share", "higher", "share of the next target-relation edges whose item is in the served top-10; exact for a seed"),
    # --- obs (this harness)
    PerLayer("obs", "trace.overhead_share", "share", "lower", "spans recorded x the cost of one span (calibrated on a no-op in the same process) / wall of the measured phases"),
]

#: printed under the per-layer table (section 3 of the choosing-metrics guide)
INTERACTION_NOTES = [
    "steady has one worker behind one lock: a faster core.engine saves at most its share of "
    "service.update_p50_ms on visible_p50_ms (the fill wait, 64/300 s / 2 ~ 107 ms, is untouched) "
    "but more than its share on ingest_tail_ms / query_p95_ms, which today are the lock-hold time.",
    "a change to batching or linger moves queue.fill_wait_* and so visible_* on steady, and nothing on backfill.",
    "anything O(num_nodes) (state_dict copies, invalidate(all)) moves read_heavy and peak_rss_mb "
    "long before it moves backfill.",
]


def workload_names() -> List[str]:
    return [w.name for w in WORKLOADS]


def manifest() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/spine/run.py"],
        "paths": ["benchmarks/spine"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
