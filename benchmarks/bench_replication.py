"""Replication benchmark: read-qps scaling and bounded staleness.

For fleets of 1, 2 and 4 followers, one primary ingests a write
workload while every follower tails its WAL and serves top-K reads
from its own replica (one thread per follower, mirroring the
one-driver-per-replica deployment contract).  Measured:

* **aggregate read qps** across the fleet while writes are in flight —
  replicas scale reads because each serves from its own store/index
  (the scoring path is numpy-bound, so threads overlap);
* **seq lag** — each follower samples ``primary.last_seq -
  follower.applied_seq`` after every poll; p50/p99 must stay within
  this bench's ``LAG_BOUND_RECORDS``;
* **bytes shipped** per follower, from the tailer.

Reads are served cache-less here (``cache_size=0``) so every probe
pays the full scoring cost — the honest per-read price, and the
regime where extra replicas matter.  Results land in
``benchmarks/results/replication.json``; the gate is the staleness
bound (scaling factors are recorded for inspection — wall-clock
ratios on a loaded CI box are too noisy to gate on).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from typing import Dict, List

import numpy as np

from harness import BENCH_SCALE, RESULTS_DIR, emit
from repro.core import InsLearnConfig, SUPAConfig
from repro.datasets import load_dataset
from repro.replicate import ReplicationFollower, ReplicationPrimary
from repro.serve import ServeConfig
from repro.utils.tables import format_table

DATASET = "uci"
BATCH_SIZE = 64
K = 10
WARMUP_FRACTION = 0.4
FLEETS = (1, 2, 4)
LAG_BOUND_RECORDS = 1024  # the staleness gate: seq-lag p99 must stay within it
JSON_PATH = os.path.join(RESULTS_DIR, "replication.json")


def _configs(seed: int = 0):
    serve_cfg = ServeConfig(
        batch_size=BATCH_SIZE,
        capacity=512,
        overflow="drop_new",
        late_tolerance=0.0,
        cache_size=0,
        checkpoint_every=4,
    )
    model_cfg = SUPAConfig(dim=32, num_walks=2, walk_length=2, seed=seed)
    train_cfg = InsLearnConfig(
        batch_size=BATCH_SIZE,
        max_iterations=2,
        validation_interval=1,
        validation_size=25,
        patience=1,
        seed=seed,
    )
    return serve_cfg, model_cfg, train_cfg


class _Reader(threading.Thread):
    """One follower replica: poll the shipped WAL, serve reads, sample lag."""

    def __init__(self, follower: ReplicationFollower, primary, stop, k: int):
        super().__init__(daemon=True)
        self.follower = follower
        self.primary = primary
        self.stop = stop
        self.k = k
        self.reads = 0
        self.lag_samples: List[int] = []

    def run(self) -> None:
        users = self.follower.service.users
        cursor = 0
        while not self.stop.is_set():
            self.follower.poll()
            self.lag_samples.append(
                self.follower.lag_from(self.primary.last_seq)
            )
            for _ in range(4):
                user = int(users[cursor % users.size])
                cursor += 1
                self.follower.recommend(user, self.k)
                self.reads += 1
        # final drain: apply everything the writer shipped
        while self.follower.poll():
            pass
        self.lag_samples.append(self.follower.lag_from(self.primary.last_seq))


def _measure_fleet(dataset, num_followers: int, seed: int = 0) -> Dict[str, object]:
    serve_cfg, model_cfg, train_cfg = _configs(seed)
    stream = list(dataset.stream)
    warmup = max(1, int(len(stream) * WARMUP_FRACTION))
    state_dir = tempfile.mkdtemp(prefix="repro-bench-replication-")
    try:
        primary = ReplicationPrimary(
            dataset,
            state_dir,
            serve_config=serve_cfg,
            model_config=model_cfg,
            train_config=train_cfg,
            heartbeat_every=32,
        )
        for edge in stream[:warmup]:
            primary.ingest(edge)
        primary.checkpoint()

        followers = [
            ReplicationFollower(
                dataset,
                state_dir,
                serve_config=serve_cfg,
                model_config=model_cfg,
                train_config=train_cfg,
            ).bootstrap()
            for _ in range(num_followers)
        ]
        stop = threading.Event()
        readers = [_Reader(f, primary, stop, K) for f in followers]

        start = time.perf_counter()
        for reader in readers:
            reader.start()
        for edge in stream[warmup:]:
            primary.ingest(edge)
        primary.flush()
        stop.set()
        for reader in readers:
            reader.join()
        elapsed = time.perf_counter() - start
        primary.close()

        reads = sum(r.reads for r in readers)
        lags = np.concatenate(
            [np.asarray(r.lag_samples, dtype=np.int64) for r in readers]
        )
        bytes_shipped = sum(
            int(f.tailer.bytes_read) for f in followers if f.tailer
        )
        applied = [f.applied_seq for f in followers]
        return {
            "followers": num_followers,
            "write_events": len(stream) - warmup,
            "reads": int(reads),
            "read_qps": reads / elapsed if elapsed else 0.0,
            "elapsed_seconds": elapsed,
            "lag_p50": float(np.percentile(lags, 50)),
            "lag_p99": float(np.percentile(lags, 99)),
            "lag_max": int(lags.max()),
            "lag_bound": LAG_BOUND_RECORDS,
            "within_bound": bool(np.percentile(lags, 99) <= LAG_BOUND_RECORDS),
            "final_drain_complete": bool(
                all(seq == primary.last_seq for seq in applied)
            ),
            "bytes_shipped": bytes_shipped,
        }
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


def run_replication_benchmark() -> Dict[str, object]:
    dataset = load_dataset(DATASET, scale=min(BENCH_SCALE, 0.5))
    fleets = [_measure_fleet(dataset, n) for n in FLEETS]
    base_qps = fleets[0]["read_qps"] or 1.0
    for row in fleets:
        row["qps_scaling_vs_1"] = row["read_qps"] / base_qps
    return {
        "dataset": DATASET,
        "num_events": len(dataset.stream),
        "batch_size": BATCH_SIZE,
        "k": K,
        "fleets": fleets,
        "all_within_bound": all(r["within_bound"] for r in fleets),
        "all_drained": all(r["final_drain_complete"] for r in fleets),
    }


def main() -> int:
    summary = run_replication_benchmark()
    rows = [
        [
            r["followers"],
            r["reads"],
            round(r["read_qps"], 1),
            round(r["qps_scaling_vs_1"], 2),
            round(r["lag_p50"], 1),
            round(r["lag_p99"], 1),
            r["lag_bound"],
            "yes" if r["within_bound"] else "NO",
        ]
        for r in summary["fleets"]
    ]
    text = format_table(
        [
            "followers", "reads", "read qps", "scaling", "lag p50",
            "lag p99", "bound", "within bound",
        ],
        rows,
        title=(
            f"WAL-shipping replication on {summary['dataset']} "
            f"({summary['num_events']} events, S={summary['batch_size']}, "
            f"k={summary['k']}, cache off)"
        ),
    )
    emit("replication", text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {JSON_PATH}")
    return 0 if summary["all_within_bound"] and summary["all_drained"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
