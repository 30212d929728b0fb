"""Figure 7: scalability of SUPA in batch size S_batch.

Measures the average wall-clock time to absorb one batch of S_batch new
edges (training + validation, the full InsLearn step) and the resulting
recommendation quality, sweeping S_batch over powers of two.

Expected shape (paper): per-batch time linear in S_batch (constant
throughput in edges/second) while quality stays flat for
S_batch >= 32.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from harness import BENCH_QUERIES, emit, prepare
from repro.baselines import make_baseline
from repro.baselines.supa_adapter import cpu_schedule
from repro.core import InsLearnConfig
from repro.eval import RankingEvaluator
from repro.utils.tables import format_table

BATCH_SIZES = [32, 64, 128, 256, 512, 1024, 2048]


def run_scalability():
    dataset, train, _, queries = prepare("movielens")
    evaluator = RankingEvaluator(hit_ks=(50,), ndcg_k=10, max_queries=BENCH_QUERIES)
    rows: List[List[object]] = []
    for batch_size in BATCH_SIZES:
        model_cfg, train_cfg = cpu_schedule()
        train_cfg = InsLearnConfig(
            batch_size=batch_size,
            max_iterations=train_cfg.max_iterations,
            validation_interval=train_cfg.validation_interval,
            validation_size=min(train_cfg.validation_size, max(10, batch_size // 8)),
            patience=train_cfg.patience,
        )
        model = make_baseline(
            "SUPA", dataset, config=model_cfg, train_config=train_cfg
        )
        start = time.perf_counter()
        model.fit(train)
        elapsed = time.perf_counter() - start
        num_batches = int(np.ceil(len(train) / batch_size))
        per_batch = elapsed / num_batches
        h50 = evaluator.evaluate(model, queries)["H@50"]
        rows.append(
            [batch_size, per_batch, batch_size / per_batch, h50]
        )
    return rows


def test_fig7_scalability(benchmark):
    rows = benchmark.pedantic(run_scalability, rounds=1, iterations=1)
    text = format_table(
        ["S_batch", "sec/batch", "edges/sec", "H@50"],
        rows,
        title="Figure 7: SUPA scalability in S_batch",
        precision=3,
    )
    emit("fig7_scalability", text)

    # shape assertions: per-batch time grows with batch size, while
    # throughput (edges/sec) stays within an order of magnitude.
    per_batch = [r[1] for r in rows]
    assert per_batch[-1] > per_batch[0]
    throughput = [r[2] for r in rows]
    assert max(throughput) / max(min(throughput), 1e-9) < 10
    benchmark.extra_info["edges/sec @2048"] = rows[-1][2]
