"""Shared machinery for the paper-reproduction benchmarks.

Each ``bench_*.py`` module regenerates one table or figure of the
paper's evaluation section.  This module centralises:

* CPU-scale method configurations (the paper used a GPU; step counts
  and dimensions are shrunk so a full table finishes in minutes while
  preserving each method's mechanism),
* dataset/evaluation sizing via environment knobs
  (``REPRO_BENCH_SCALE``, ``REPRO_BENCH_QUERIES``),
* the split and evaluator the SUPA-variant benches share (Tables V/VI
  and Figures 4-6 run :mod:`repro.eval.protocol` instead), and
* result persistence: every harness prints its paper-style table and
  writes it under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

from repro.baselines import make_baseline
from repro.baselines.base import BaselineModel
from repro.baselines.supa_adapter import cpu_schedule
from repro.datasets import load_dataset
from repro.datasets.base import Dataset
from repro.eval import RankingEvaluator
from repro.eval.protocol import ProtocolResult
from repro.eval.ranking import EvaluationResult, RankingQuery
from repro.utils.tables import format_table

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
BENCH_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "120"))
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

ALL_DATASETS = ["uci", "amazon", "lastfm", "movielens", "taobao", "kuaishou"]

#: CPU-scale constructor arguments per method (mechanism unchanged).
METHOD_KWARGS: Dict[str, dict] = {
    "DeepWalk": dict(num_walks=3, walk_length=6, epochs=1),
    "LINE": dict(samples_per_edge=3),
    "node2vec": dict(num_walks=3, walk_length=6, epochs=1),
    "GATNE": dict(num_walks=2, walk_length=6, epochs=1),
    "NGCF": dict(steps=150),
    "LightGCN": dict(steps=200),
    "MATN": dict(steps=150),
    "MB-GMN": dict(steps=150),
    "HybridGNN": dict(steps=150),
    "MeLU": dict(global_steps=1200),
    "NetWalk": dict(num_walks=2, walk_length=5),
    "DyGNN": dict(),
    "EvolveGCN": dict(steps=80, num_snapshots=3),
    "TGAT": dict(steps=200),
    "DyHNE": dict(),
    "DyHATR": dict(steps=60, num_snapshots=3),
    "SUPA": dict(),
}


def build_method(
    name: str,
    dataset: Dataset,
    dim: int = 32,
    seed: int = 0,
    steps_scale: float = 1.0,
) -> BaselineModel:
    """Instantiate a method with its CPU-scale configuration.

    ``steps_scale`` multiplies iterative training budgets (``steps``,
    ``global_steps``) — the dynamic protocol uses it so a *retrained*
    baseline's cost grows with the data it retrains on, as
    training-to-convergence does in the paper's setup.
    """
    kwargs = dict(METHOD_KWARGS.get(name, {}))
    if steps_scale != 1.0:
        for key in ("steps", "global_steps"):
            if key in kwargs:
                kwargs[key] = max(1, int(round(kwargs[key] * steps_scale)))
    if name == "SUPA":
        model_cfg, train_cfg = cpu_schedule(dim=dim, seed=seed)
        kwargs.update(config=model_cfg, train_config=train_cfg)
    return make_baseline(name, dataset, dim=dim, seed=seed, **kwargs)


def bench_dataset(name: str) -> Dataset:
    """Dataset ``name`` at the bench scale (seed 0)."""
    return load_dataset(name, scale=BENCH_SCALE, seed=0)


def prepare(name: str):
    """Dataset + (train, valid, test) split + its test queries."""
    dataset = bench_dataset(name)
    train, valid, test = dataset.split()
    return dataset, train, valid, dataset.ranking_queries(test)


def evaluate_queries(
    model: BaselineModel, queries: Sequence[RankingQuery]
) -> EvaluationResult:
    evaluator = RankingEvaluator(hit_ks=(20, 50), ndcg_k=10, max_queries=BENCH_QUERIES)
    return evaluator.evaluate(model, queries)


def emit(name: str, text: str) -> None:
    """Print a harness table and persist it under benchmarks/results/."""
    print("\n" + text + "\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def render_metric_table(
    title: str,
    runs_by_dataset: Dict[str, Dict[str, ProtocolResult]],
    metrics: Sequence[str],
) -> str:
    """Rows = methods, column groups = datasets x metrics."""
    datasets = list(runs_by_dataset)
    headers = ["method"] + [f"{d}:{m}" for d in datasets for m in metrics]
    rows = []
    for method in runs_by_dataset[datasets[0]]:
        row: List[object] = [method]
        for d in datasets:
            row.extend(runs_by_dataset[d][method].metrics[m] for m in metrics)
        rows.append(row)
    highlight = list(range(1, len(headers)))
    return format_table(headers, rows, title=title, highlight_best=highlight)
