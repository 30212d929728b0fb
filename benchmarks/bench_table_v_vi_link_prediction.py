"""Tables V and VI: link prediction, 17 methods x 6 datasets.

Regenerates the paper's headline comparison — H@20/H@50 (Table V) and
NDCG@10/MRR (Table VI) for every method on every dataset, with the
p < 0.01 paired t-test star for SUPA where it beats every baseline.

Expected shape (paper): SUPA best on every dataset; walk-based methods
(DeepWalk/node2vec) are the strongest static family; dynamic
homogeneous methods (NetWalk, DyGNN, DyHATR) are weak on
recommendation; DyHNE is the slowest.
"""

from __future__ import annotations

from typing import Dict

import pytest

from harness import (
    ALL_DATASETS,
    BENCH_QUERIES,
    bench_dataset,
    build_method,
    emit,
    render_metric_table,
)
from repro.eval import LinkPredictionProtocol, paired_t_test
from repro.eval.protocol import ProtocolResult

METHODS = [
    "DeepWalk",
    "LINE",
    "node2vec",
    "GATNE",
    "NGCF",
    "LightGCN",
    "MATN",
    "MB-GMN",
    "HybridGNN",
    "MeLU",
    "NetWalk",
    "DyGNN",
    "EvolveGCN",
    "TGAT",
    "DyHNE",
    "DyHATR",
    "SUPA",
]

_RUNS: Dict[str, Dict[str, ProtocolResult]] = {}


def _run_dataset(name: str) -> Dict[str, ProtocolResult]:
    if name not in _RUNS:
        dataset = bench_dataset(name)
        protocol = LinkPredictionProtocol(max_queries=BENCH_QUERIES)
        _RUNS[name] = {
            m: protocol.run(lambda ds, m=m: build_method(m, ds), dataset)
            for m in METHODS
        }
    return _RUNS[name]


@pytest.mark.parametrize("dataset_name", ALL_DATASETS)
def test_link_prediction_dataset(benchmark, dataset_name):
    """One benchmark per dataset: fit + evaluate all 17 methods."""
    runs = benchmark.pedantic(
        _run_dataset, args=(dataset_name,), rounds=1, iterations=1
    )
    supa = runs["SUPA"]
    for metric in ("H@20", "H@50", "NDCG@10", "MRR"):
        benchmark.extra_info[f"SUPA:{metric}"] = supa.metrics[metric]


def test_render_tables_v_vi(benchmark):
    """Assemble and print the combined Table V + VI from all datasets."""

    def render():
        runs_by_dataset = {name: _run_dataset(name) for name in ALL_DATASETS}
        table_v = render_metric_table(
            "Table V: link prediction H@K", runs_by_dataset, ("H@20", "H@50")
        )
        table_vi = render_metric_table(
            "Table VI: link prediction NDCG@10 / MRR",
            runs_by_dataset,
            ("NDCG@10", "MRR"),
        )
        stars = []
        for name, runs in runs_by_dataset.items():
            supa = runs["SUPA"].evaluation.ranks
            better_than_all = all(
                paired_t_test(supa, r.evaluation.ranks).significant(alpha=0.01)
                for method, r in runs.items()
                if method != "SUPA"
            )
            stars.append(
                f"{name}: SUPA {'significantly best (p<0.01)' if better_than_all else 'not significantly best vs every baseline'}"
            )
        return "\n\n".join([table_v, table_vi, "\n".join(stars)])

    text = benchmark.pedantic(render, rounds=1, iterations=1)
    emit("table_v_vi_link_prediction", text)
    assert "SUPA" in text
