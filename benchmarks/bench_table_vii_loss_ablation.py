"""Table VII: contribution of the three losses + InsLearn effectiveness.

Runs every loss-usage combination of L_inter / L_prop / L_neg (keep one,
drop one), the conventional-training variant SUPA_w/oIns, and full SUPA
on all six datasets, reporting H@50 and MRR.

Expected shape (paper): full SUPA best overall; L_prop the most
important single loss; SUPA_w/oIns comparable on the static Amazon
graph but behind elsewhere (and slower).
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from harness import (
    ALL_DATASETS,
    BENCH_QUERIES,
    emit,
    evaluate_queries,
    prepare,
)
from repro.baselines.supa_adapter import cpu_schedule
from repro.core import SUPA, InsLearnTrainer
from repro.core.inslearn import train_conventional
from repro.core.variants import make_variant
from repro.utils.tables import format_table

VARIANTS = [
    "supa_inter",
    "supa_prop",
    "supa_neg",
    "supa_wo_inter",
    "supa_wo_prop",
    "supa_wo_neg",
    "supa_wo_ins",
    "supa",
]

_ROWS: Dict[str, Dict[str, Dict[str, float]]] = {}


def run_dataset(name: str) -> Dict[str, Dict[str, float]]:
    if name in _ROWS:
        return _ROWS[name]
    dataset, train, _, queries = prepare(name)
    base_cfg, train_cfg = cpu_schedule()
    out: Dict[str, Dict[str, float]] = {}
    for variant in VARIANTS:
        cfg = make_variant(variant, base_cfg)
        model = SUPA.for_dataset(dataset, cfg)
        if variant == "supa_wo_ins":
            train_conventional(model, train, epochs=3)
        else:
            InsLearnTrainer(model, train_cfg).fit(train)
        result = evaluate_queries(model, queries)
        out[variant] = {"H@50": result["H@50"], "MRR": result["MRR"]}
    _ROWS[name] = out
    return out


@pytest.mark.parametrize("dataset_name", ALL_DATASETS)
def test_loss_ablation_dataset(benchmark, dataset_name):
    out = benchmark.pedantic(run_dataset, args=(dataset_name,), rounds=1, iterations=1)
    benchmark.extra_info["supa H@50"] = out["supa"]["H@50"]


def test_render_table_vii(benchmark):
    def render():
        results = {name: run_dataset(name) for name in ALL_DATASETS}
        headers = ["variant"] + [
            f"{d}:{m}" for d in ALL_DATASETS for m in ("H@50", "MRR")
        ]
        rows = []
        for variant in VARIANTS:
            row: List[object] = [variant]
            for d in ALL_DATASETS:
                row.extend(
                    results[d][variant][m] for m in ("H@50", "MRR")
                )
            rows.append(row)
        return format_table(
            headers,
            rows,
            title="Table VII: loss combinations and InsLearn ablation",
            highlight_best=list(range(1, len(headers))),
        )

    text = benchmark.pedantic(render, rounds=1, iterations=1)
    emit("table_vii_loss_ablation", text)
    assert "supa" in text
