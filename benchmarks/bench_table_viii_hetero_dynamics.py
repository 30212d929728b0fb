"""Table VIII: benefits of modelling multiplex heterogeneity and
streaming dynamics.

Runs the six targeted ablations on the two most multiplex datasets
(Taobao- and Kuaishou-like): SUPA_sn (shared alpha), SUPA_se (shared
context), SUPA_s (both), SUPA_nf (no short-term memory), SUPA_nd (no
propagation decay/filter), SUPA_nt (no time components), plus full SUPA.

Expected shape (paper): full SUPA best; SUPA_s and SUPA_nt the worst of
their respective groups.
"""

from __future__ import annotations

from typing import Dict

from harness import emit, evaluate_queries, prepare
from repro.baselines.supa_adapter import cpu_schedule
from repro.core import SUPA, InsLearnTrainer
from repro.core.variants import make_variant
from repro.utils.tables import format_table

DATASETS = ["taobao", "kuaishou"]
VARIANTS = ["supa_sn", "supa_se", "supa_s", "supa_nf", "supa_nd", "supa_nt", "supa"]


def run_table_viii():
    base_cfg, train_cfg = cpu_schedule()
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in DATASETS:
        dataset, train, _, queries = prepare(name)
        per_variant = {}
        for variant in VARIANTS:
            model = SUPA.for_dataset(dataset, make_variant(variant, base_cfg))
            InsLearnTrainer(model, train_cfg).fit(train)
            result = evaluate_queries(model, queries)
            per_variant[variant] = {"H@50": result["H@50"], "MRR": result["MRR"]}
        results[name] = per_variant
    return results


def test_table_viii_hetero_dynamics(benchmark):
    results = benchmark.pedantic(run_table_viii, rounds=1, iterations=1)
    headers = ["variant"] + [
        f"{d}:{m}" for d in DATASETS for m in ("H@50", "MRR")
    ]
    rows = []
    for variant in VARIANTS:
        row = [variant]
        for d in DATASETS:
            row.extend(results[d][variant][m] for m in ("H@50", "MRR"))
        rows.append(row)
    text = format_table(
        headers,
        rows,
        title="Table VIII: heterogeneity / dynamics ablations",
        highlight_best=list(range(1, len(headers))),
    )
    emit("table_viii_hetero_dynamics", text)
    for d in DATASETS:
        assert results[d]["supa"]["MRR"] > 0
    benchmark.extra_info["supa taobao MRR"] = results["taobao"]["supa"]["MRR"]
