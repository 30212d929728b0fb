"""Figure 8: parameter sensitivity of SUPA and InsLearn.

Sweeps the five model hyper-parameters (d, k, l, N_neg, and tau at
g(tau) = 0.1 / 0.3 / 0.5) and the five workflow hyper-parameters
(N_iter, I_valid, S_valid, mu, S_batch) one at a time around the
calibrated defaults, on the UCI- and Taobao-like datasets (the two
smallest).

Expected shape (paper): quality saturates at moderate d; k and l are
dataset-dependent; N_neg = 5 and g(tau) = 0.3 adequate everywhere;
workflow parameters are insensitive except very small S_batch.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from harness import emit, evaluate_queries, prepare
from repro.baselines import make_baseline
from repro.baselines.supa_adapter import cpu_schedule
from repro.core import InsLearnConfig, SUPAConfig, tau_from_g
from repro.utils.tables import format_table

DATASETS = ["uci", "taobao"]

MODEL_SWEEPS: Dict[str, List[object]] = {
    "dim": [8, 16, 32, 64],
    "num_walks": [1, 2, 4, 8],
    "walk_length": [1, 2, 3, 5],
    "num_negatives": [1, 3, 5, 7],
    "tau": [tau_from_g(g) for g in (0.1, 0.3, 0.5)],
}

WORKFLOW_SWEEPS: Dict[str, List[object]] = {
    "max_iterations": [2, 4, 8, 16],
    "validation_interval": [1, 2, 4, 8],
    "validation_size": [30, 100, 150],
    "patience": [0, 1, 3],
    "batch_size": [16, 64, 256, 1024],
}


def _fit_and_score(dataset, train, queries, model_cfg, train_cfg) -> float:
    model = make_baseline("SUPA", dataset, dim=model_cfg.dim,
                          config=model_cfg, train_config=train_cfg)
    model.fit(train)
    return evaluate_queries(model, queries)["H@50"]


def run_sensitivity(dataset_name: str) -> List[Tuple[str, object, float]]:
    dataset, train, _, queries = prepare(dataset_name)
    base_model, base_train = cpu_schedule()
    rows: List[Tuple[str, object, float]] = []
    for param, values in MODEL_SWEEPS.items():
        for value in values:
            cfg = base_model.with_overrides(**{param: value})
            rows.append((param, value, _fit_and_score(dataset, train, queries, cfg, base_train)))
    for param, values in WORKFLOW_SWEEPS.items():
        for value in values:
            kwargs = {
                "batch_size": base_train.batch_size,
                "max_iterations": base_train.max_iterations,
                "validation_interval": base_train.validation_interval,
                "validation_size": base_train.validation_size,
                "patience": base_train.patience,
            }
            kwargs[param] = value
            if param == "batch_size":
                kwargs["validation_size"] = min(
                    kwargs["validation_size"], max(4, value // 4)
                )
            tcfg = InsLearnConfig(**kwargs)
            rows.append((param, value, _fit_and_score(dataset, train, queries, base_model, tcfg)))
    return rows


@pytest.mark.parametrize("dataset_name", DATASETS)
def test_fig8_parameter_sensitivity(benchmark, dataset_name):
    rows = benchmark.pedantic(
        run_sensitivity, args=(dataset_name,), rounds=1, iterations=1
    )
    text = format_table(
        ["parameter", "value", "H@50"],
        [[p, str(v), s] for p, v, s in rows],
        title=f"Figure 8 ({dataset_name}): parameter sensitivity (H@50)",
    )
    emit(f"fig8_parameter_sensitivity_{dataset_name}", text)
    assert all(s >= 0 for _, _, s in rows)
