"""Figure 6: robustness to neighbourhood disturbance (recency cap eta).

Each node keeps only its latest eta neighbours
(eta in {5, 10, 20, 50, 100, inf}), simulating the memory-constrained
platform of the paper's motivation.  Models train on the capped graph.

Expected shape (paper): SUPA best and nearly flat across eta (its
propagation architecture does not aggregate neighbourhoods);
EvolveGCN also flat; neighbour-aggregation baselines vary with eta.
"""

from __future__ import annotations

from typing import Dict, Optional

from harness import BENCH_QUERIES, bench_dataset, build_method, emit
from repro.baselines import make_baseline
from repro.baselines.registry import STRONG_BASELINES
from repro.baselines.supa_adapter import cpu_schedule
from repro.eval import NeighborhoodDisturbanceProtocol
from repro.eval.protocol import ProtocolResult
from repro.utils.tables import format_table

ETAS = [5, 10, 20, 50, 100, None]  # None = no cap (infinity)
METHODS = STRONG_BASELINES + ["SUPA"]
PROTOCOL = NeighborhoodDisturbanceProtocol(etas=ETAS, max_queries=BENCH_QUERIES)


def _factory(name: str):
    """``(dataset, eta) -> model``: every method trains on the capped
    stream, and SUPA also runs its walks on a graph capped at eta."""
    if name != "SUPA":
        return lambda dataset, eta: build_method(name, dataset)

    def supa(dataset, eta):
        model_cfg, train_cfg = cpu_schedule()
        return make_baseline(
            "SUPA", dataset, config=model_cfg, train_config=train_cfg, max_neighbors=eta
        )

    return supa


def run_disturbance_protocol() -> Dict[str, Dict[Optional[int], ProtocolResult]]:
    dataset = bench_dataset("movielens")
    return {name: PROTOCOL.run(_factory(name), dataset) for name in METHODS}


def test_fig6_neighborhood_disturbance(benchmark):
    results = benchmark.pedantic(run_disturbance_protocol, rounds=1, iterations=1)
    headers = ["method"] + [str(e) if e else "inf" for e in ETAS] + ["spread"]
    rows = [
        [name]
        + [results[name][eta]["H@50"] for eta in ETAS]
        + [PROTOCOL.sensitivity(results[name], "H@50")]
        for name in METHODS
    ]
    text = format_table(
        headers,
        rows,
        title="Figure 6: H@50 under neighbour cap eta (spread = max - min)",
    )
    emit("fig6_neighborhood_disturbance", text)

    supa = [results["SUPA"][eta]["H@50"] for eta in ETAS]
    assert min(supa) > 0
    benchmark.extra_info["SUPA spread"] = PROTOCOL.sensitivity(results["SUPA"], "H@50")
