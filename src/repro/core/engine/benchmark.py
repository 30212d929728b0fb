"""Steady-state training-throughput measurement for both engines.

The InsLearn setting the batched engine targets is a model that has
already consumed a long event history: neighbourhoods are dense, so the
per-edge reference path pays O(degree) neighbour scans on every hop
while the batched path answers them from its candidate cache.  The
protocol here makes that regime explicit and reproducible:

1. build a fresh model per engine (identical seeds),
2. insert ``warm_history`` stream edges (graph + interval bookkeeping
   only — no training), replicating the stream when it is shorter,
3. record the next ``batch_size`` edges as one micro-batch,
4. run one untimed warm-up ``train_batch`` (allocator, caches), then
   time ``passes`` replay passes, repeated ``repeats`` times, and keep
   the **median** edges/sec.

Replayed passes are exactly InsLearn's Algorithm 1 inner loop, and both
engines consume identical RNG draw sequences, so the measurement
doubles as a parity check: the warm-up losses must match bitwise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import SUPAConfig
from repro.core.engine.engine import ENGINE_NAMES
from repro.utils.timer import Timer

#: The default synthetic-zoo measurement set.
DEFAULT_DATASETS = ("movielens", "taobao", "kuaishou", "lastfm")


def _steady_state_records(model, dataset, warm_history: int, batch_size: int):
    """Insert ``warm_history`` edges, return the next batch's records."""
    from repro.core.inslearn import _record_and_observe

    edges = list(dataset.stream)
    if not edges:
        raise ValueError(f"dataset {dataset.name!r} has an empty stream")
    need = warm_history + batch_size
    if len(edges) < need:
        # Replicate the stream: repeat interactions are ordinary recsys
        # dynamics and keep densifying neighbourhoods, which is the
        # steady-state regime this benchmark is defined over.
        edges = edges * (need // len(edges) + 1)
    if warm_history:
        _record_and_observe(model, edges[:warm_history])
    return _record_and_observe(model, edges[warm_history : warm_history + batch_size])


def measure_engine(
    dataset,
    engine: str,
    warm_history: int,
    batch_size: int,
    passes: int,
    repeats: int,
    seed: int,
    config: Optional[SUPAConfig] = None,
) -> Dict[str, object]:
    """Median steady-state edges/sec of one engine on ``dataset``.

    Returns ``{"edges_per_second", "warmup_losses"}`` — the warm-up
    pass's per-edge loss array is the cross-engine parity witness.
    """
    from repro.core.model import SUPA

    if engine not in ENGINE_NAMES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}")
    cfg = (config or SUPAConfig(seed=seed)).with_overrides(engine=engine)
    model = SUPA.for_dataset(dataset, config=cfg)
    records = _steady_state_records(model, dataset, warm_history, batch_size)
    warmup_losses = model.train_batch(records)
    rates: List[float] = []
    timer = Timer()
    for _ in range(repeats):
        with timer:
            for _ in range(passes):
                model.train_batch(records)
        rates.append(passes * len(records) / timer.laps[-1])
    return {
        "edges_per_second": float(np.median(rates)),
        "warmup_losses": warmup_losses,
    }


def measure_train_throughput(
    dataset,
    warm_history: int = 16384,
    batch_size: int = 1024,
    passes: int = 2,
    repeats: int = 3,
    seed: int = 7,
    config: Optional[SUPAConfig] = None,
    check_parity: bool = True,
) -> Dict[str, object]:
    """Reference-vs-batched steady-state throughput on one dataset.

    When ``check_parity`` is on (the default), the two engines' warm-up
    loss arrays must be bitwise equal — a speedup measured against a
    numerically different computation would be meaningless.
    """
    results = {
        name: measure_engine(
            dataset, name, warm_history, batch_size, passes, repeats, seed, config
        )
        for name in ("reference", "batched")
    }
    ref = results["reference"]
    bat = results["batched"]
    ref_losses = np.asarray(ref["warmup_losses"], dtype=np.float64)
    bat_losses = np.asarray(bat["warmup_losses"], dtype=np.float64)
    parity = bool(
        np.array_equal(ref_losses, bat_losses)
        and ref_losses.tobytes() == bat_losses.tobytes()
    )
    if check_parity and not parity:
        raise AssertionError(
            f"engine parity violated on {dataset.name!r}: "
            "reference and batched warm-up losses differ"
        )
    ref_eps = ref["edges_per_second"]
    bat_eps = bat["edges_per_second"]
    return {
        "dataset": dataset.name,
        "warm_history": int(warm_history),
        "batch_size": int(batch_size),
        "passes": int(passes),
        "repeats": int(repeats),
        "seed": int(seed),
        "reference_edges_per_second": ref_eps,
        "batched_edges_per_second": bat_eps,
        "speedup": bat_eps / ref_eps,
        "parity": parity,
    }


def collect_train_telemetry(
    dataset,
    warm_history: int = 16384,
    batch_size: int = 1024,
    passes: int = 2,
    seed: int = 7,
    config: Optional[SUPAConfig] = None,
) -> Dict[str, object]:
    """Span tree + engine counters from one traced batched replay.

    Runs *outside* the timed sweeps above: the throughput numbers stay
    untraced while the telemetry pass answers "where does the time go"
    (compile vs execute, per-kernel self-times) and "what did the plan
    contain" (edges, walk steps, negatives, cache hit rate).
    """
    from repro.core.model import SUPA

    cfg = (config or SUPAConfig(seed=seed)).with_overrides(
        engine="batched", trace=True
    )
    model = SUPA.for_dataset(dataset, config=cfg)
    records = _steady_state_records(model, dataset, warm_history, batch_size)
    for _ in range(passes):
        model.train_batch(records)
    return {
        "dataset": dataset.name,
        "trace": model.tracer.as_dict(),
        "metrics": model.tracer.registry.as_dict(),
    }


def measure_zoo(
    dataset_names: Sequence[str] = DEFAULT_DATASETS,
    scale: float = 1.0,
    dataset_seed: int = 3,
    telemetry: bool = False,
    **kwargs,
) -> Dict[str, object]:
    """Run :func:`measure_train_throughput` over the synthetic zoo.

    Returns per-dataset results plus the geometric-mean speedup (the
    aggregate the throughput gate is defined over).  With ``telemetry``
    on, each dataset additionally gets one separate traced batched pass
    (:func:`collect_train_telemetry`) whose span tree and counters ride
    along under ``"telemetry"`` — the timed sweeps themselves are never
    traced.
    """
    from repro.datasets import load_dataset

    per_dataset = []
    per_dataset_telemetry = []
    for name in dataset_names:
        dataset = load_dataset(name, scale=scale, seed=dataset_seed)
        per_dataset.append(measure_train_throughput(dataset, **kwargs))
        if telemetry:
            per_dataset_telemetry.append(
                collect_train_telemetry(
                    dataset,
                    warm_history=kwargs.get("warm_history", 16384),
                    batch_size=kwargs.get("batch_size", 1024),
                    passes=kwargs.get("passes", 2),
                    seed=kwargs.get("seed", 7),
                    config=kwargs.get("config"),
                )
            )
    speedups = np.asarray([r["speedup"] for r in per_dataset], dtype=np.float64)
    summary: Dict[str, object] = {
        "datasets": per_dataset,
        "geomean_speedup": float(np.exp(np.mean(np.log(speedups)))),
        "min_speedup": float(speedups.min()),
        "scale": float(scale),
        "dataset_seed": int(dataset_seed),
    }
    if telemetry:
        summary["telemetry"] = per_dataset_telemetry
    return summary
