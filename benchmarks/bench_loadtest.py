"""Open-loop offered-load sweep: latency tails with queueing attribution.

Unlike a closed loop (each event waits for the previous one, so
queueing delay is structurally invisible), this harness drives the serving stack **open-loop** through
:mod:`repro.obs.loadgen`: seeded Poisson arrivals at fixed fractions of
the service's calibrated closed-loop capacity.  Each tier reports
p50/p99/p999 end-to-end latency split into queue wait (admission →
dispatch) vs service time (dispatch → completion), the
service-internal stage percentiles (batch-buffer wait, train, publish)
and the HDR-vs-exact p999 bucket error.

The run must pass the loadtest gate
(:func:`repro.obs.loadgen.sweep_gate_failures`): >= 3 tiers, the
lowest sub-saturation tier keeps queue-wait p99 below service-time
p99, and every tier's HDR p999 sits within one bucket of the exact
quantile of its replayed samples.  The sweep is persisted to
``benchmarks/results/loadtest.json``.

A second sweep (``test_overload``) turns on async dispatch + admission
control and drives a 2x-capacity tier past saturation, gated on the
overload contract (:func:`repro.obs.loadgen.overload_gate_failures`):
the producer-visible ``ingest()`` p99 stays within 10x the
sub-saturation reference (flat admission cost — the producer pays the
journaled accept decision, not the training backlog) and the
past-saturation tier measurably sheds load.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

from harness import BENCH_SCALE, RESULTS_DIR, emit
from repro.core import SUPAConfig
from repro.core.model import SUPA
from repro.datasets import load_dataset
from repro.obs.loadgen import (
    overload_gate_failures,
    run_offered_load_sweep,
    sweep_gate_failures,
)
from repro.obs.quality import StreamingQualityEvaluator
from repro.serve import (
    AdmissionConfig,
    RecommendationService,
    ServeConfig,
)
from repro.utils.tables import format_table

DATASET = "uci"
K = 10
DIM = 32
BATCH_SIZE = 64
EVENTS = 400
#: offered-load tiers as fractions of closed-loop capacity.  The lowest
#: tier must sit well below the batch-update duty cycle: at fraction f
#: of capacity roughly f of all arrivals land while a batch update is
#: running, so queue-wait p99 approaches the update duration (and the
#: gate's "queueing must not dominate below saturation" check loses its
#: margin) once f nears 0.01 / (1 - p99 target).
TIERS = [0.02, 0.5, 2.0]
#: the overload sweep needs only a reference tier and a past-saturation
#: tier; a small capacity makes the depth watermarks reachable within
#: EVENTS arrivals so shedding actually engages.
OVERLOAD_TIERS = [0.25, 2.0]
OVERLOAD_CAPACITY = 256
JSON_PATH = os.path.join(RESULTS_DIR, "loadtest.json")
OVERLOAD_JSON_PATH = os.path.join(RESULTS_DIR, "loadtest_overload.json")


def _make_service(dataset) -> RecommendationService:
    model = SUPA.for_dataset(
        dataset,
        config=SUPAConfig(dim=DIM, num_walks=2, walk_length=2, seed=0),
    )
    return RecommendationService(
        dataset,
        model=model,
        config=ServeConfig(
            batch_size=BATCH_SIZE,
            capacity=4096,
            overflow="drop_new",
            clock_fn=time.perf_counter,
        ),
    )


def _make_overload_service(dataset) -> RecommendationService:
    model = SUPA.for_dataset(
        dataset,
        config=SUPAConfig(dim=DIM, num_walks=2, walk_length=2, seed=0),
    )
    return RecommendationService(
        dataset,
        model=model,
        config=ServeConfig(
            batch_size=BATCH_SIZE,
            capacity=OVERLOAD_CAPACITY,
            overflow="drop_new",
            clock_fn=time.perf_counter,
            async_dispatch=True,
            # the lowest watermarks one 64-event batch fits under
            admission=AdmissionConfig(depth_highwater=0.5, depth_lowwater=0.25),
        ),
    )


def run_loadtest() -> Dict[str, object]:
    dataset = load_dataset(DATASET, scale=min(BENCH_SCALE, 0.1), seed=0)
    edges = list(dataset.stream)[:EVENTS]
    sweep = run_offered_load_sweep(
        lambda: _make_service(dataset),
        edges,
        fractions=TIERS,
        kind="poisson",
        seed=0,
        k=K,
        quality_factory=lambda service: StreamingQualityEvaluator(service, k=K),
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump(sweep, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sweep


def test_loadtest(benchmark):
    sweep = benchmark.pedantic(run_loadtest, rounds=1, iterations=1)
    rows: List[List[object]] = [
        [
            f"{tier['fraction_of_capacity']:g}x",
            tier["offered_rate"],
            tier["achieved_rate"],
            tier["e2e"]["p50"] * 1e3,
            tier["e2e"]["p99"] * 1e3,
            tier["e2e"]["p99.9"] * 1e3,
            tier["queue_wait"]["p99"] * 1e3,
            tier["service"]["p99"] * 1e3,
            tier["hdr_p999_bucket_error"],
            tier["quality"]["hit_rate"],
        ]
        for tier in sweep["tiers"]
    ]
    text = format_table(
        [
            "tier",
            "offered/s",
            "achieved/s",
            "e2e p50 ms",
            "e2e p99 ms",
            "e2e p999 ms",
            "qwait p99 ms",
            "svc p99 ms",
            "p999 Δbkt",
            "hit rate",
        ],
        rows,
        title=(
            f"Open-loop load sweep ({DATASET}, poisson, capacity "
            f"{sweep['capacity_events_per_second']:.0f} events/s)"
        ),
        precision=3,
    )
    emit("loadtest", text)

    failures = sweep_gate_failures(sweep)
    assert not failures, "; ".join(failures)
    assert os.path.exists(JSON_PATH)
    benchmark.extra_info["capacity_events_per_second"] = sweep[
        "capacity_events_per_second"
    ]


def run_overload() -> Dict[str, object]:
    dataset = load_dataset(DATASET, scale=min(BENCH_SCALE, 0.1), seed=0)
    edges = list(dataset.stream)[:EVENTS]
    sweep = run_offered_load_sweep(
        lambda: _make_overload_service(dataset),
        edges,
        fractions=OVERLOAD_TIERS,
        kind="poisson",
        seed=0,
        k=K,
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(OVERLOAD_JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump(sweep, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sweep


def test_overload(benchmark):
    sweep = benchmark.pedantic(run_overload, rounds=1, iterations=1)
    rows: List[List[object]] = [
        [
            f"{tier['fraction_of_capacity']:g}x",
            tier["offered_rate"],
            tier["achieved_rate"],
            tier["e2e"]["p99"] * 1e3,
            tier["ingest_latency"]["p50"] * 1e3,
            tier["ingest_latency"]["p99"] * 1e3,
            tier["ingest"]["shed"],
            tier["admission"]["escalations"],
        ]
        for tier in sweep["tiers"]
    ]
    text = format_table(
        [
            "tier",
            "offered/s",
            "achieved/s",
            "e2e p99 ms",
            "ingest p50 ms",
            "ingest p99 ms",
            "shed",
            "escalations",
        ],
        rows,
        title=(
            f"Overload sweep ({DATASET}, async dispatch + admission, "
            f"capacity {sweep['capacity_events_per_second']:.0f} events/s)"
        ),
        precision=3,
    )
    emit("loadtest_overload", text)

    failures = overload_gate_failures(sweep)
    assert not failures, "; ".join(failures)
    over = [t for t in sweep["tiers"] if t["fraction_of_capacity"] > 1.0]
    assert all(t["ingest"]["shed"] > 0 for t in over)
    assert os.path.exists(OVERLOAD_JSON_PATH)
