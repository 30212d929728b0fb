"""Open-loop load generation with queueing-delay attribution.

The serving benchmarks are *closed-loop*: each request waits for the
previous one to finish, so the measured rate is the service's capacity
and queueing delay is structurally invisible.  Real traffic is
*open-loop* — users do not coordinate with the server — and under an
open-loop arrival process latency explodes near saturation in a way a
closed-loop harness cannot show.  This module is the open-loop harness:

* :class:`ArrivalProcess` — seeded arrival schedules (``poisson``,
  ``bursty`` flash crowds, ``ramp``) built on :mod:`repro.utils.rng`:
  the same seed always yields the identical schedule, so load tests are
  replayable.
* :class:`OpenLoopLoadGenerator` — admits one :class:`RequestEnvelope`
  per scheduled arrival *regardless of completion* and hands it to a
  worker thread that drives the
  :class:`~repro.serve.RecommendationService` (optional top-K query,
  then ingest).  Every envelope carries admission → dispatch →
  completion timestamps, so **queue wait** (admission to dispatch: time
  spent waiting behind earlier work) is attributed separately from
  **service time** (dispatch to completion); inside the service the
  ``clock_fn`` stamps extend the chain with per-event batch-buffer wait
  and the train/publish split (``latency.queue_wait_seconds``,
  ``stage.train_seconds``, ``stage.publish_seconds``).
* :class:`LoadReport` — per-tier summary: exact p50/p99/p999 for
  end-to-end, queue-wait and service time (from retained samples),
  the bucketed-histogram view of the same (tail-accurate at any scale),
  and the bucket error between them.

The clock and sleep are injectable (defaults
:func:`time.perf_counter` / :func:`time.sleep`; this module is in the
``obs/`` clock-exemption scope).  A test-supplied fake sleep must
advance its fake clock, otherwise the admission loop cannot make
progress.  Thread-safety: the admission thread and the worker share
only the pending deque (guarded by a condition variable) and the
envelope fields, whose cross-thread visibility is sequenced by the
deque handoff and the final ``join()``.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
)

import numpy as np

from repro.obs.metrics import Histogram, exact_percentile
from repro.utils.rng import derive_seed, new_rng

if TYPE_CHECKING:  # pragma: no cover - typing only; obs must not import serve
    from repro.graph.streams import StreamEdge
    from repro.serve.service import RecommendationService

ARRIVAL_KINDS = ("poisson", "bursty", "ramp")

#: report percentiles: the tails the SLO story is about.
REPORT_PERCENTILES = (50.0, 99.0, 99.9)


@dataclass(frozen=True)
class ArrivalProcess:
    """A seeded open-loop arrival schedule at a fixed offered rate.

    ``offsets(n)`` returns ``n`` non-decreasing arrival times (seconds
    from the start of the run).  It is a pure function of the process
    parameters — a fresh :mod:`repro.utils.rng` generator is derived
    from ``(seed, kind)`` on every call — so the same process always
    produces the identical schedule.

    Kinds:

    * ``poisson`` — memoryless arrivals at ``rate``/s (exponential
      inter-arrival gaps), the standard open-loop traffic model.
    * ``bursty`` — flash crowds: ``num_bursts`` evenly spaced windows
      covering ``burst_fraction`` of the requests arrive at
      ``rate * burst_multiplier``; the rest at ``rate``.
    * ``ramp`` — the instantaneous rate climbs linearly from ``rate``
      to ``rate * ramp_factor`` across the run, sweeping through
      saturation in a single schedule.
    """

    kind: str = "poisson"
    rate: float = 100.0
    seed: int = 0
    burst_multiplier: float = 8.0
    burst_fraction: float = 0.25
    num_bursts: int = 3
    ramp_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.kind!r}; pick one of {ARRIVAL_KINDS}"
            )
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.burst_multiplier < 1.0:
            raise ValueError(
                f"burst_multiplier must be >= 1, got {self.burst_multiplier}"
            )
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError(
                f"burst_fraction must be in (0, 1), got {self.burst_fraction}"
            )
        if self.num_bursts < 1:
            raise ValueError(f"num_bursts must be >= 1, got {self.num_bursts}")
        if self.ramp_factor < 1.0:
            raise ValueError(
                f"ramp_factor must be >= 1, got {self.ramp_factor}"
            )

    def _rates(self, n: int) -> np.ndarray:
        """Instantaneous arrival rate ahead of each of the ``n`` requests."""
        rates = np.full(n, self.rate, dtype=np.float64)
        if self.kind == "bursty":
            per_burst = max(1, int(round(n * self.burst_fraction / self.num_bursts)))
            segment = n / self.num_bursts
            for b in range(self.num_bursts):
                start = int(round(b * segment))
                rates[start : start + per_burst] = self.rate * self.burst_multiplier
        elif self.kind == "ramp":
            rates = np.linspace(
                self.rate, self.rate * self.ramp_factor, num=n, dtype=np.float64
            )
        return rates

    def offsets(self, n: int) -> np.ndarray:
        """``n`` seeded arrival times in seconds (non-decreasing)."""
        if n < 1:
            raise ValueError(f"need at least one arrival, got n={n}")
        rng = new_rng(
            derive_seed(
                self.seed,
                zlib.crc32(b"loadgen"),
                zlib.crc32(self.kind.encode("utf-8")),
            )
        )
        gaps = rng.exponential(1.0, size=n) / self._rates(n)
        return np.cumsum(gaps)


@dataclass
class RequestEnvelope:
    """One offered event with its open-loop stage timestamps."""

    edge: "StreamEdge"
    index: int
    admitted_at: float
    dispatched_at: float = float("nan")
    completed_at: float = float("nan")
    #: the ``ingest()`` call alone (excludes the optional query) — the
    #: producer-visible cost the async-dispatch contract keeps flat
    ingest_seconds: float = float("nan")
    queried: bool = False
    accepted: bool = False
    error: Optional[str] = None

    @property
    def queue_wait_seconds(self) -> float:
        """Admission → dispatch: time spent queued behind earlier work."""
        return self.dispatched_at - self.admitted_at

    @property
    def service_seconds(self) -> float:
        """Dispatch → completion: the service's own processing time."""
        return self.completed_at - self.dispatched_at

    @property
    def latency_seconds(self) -> float:
        """Admission → completion: what the user of an open system sees."""
        return self.completed_at - self.admitted_at


def _stats(values: np.ndarray) -> Dict[str, float]:
    if values.size == 0:
        return {f"p{p:g}": 0.0 for p in REPORT_PERCENTILES} | {
            "mean": 0.0,
            "max": 0.0,
        }
    out = {
        f"p{p:g}": exact_percentile(values, p) for p in REPORT_PERCENTILES
    }
    out["mean"] = float(values.mean())
    out["max"] = float(values.max())
    return out


@dataclass
class LoadReport:
    """Summary of one open-loop run at a fixed offered rate."""

    process: ArrivalProcess
    requests: int
    accepted: int
    queried: int
    errors: int
    duration_seconds: float
    offered_rate: float
    achieved_rate: float
    e2e: Dict[str, float]
    queue_wait: Dict[str, float]
    service: Dict[str, float]
    #: the ``ingest()`` call alone — what a producer pays per event
    ingest_latency: Dict[str, float]
    #: exact per-request end-to-end latencies (the replayed fixture the
    #: HDR bucket-accuracy gate checks against).
    e2e_samples: np.ndarray = field(repr=False)
    queue_wait_samples: np.ndarray = field(repr=False)
    service_samples: np.ndarray = field(repr=False)
    ingest_samples: np.ndarray = field(repr=False)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (samples summarised, not embedded)."""
        return {
            "kind": self.process.kind,
            "seed": self.process.seed,
            "requests": self.requests,
            "accepted": self.accepted,
            "queried": self.queried,
            "errors": self.errors,
            "duration_seconds": self.duration_seconds,
            "offered_rate": self.offered_rate,
            "achieved_rate": self.achieved_rate,
            "e2e": dict(self.e2e),
            "queue_wait": dict(self.queue_wait),
            "service": dict(self.service),
            "ingest_latency": dict(self.ingest_latency),
        }


class OpenLoopLoadGenerator:
    """Drive a service at a fixed offered rate on a worker thread.

    The admission loop (the calling thread) stamps one envelope per
    scheduled arrival and appends it to the pending deque — it never
    waits for the service.  The single worker thread pops envelopes,
    stamps dispatch, optionally issues a top-K query (every
    ``query_every``-th request, or every request routed through a
    ``quality`` evaluator), ingests the event, and stamps completion.
    Latency histograms land in the service's own metrics registry as
    bucketed histograms (``loadgen.e2e_seconds``,
    ``loadgen.queue_wait_seconds``, ``loadgen.service_seconds``).

    ``quality`` is any object with ``observe_event(edge)`` /
    ``observe_publish()`` — see
    :class:`~repro.obs.quality.StreamingQualityEvaluator`.
    """

    def __init__(
        self,
        service: "RecommendationService",
        edges: Sequence["StreamEdge"],
        process: ArrivalProcess,
        k: int = 10,
        query_every: int = 4,
        quality: Optional[object] = None,
        clock_fn: Optional[Callable[[], float]] = None,
        sleep_fn: Optional[Callable[[float], None]] = None,
    ):
        if not edges:
            raise ValueError("load generation needs at least one edge")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if query_every < 1:
            raise ValueError(f"query_every must be >= 1, got {query_every}")
        self.service = service
        self.edges = list(edges)
        self.process = process
        self.k = int(k)
        self.query_every = int(query_every)
        self.quality = quality
        self._clock = clock_fn if clock_fn is not None else time.perf_counter
        self._sleep = sleep_fn if sleep_fn is not None else time.sleep
        self._cond = threading.Condition()
        self._pending: Deque[RequestEnvelope] = deque()
        self._admission_done = False
        metrics = service.metrics
        self.hist_e2e = metrics.histogram("loadgen.e2e_seconds")
        self.hist_queue_wait = metrics.histogram("loadgen.queue_wait_seconds")
        self.hist_service = metrics.histogram("loadgen.service_seconds")

    # ------------------------------------------------------------- worker side

    def _execute(self, env: RequestEnvelope) -> None:
        if self.quality is not None:
            # Hold-out scoring queries the served top-K for the event's
            # user *before* the service learns the event.
            self.quality.observe_event(env.edge)
            env.queried = True
        elif env.index % self.query_every == 0:
            self.service.recommend(int(env.edge.u), self.k)
            env.queried = True
        before = self._clock()
        try:
            env.accepted = bool(self.service.ingest(env.edge))
        finally:
            env.ingest_seconds = self._clock() - before
        if self.quality is not None:
            self.quality.observe_publish()

    def _drain(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._admission_done:
                    self._cond.wait()
                if not self._pending:
                    return
                env = self._pending.popleft()
            env.dispatched_at = self._clock()
            try:
                self._execute(env)
            except Exception as exc:  # shed/backpressure/update failures
                env.error = f"{type(exc).__name__}: {exc}"
            env.completed_at = self._clock()
            self.hist_e2e.observe(env.latency_seconds)
            self.hist_queue_wait.observe(env.queue_wait_seconds)
            self.hist_service.observe(env.service_seconds)

    # ---------------------------------------------------------- admission side

    def run(self) -> LoadReport:
        """Admit every edge on its scheduled arrival; returns the report."""
        offsets = self.process.offsets(len(self.edges))
        envelopes: List[RequestEnvelope] = []
        worker = threading.Thread(
            target=self._drain, name="repro-loadgen-worker", daemon=True
        )
        start = self._clock()
        worker.start()
        for i, edge in enumerate(self.edges):
            target = start + float(offsets[i])
            now = self._clock()
            while now < target:
                self._sleep(target - now)
                now = self._clock()
            env = RequestEnvelope(edge=edge, index=i, admitted_at=now)
            envelopes.append(env)
            with self._cond:
                self._pending.append(env)
                self._cond.notify()
        with self._cond:
            self._admission_done = True
            self._cond.notify()
        worker.join()
        end = self._clock()
        return self._build_report(envelopes, start, end)

    def _build_report(
        self, envelopes: List[RequestEnvelope], start: float, end: float
    ) -> LoadReport:
        e2e = np.asarray([e.latency_seconds for e in envelopes], dtype=np.float64)
        waits = np.asarray(
            [e.queue_wait_seconds for e in envelopes], dtype=np.float64
        )
        service = np.asarray(
            [e.service_seconds for e in envelopes], dtype=np.float64
        )
        # a request that errored before its ingest stamp carries NaN;
        # the ingest distribution is over the calls that happened
        ingest = np.asarray(
            [e.ingest_seconds for e in envelopes], dtype=np.float64
        )
        ingest = ingest[np.isfinite(ingest)]
        duration = end - start
        return LoadReport(
            process=self.process,
            requests=len(envelopes),
            accepted=sum(1 for e in envelopes if e.accepted),
            queried=sum(1 for e in envelopes if e.queried),
            errors=sum(1 for e in envelopes if e.error is not None),
            duration_seconds=duration,
            offered_rate=self.process.rate,
            achieved_rate=len(envelopes) / duration if duration > 0 else 0.0,
            e2e=_stats(e2e),
            queue_wait=_stats(waits),
            service=_stats(service),
            ingest_latency=_stats(ingest),
            e2e_samples=e2e,
            queue_wait_samples=waits,
            service_samples=service,
            ingest_samples=ingest,
        )


def hdr_bucket_error(hist: Histogram, samples: Sequence[float], p: float) -> int:
    """Bucket distance between the bucketed quantile and the exact quantile.

    Replays nothing — compares ``hist.percentile(p)`` against the exact
    rank-based quantile of ``samples`` in bucket-index space.  The
    histogram's accuracy contract is that this is at most 1 for any sample set the
    histogram actually observed.
    """
    exact = exact_percentile(samples, p)
    estimate = hist.percentile(p)
    return abs(hist.bucket_index(estimate) - hist.bucket_index(exact))


def measure_capacity(
    service: "RecommendationService",
    edges: Sequence["StreamEdge"],
    clock_fn: Optional[Callable[[], float]] = None,
) -> float:
    """Closed-loop calibration: events/second ingesting back-to-back.

    Drives ``service`` as fast as it will go (queries excluded) and
    returns the sustained rate — the saturation point an open-loop sweep
    positions its offered-rate tiers around.
    """
    if not edges:
        raise ValueError("capacity measurement needs at least one edge")
    clock = clock_fn if clock_fn is not None else time.perf_counter
    start = clock()
    for edge in edges:
        service.ingest(edge)
    service.flush()
    elapsed = clock() - start
    if elapsed <= 0:
        raise RuntimeError("capacity run finished in zero elapsed time")
    return len(edges) / elapsed


def run_offered_load_sweep(
    service_factory: Callable[[], "RecommendationService"],
    edges: Sequence["StreamEdge"],
    fractions: Sequence[float] = (0.25, 0.5, 2.0),
    kind: str = "poisson",
    seed: int = 0,
    k: int = 10,
    query_every: int = 4,
    clock_fn: Optional[Callable[[], float]] = None,
    sleep_fn: Optional[Callable[[float], None]] = None,
    quality_factory: Optional[Callable[..., object]] = None,
    tier_audit: Optional[Callable[..., None]] = None,
) -> Dict[str, object]:
    """Offered-load sweep: one open-loop tier per capacity fraction.

    First calibrates the service's closed-loop capacity on a throwaway
    instance, then runs each tier at ``fraction * capacity`` offered
    events/second against a *fresh* service (tiers never share model
    state).  Each tier reports exact p50/p99/p999 end-to-end latency
    split into queue wait vs service time, the producer-visible
    ``ingest()`` latency on its own, the ingest/admission ledger
    (accepted/rejected/dropped/shed, controller tallies), the
    service-internal stage percentiles (batch-buffer wait, train,
    publish), the HDR-vs-exact p999 bucket error, and — when
    ``quality_factory`` builds an evaluator per service — the online
    quality summary.

    ``tier_audit(service, tier)`` runs after each tier's run, while its
    service is still open: the hook for reconciliation and replay-parity
    checks (append findings to ``tier["audit"]`` —
    :func:`overload_gate_failures` folds ``tier["audit"]["failures"]``
    into the gate).
    """
    if not fractions:
        raise ValueError("sweep needs at least one offered-rate fraction")
    calibration = service_factory()
    try:
        capacity = measure_capacity(calibration, edges, clock_fn=clock_fn)
    finally:
        calibration.close()
    tiers: List[Dict[str, object]] = []
    for fraction in fractions:
        service = service_factory()
        try:
            quality = quality_factory(service) if quality_factory else None
            process = ArrivalProcess(
                kind=kind, rate=capacity * float(fraction), seed=seed
            )
            generator = OpenLoopLoadGenerator(
                service,
                edges,
                process,
                k=k,
                query_every=query_every,
                quality=quality,
                clock_fn=clock_fn,
                sleep_fn=sleep_fn,
            )
            report = generator.run()
            tier = report.as_dict()
            tier["fraction_of_capacity"] = float(fraction)
            tier["queue_wait_p99_below_service_p99"] = bool(
                report.queue_wait["p99"] < report.service["p99"]
            )
            tier["hdr_p999_bucket_error"] = hdr_bucket_error(
                generator.hist_e2e, report.e2e_samples, 99.9
            )
            metrics = service.metrics
            tier["stages"] = {
                "batch_wait_p99": metrics.histogram(
                    "latency.queue_wait_seconds"
                ).percentile(99.0),
                "train_p99": metrics.histogram("stage.train_seconds").percentile(
                    99.0
                ),
                "publish_p99": metrics.histogram(
                    "stage.publish_seconds"
                ).percentile(99.0),
            }
            queue = service.queue
            tier["ingest"] = {
                "accepted": queue.accepted,
                "rejected": queue.rejected,
                "dropped": queue.dropped,
                "shed": queue.shed,
                "by_reason": queue.deadletters_by_reason(),
            }
            admission = service.admission
            if admission is not None:
                tier["admission"] = dict(admission.counts())
                tier["admission"]["state"] = admission.state
            if quality is not None:
                tier["quality"] = quality.summary()
            if tier_audit is not None:
                tier_audit(service, tier)
            tiers.append(tier)
        finally:
            service.close()
    return {
        "capacity_events_per_second": capacity,
        "arrival": kind,
        "seed": seed,
        "requests_per_tier": len(edges),
        "tiers": tiers,
    }


def sweep_gate_failures(
    sweep: Dict[str, object], max_bucket_error: int = 1
) -> List[str]:
    """The loadtest gate: failure strings (empty = pass).

    Checks the acceptance contract of the sweep: at least three tiers;
    at the lowest sub-saturation tier queueing delay must not dominate
    (queue-wait p99 below service-time p99 — an open system below
    saturation spends its time being served, not waiting); and the HDR
    p999 must sit within ``max_bucket_error`` buckets of the exact
    quantile of the tier's replayed samples.
    """
    failures: List[str] = []
    tiers = sweep.get("tiers", [])
    if len(tiers) < 3:
        failures.append(f"sweep has {len(tiers)} tiers, need >= 3")
    sub_saturation = [t for t in tiers if t["fraction_of_capacity"] < 1.0]
    if not sub_saturation:
        failures.append("sweep has no sub-saturation tier (fraction < 1.0)")
    else:
        lowest = min(sub_saturation, key=lambda t: t["fraction_of_capacity"])
        if not lowest["queue_wait_p99_below_service_p99"]:
            failures.append(
                "sub-saturation tier (fraction "
                f"{lowest['fraction_of_capacity']}) has queue-wait p99 "
                f"{lowest['queue_wait']['p99']:.6f}s >= service-time p99 "
                f"{lowest['service']['p99']:.6f}s"
            )
    for tier in tiers:
        if tier["hdr_p999_bucket_error"] > max_bucket_error:
            failures.append(
                f"tier at fraction {tier['fraction_of_capacity']}: HDR p999 "
                f"is {tier['hdr_p999_bucket_error']} buckets from the exact "
                f"quantile (allowed {max_bucket_error})"
            )
    return failures


def overload_gate_failures(
    sweep: Dict[str, object],
    p99_ratio_max: float = 10.0,
    require_shedding: bool = True,
    ingest_p99_floor: float = 1e-6,
) -> List[str]:
    """The overload gate: failure strings (empty = pass).

    Checks the async-dispatch/admission acceptance contract over a
    sweep that drove past saturation:

    * a past-saturation tier (fraction > 1.0) and a sub-saturation
      reference tier both exist;
    * at every past-saturation tier the producer-visible ``ingest()``
      p99 stays below ``p99_ratio_max`` × the reference tier's — flat
      admission cost: the producer pays the accept/journal decision, not
      the training backlog (the reference p99 is floored at
      ``ingest_p99_floor`` seconds so a sub-microsecond baseline does
      not turn clock noise into a failure);
    * with ``require_shedding``, every past-saturation tier actually
      shed load (``ingest.shed > 0``) — shedding is measured, not
      assumed;
    * any failures a ``tier_audit`` hook recorded (ledger
      reconciliation mismatches, replay-parity breaks) fail the gate
      verbatim.
    """
    failures: List[str] = []
    tiers = sweep.get("tiers", [])
    over = [t for t in tiers if t["fraction_of_capacity"] > 1.0]
    sub = [t for t in tiers if t["fraction_of_capacity"] < 1.0]
    if not over:
        failures.append("sweep has no past-saturation tier (fraction > 1.0)")
    if not sub:
        failures.append("sweep has no sub-saturation tier (fraction < 1.0)")
    reference = (
        min(sub, key=lambda t: t["fraction_of_capacity"]) if sub else None
    )
    for tier in over:
        fraction = tier["fraction_of_capacity"]
        if reference is not None:
            ref_p99 = max(
                reference["ingest_latency"]["p99"], ingest_p99_floor
            )
            p99 = tier["ingest_latency"]["p99"]
            if p99 >= p99_ratio_max * ref_p99:
                failures.append(
                    f"tier at fraction {fraction}: ingest p99 {p99:.6f}s is "
                    f">= {p99_ratio_max:g}x the sub-saturation reference "
                    f"({ref_p99:.6f}s) — admission cost is not flat"
                )
        if require_shedding and tier.get("ingest", {}).get("shed", 0) <= 0:
            failures.append(
                f"tier at fraction {fraction}: shed nothing past "
                "saturation — admission control never engaged"
            )
    for tier in tiers:
        audit = tier.get("audit")
        if isinstance(audit, dict):
            for finding in audit.get("failures", []):
                failures.append(
                    f"tier at fraction {tier['fraction_of_capacity']}: "
                    f"{finding}"
                )
    return failures
