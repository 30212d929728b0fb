"""Seeded fault injection: the deterministic chaos replay harness.

A :class:`FaultPlan` schedules faults at stream positions drawn from a
:mod:`repro.utils.rng` generator, so a (dataset, seed) pair always
produces the same chaos run.  A :class:`FaultInjector` executes the plan
from inside :meth:`StreamReplayDriver.replay_stream
<repro.serve.replay.StreamReplayDriver.replay_stream>` — the one replay
loop — and then **reconciles**: every injected fault must be accounted
for in the queue's deadletter buckets, the service's
``faults.injected.*`` counters, or the injector's own acceptance ledger
— ``injected == observed``, per fault type, or the report lists the
mismatches and flags itself unreconciled.  :class:`ChaosReplayDriver`
is the single-node caller (a ``crash`` recovers from WAL + checkpoints);
:class:`~repro.replicate.failover.FailoverDriver` is the two-node one
(a ``crash`` kills the primary and promotes the follower).

Fault taxonomy (see :data:`FAULT_KINDS`):

``malformed``
    A structurally invalid event (non-integer id, out-of-universe id,
    unknown edge type, NaN timestamp) → must land in the ``malformed``
    deadletter bucket.
``late``
    A timestamp behind the watermark by more than the configured
    ``late_tolerance`` → must land in the ``late event`` bucket.
``duplicate``
    An exact re-send of the last accepted event (same timestamp) →
    must be *accepted* (dedup is not the queue's contract; learning is
    robust to repeats).
``burst``
    ``payload`` copies of the last accepted event offered while
    dispatch is paused — a backpressure spike; overflow sheds must
    equal the ``backpressure`` bucket growth.
``crash``
    The service is dropped on the floor mid-stream and replaced by
    whatever the driver's ``on_crash`` builds (a recovered service, a
    promoted follower); its externally-visible tallies are banked
    first so reconciliation spans process lives.

Accounting across crashes: replayed WAL-suffix events bypass the new
queue's ``put`` (they were already counted before the crash), so
``banked + final`` tallies never double count — provided bursts shed
with ``drop_new`` (the driver's default), which keeps shed events out
of the WAL entirely.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.config import SUPAConfig
from repro.core.inslearn import InsLearnConfig
from repro.datasets.base import Dataset
from repro.graph.streams import StreamEdge
from repro.resilience.recovery import recover
from repro.serve.replay import JsonReport, StreamReplayDriver
from repro.serve.service import RecommendationService, ServeConfig
from repro.utils.rng import derive_seed, new_rng

#: the five injectable fault kinds
FAULT_KINDS = ("malformed", "late", "duplicate", "burst", "crash")

#: malformed-event variants cycled by the plan's payload
_MALFORMED_VARIANTS = 4


@dataclass(frozen=True)
class Fault:
    """One scheduled fault, injected just before stream ``position``.

    ``payload`` is kind-specific: the malformed variant index, the
    late-event extra offset, or the burst size.
    """

    kind: str
    position: int
    payload: int = 0


@dataclass
class FaultPlan:
    """A deterministic schedule of faults over one stream replay."""

    faults: List[Fault] = field(default_factory=list)

    def at(self, position: int) -> List[Fault]:
        """Faults scheduled immediately before stream ``position``."""
        return [f for f in self.faults if f.position == position]

    def injection_counts(self) -> Dict[str, int]:
        """Events each kind will inject (bursts count ``payload`` each)."""
        counts = {kind: 0 for kind in FAULT_KINDS}
        for fault in self.faults:
            counts[fault.kind] += fault.payload if fault.kind == "burst" else 1
        return counts

    @staticmethod
    def parse_spec(spec: str) -> Dict[str, int]:
        """Parse a CLI fault spec like ``"malformed=4,late=3,crash=1"``.

        ``""`` and ``"none"`` mean no faults.  Unknown kinds or
        non-integer counts raise ``ValueError``.
        """
        counts: Dict[str, int] = {}
        spec = spec.strip()
        if not spec or spec == "none":
            return counts
        for part in spec.split(","):
            name, _, value = part.partition("=")
            name = name.strip()
            if name not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {name!r} (choose from {FAULT_KINDS})"
                )
            try:
                count = int(value)
            except ValueError as exc:
                raise ValueError(
                    f"fault spec {part!r} needs an integer count"
                ) from exc
            if count < 0:
                raise ValueError(f"fault count must be >= 0 in {part!r}")
            counts[name] = counts.get(name, 0) + count
        return counts

    @classmethod
    def seeded(
        cls,
        num_events: int,
        seed: int = 0,
        malformed: int = 0,
        late: int = 0,
        duplicate: int = 0,
        burst: int = 0,
        crash: int = 0,
        burst_size: int = 96,
    ) -> "FaultPlan":
        """Draw a plan with the given per-kind fault counts.

        Positions are distinct and start at 1 so every fault has a
        template event (the last accepted one) to mutate.
        """
        total = malformed + late + duplicate + burst + crash
        if num_events < 2 and total:
            raise ValueError("need at least 2 stream events to inject faults")
        if total > num_events - 1:
            raise ValueError(
                f"{total} faults do not fit in {num_events - 1} injectable "
                "positions"
            )
        # salt the plan's stream away from any model/trainer seed usage
        rng = new_rng(derive_seed(seed, 0xFA017, num_events))
        positions = rng.choice(
            np.arange(1, num_events, dtype=np.int64), size=total, replace=False
        )
        faults: List[Fault] = []
        cursor = 0
        for kind, count in (
            ("malformed", malformed),
            ("late", late),
            ("duplicate", duplicate),
            ("burst", burst),
            ("crash", crash),
        ):
            for _ in range(count):
                position = int(positions[cursor])
                cursor += 1
                if kind == "malformed":
                    payload = int(rng.integers(0, _MALFORMED_VARIANTS))
                elif kind == "late":
                    payload = int(rng.integers(0, 8))
                elif kind == "burst":
                    payload = int(burst_size + rng.integers(0, burst_size // 4 + 1))
                else:
                    payload = 0
                faults.append(Fault(kind=kind, position=position, payload=payload))
        faults.sort(key=lambda f: (f.position, f.kind))
        return cls(faults=faults)


def _malformed_edge(template: StreamEdge, variant: int, num_nodes: int) -> StreamEdge:
    """A structurally invalid mutation of ``template``."""
    variant = variant % _MALFORMED_VARIANTS
    if variant == 0:
        return template._replace(u="not-a-node")  # type: ignore[arg-type]
    if variant == 1:
        return template._replace(v=num_nodes + 7)
    if variant == 2:
        return template._replace(edge_type="no-such-edge-type")
    return template._replace(t=float("nan"))


def fault_serve_config(
    serve_config: Optional[ServeConfig], **defaults: object
) -> ServeConfig:
    """The fault drivers' serving config: chaos-sized unless given (small
    batches, small capacity, ``drop_new`` overflow so shed bursts stay
    out of the WAL), and always with a ``late_tolerance``."""
    config = serve_config or ServeConfig(
        batch_size=32,
        capacity=128,
        overflow="drop_new",
        late_tolerance=0.0,
        **defaults,
    )
    if config.late_tolerance is None:
        raise ValueError(
            "fault replay needs serve_config.late_tolerance set; late "
            "faults are defined relative to it"
        )
    return config


class FaultInjector:
    """Executes a :class:`FaultPlan` against whichever service is writable.

    One injector spans one replay across process lives.  Its
    :meth:`before_event` is the replay loop's hook: non-crash faults are
    offered to the current service as mutations of the last accepted
    event; a ``crash`` banks the dying service's tallies and swaps in
    whatever ``on_crash(service)`` returns (``None`` = this run has no
    crash semantics and skips them, e.g. a golden reference run).
    :meth:`reconcile` then checks ``injected == observed`` per kind.
    """

    def __init__(
        self,
        plan: FaultPlan,
        num_nodes: int,
        late_tolerance: float,
        on_crash: Optional[
            Callable[[RecommendationService], RecommendationService]
        ] = None,
    ):
        self.plan = plan
        #: events injected per kind (bursts count per event); faults
        #: skipped for want of a template event are taken back out
        self.injected = plan.injection_counts()
        self.num_nodes = num_nodes
        self.late_tolerance = float(late_tolerance)
        self.on_crash = on_crash
        self.duplicates_accepted = 0
        self.burst_accepted = 0
        self.burst_dropped = 0
        self.crashes = 0
        # tallies of services that died mid-run (their metrics die with
        # them; reconciliation must span process lives)
        self._banked_buckets: Dict[str, int] = {}
        self._banked_counters: Dict[str, int] = {}

    @staticmethod
    def _register_fault_counters(
        service: RecommendationService,
    ) -> RecommendationService:
        """Pre-register ``faults.injected.*`` on a (replacement) writer."""
        for kind in FAULT_KINDS:
            service.metrics.counter(f"faults.injected.{kind}")
        return service

    def deadletter_buckets(self, service: RecommendationService) -> Dict[str, int]:
        """Deadletter reason buckets summed across process lives."""
        buckets = dict(self._banked_buckets)
        for category, count in service.queue.reason_counts.items():
            buckets[category] = buckets.get(category, 0) + int(count)
        return buckets

    def counter_totals(self, service: RecommendationService) -> Dict[str, int]:
        """``faults.injected.*`` counters summed across process lives."""
        return {
            kind: self._banked_counters.get(kind, 0)
            + int(service.metrics.counter(f"faults.injected.{kind}").value)
            for kind in FAULT_KINDS
        }

    def _bank(self, service: RecommendationService) -> None:
        """Fold a dying service's externally-visible tallies into the bank."""
        self._banked_buckets = self.deadletter_buckets(service)
        self._banked_counters = self.counter_totals(service)

    def _inject(
        self, service: RecommendationService, fault: Fault, template: StreamEdge
    ) -> None:
        """Offer one non-crash fault, mutated from ``template``."""
        kind = fault.kind
        copies = fault.payload if kind == "burst" else 1
        service.metrics.counter(f"faults.injected.{kind}").inc(copies)
        if kind == "malformed":
            service.ingest(_malformed_edge(template, fault.payload, self.num_nodes))
        elif kind == "late":
            stale_t = (
                service.queue.max_timestamp
                - self.late_tolerance
                - 1.0
                - float(fault.payload)
            )
            service.ingest(template._replace(t=stale_t))
        elif kind == "duplicate":
            if service.ingest(StreamEdge(*template)):
                self.duplicates_accepted += 1
        else:  # burst: a backpressure spike while dispatch is paused
            service.queue.pause()
            for _ in range(copies):
                if service.ingest(StreamEdge(*template)):
                    self.burst_accepted += 1
                else:
                    self.burst_dropped += 1
            service.queue.resume()

    def before_event(
        self,
        position: int,
        service: RecommendationService,
        template: Optional[StreamEdge],
    ) -> RecommendationService:
        """Run the faults scheduled before ``position``; returns the
        service that is writable afterwards."""
        for fault in self.plan.at(position):
            if fault.kind == "crash":
                if self.on_crash is None:
                    continue
                service.metrics.counter("faults.injected.crash").inc()
                self._bank(service)
                service = self._register_fault_counters(self.on_crash(service))
                self.crashes += 1
            elif template is None:
                # no template event yet (possible only if event 0 itself
                # was shed); keep the ledger honest
                self.injected[fault.kind] -= (
                    fault.payload if fault.kind == "burst" else 1
                )
            else:
                self._inject(service, fault, template)
        return service

    def replay(
        self,
        driver: StreamReplayDriver,
        service: RecommendationService,
        **hooks: object,
    ) -> Tuple[RecommendationService, float, float]:
        """Run ``driver``'s replay loop from ``service`` with the plan injected."""
        return driver.replay_stream(
            self._register_fault_counters(service),
            before_event=self.before_event,
            **hooks,
        )

    def reconcile(
        self,
        service: RecommendationService,
        crash_label: str,
        extra: Iterable[Tuple[str, object, object]] = (),
    ) -> List[str]:
        """``injected == observed`` per channel; returns the mismatches.

        ``crash_label`` names what a crash became in this run
        (``"recoveries"``, ``"promotions"``); ``extra`` appends the
        caller's own ``(label, expected, got)`` checks to the ledger.
        """
        injected = self.injected
        bucket = self.deadletter_buckets(service).get
        counters = self.counter_totals(service)
        burst_seen = self.burst_accepted + self.burst_dropped
        checks = [
            ("malformed deadletters", injected["malformed"], bucket("malformed", 0)),
            ("late deadletters", injected["late"], bucket("late event", 0)),
            ("backpressure deadletters", self.burst_dropped, bucket("backpressure", 0)),
            ("duplicates accepted", injected["duplicate"], self.duplicates_accepted),
            ("burst dispositions", injected["burst"], burst_seen),
            (crash_label, injected["crash"], self.crashes),
            *((f"{k} counter", injected[k], counters[k]) for k in FAULT_KINDS),
            *extra,
        ]
        return [
            f"{label}: expected {expected}, got {got}"
            for label, expected, got in checks
            if expected != got
        ]


@dataclass
class ChaosReport(JsonReport):
    """Everything one chaos run injected, observed and reconciled."""

    dataset: str
    k: int
    num_events: int
    seed: int
    ingest_seconds: float
    events_accepted: int
    num_updates: int
    #: events injected per fault kind (bursts count per event)
    injected: Dict[str, int] = field(default_factory=dict)
    #: what the system recorded, per reconciliation channel
    observed: Dict[str, int] = field(default_factory=dict)
    #: deadletter reason buckets summed across process lives
    deadletter_buckets: Dict[str, int] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    reconciled: bool = False
    parity_users: int = 0
    parity_matches: int = 0
    parity_fraction: float = 0.0

    def summary_rows(self) -> List[Tuple[str, object]]:
        """(name, value) pairs for a printed summary table."""
        rows: List[Tuple[str, object]] = [
            ("dataset", self.dataset),
            ("events replayed", self.num_events),
            ("events accepted", self.events_accepted),
            ("updates applied", self.num_updates),
        ]
        for kind in FAULT_KINDS:
            if self.injected.get(kind):
                rows.append((f"injected {kind}", self.injected[kind]))
        rows.extend(
            [
                ("recoveries", self.observed.get("recoveries", 0)),
                ("replayed events", self.observed.get("replayed_events", 0)),
                ("reconciled", "yes" if self.reconciled else "NO"),
                (
                    f"top-{self.k} parity",
                    f"{self.parity_matches}/{self.parity_users}",
                ),
                ("parity fraction", round(self.parity_fraction, 4)),
            ]
        )
        if self.mismatches:
            rows.append(("mismatches", "; ".join(self.mismatches)))
        return rows


class ChaosReplayDriver(StreamReplayDriver):
    """Replay a dataset's stream while executing a :class:`FaultPlan`.

    Parameters beyond :class:`~repro.serve.replay.StreamReplayDriver`:

    state_dir:
        Directory owning this run's WAL and checkpoints; created (and,
        with ``fresh=True``, wiped of previous chaos state) up front.
        Crash faults recover from exactly these files.
    plan:
        The fault schedule; ``None`` draws a default all-kinds plan
        seeded from ``seed``.
    fresh:
        Remove a previous run's WAL/checkpoints from ``state_dir`` so
        sequence numbers start at 1 (default).  Pass ``False`` only
        when resuming an interrupted chaos run on purpose.

    The driver works on its own copy of ``serve_config`` with any unset
    resilience knobs (``wal_path``, ``checkpoint_dir``,
    ``checkpoint_every``) pointed into ``state_dir`` — the caller's
    object is never touched, so one config can seed many drivers.
    """

    def __init__(
        self,
        dataset: Dataset,
        state_dir: str,
        plan: Optional[FaultPlan] = None,
        k: int = 10,
        serve_config: Optional[ServeConfig] = None,
        model_config: Optional[SUPAConfig] = None,
        train_config: Optional[InsLearnConfig] = None,
        probe_every: int = 64,
        probes_per_checkpoint: int = 2,
        max_parity_users: Optional[int] = None,
        seed: int = 0,
        trace: bool = False,
        fresh: bool = True,
    ):
        base = fault_serve_config(serve_config)
        serve_config = replace(
            base,
            wal_path=base.wal_path or os.path.join(state_dir, "chaos.wal"),
            checkpoint_dir=base.checkpoint_dir
            or os.path.join(state_dir, "checkpoints"),
            checkpoint_every=base.checkpoint_every or 4,
        )
        super().__init__(
            dataset,
            k=k,
            serve_config=serve_config,
            model_config=model_config,
            train_config=train_config,
            probe_every=probe_every,
            probes_per_checkpoint=probes_per_checkpoint,
            max_parity_users=max_parity_users,
            seed=seed,
            trace=trace,
        )
        self.seed = seed
        self.state_dir = state_dir
        self.plan = plan
        os.makedirs(state_dir, exist_ok=True)
        if fresh:
            if os.path.exists(serve_config.wal_path):
                os.remove(serve_config.wal_path)
            if os.path.isdir(serve_config.checkpoint_dir):
                shutil.rmtree(serve_config.checkpoint_dir)

    def _default_plan(self, num_events: int) -> FaultPlan:
        return FaultPlan.seeded(
            num_events,
            seed=self.seed,
            malformed=4,
            late=3,
            duplicate=3,
            burst=1,
            crash=1,
            # at least queue capacity, so the burst is guaranteed to
            # overflow and exercise the backpressure accounting
            burst_size=self.serve_config.capacity,
        )

    def run(self) -> ChaosReport:  # type: ignore[override]
        """Execute the plan over a full replay; returns the reconciliation."""
        num_events = len(self.dataset.stream)
        replayed_events = 0

        def crash_and_recover(dying: RecommendationService) -> RecommendationService:
            nonlocal replayed_events
            dying.close()
            result = recover(
                self.dataset,
                serve_config=self.serve_config,
                model_config=self.model_config,
                train_config=self.train_config,
                trace=self.trace,
            )
            replayed_events += result.replayed_events
            return result.service

        faults = FaultInjector(
            self.plan or self._default_plan(num_events),
            self.dataset.num_nodes,
            self.serve_config.late_tolerance,
            on_crash=crash_and_recover,
        )
        service, ingest_seconds, _ = faults.replay(self, self.build_service())
        mismatches = faults.reconcile(service, "recoveries")
        buckets = faults.deadletter_buckets(service)
        return ChaosReport(
            dataset=self.dataset.name,
            k=self.k,
            num_events=num_events,
            seed=self.seed,
            ingest_seconds=ingest_seconds,
            events_accepted=service.queue.accepted,
            num_updates=int(service.metrics.counter("updates.applied").value),
            injected=faults.injected,
            observed={
                "malformed": buckets.get("malformed", 0),
                "late": buckets.get("late event", 0),
                "backpressure": buckets.get("backpressure", 0),
                "duplicates_accepted": faults.duplicates_accepted,
                "burst_accepted": faults.burst_accepted,
                "burst_dropped": faults.burst_dropped,
                "recoveries": faults.crashes,
                "replayed_events": replayed_events,
            },
            deadletter_buckets=buckets,
            mismatches=mismatches,
            reconciled=not mismatches,
            **self._parity(service),
        )
