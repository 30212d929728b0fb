"""Kill-the-primary chaos: promote a follower, prove nothing was lost.

The :class:`FailoverDriver` is the replication layer's acceptance gate:
the same replay loop and :class:`~repro.resilience.faults.FaultInjector`
as :class:`~repro.resilience.faults.ChaosReplayDriver`, but spanning
*two* nodes.  One seeded plan drives the whole run:

1. A :class:`~repro.replicate.primary.ReplicationPrimary` ingests the
   dataset stream (with seeded ``malformed``/``late``/``duplicate``
   faults riding along) while a bootstrapped
   :class:`~repro.replicate.follower.ReplicationFollower` tails its WAL
   and answers probe reads.
2. At the plan's ``crash`` position the primary is killed abruptly
   (its externally-visible tallies are banked first), the follower
   keeps serving reads through the outage (counted as
   ``reads_during_failover``), then drains the log and promotes.
3. The promoted follower ingests the rest of the stream, remaining
   faults included, and flushes.
4. A **golden** single-node service replays the identical stream +
   fault sequence uninterrupted.

The gate then demands three things at once:

- **ledger**: every injected fault is accounted for across both lives
  (``injected == observed`` per kind, zero mismatches);
- **state**: the promoted follower's flattened ``state_dict`` is
  bitwise identical to the golden run's (one SHA-256 over every
  parameter array);
- **reads**: the promoted follower's top-K equals the golden run's
  *and* its own brute-force ``offline_top_k`` for every parity user.

Why this must hold is the replay argument of
:mod:`repro.resilience.recovery` carried across two nodes: promotion
inherits the log and the FIFO residue, so resumed ingest cuts the same
micro-batch boundaries the uninterrupted run would.  Any divergence — a
dropped record, a double-applied batch, a residue leak — breaks the SHA
or the ledger and fails the gate.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.config import SUPAConfig
from repro.core.inslearn import InsLearnConfig
from repro.datasets.base import Dataset
from repro.replicate.config import ReplicationConfig
from repro.replicate.follower import PROMOTED, ReplicationFollower
from repro.replicate.primary import ReplicationPrimary
from repro.resilience.checkpoint import _flatten
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    fault_serve_config,
)
from repro.serve.replay import JsonReport, StreamReplayDriver, parity_matches
from repro.serve.service import RecommendationService, ServeConfig


def state_fingerprint(service: RecommendationService) -> str:
    """SHA-256 over the model's flattened ``state_dict`` arrays.

    Bitwise: two services fingerprint equal iff every parameter and
    optimiser-moment array matches byte for byte.
    """
    flat: Dict[str, np.ndarray] = {}
    _flatten(service.model.state_dict(), "", flat)
    digest = hashlib.sha256()
    for name in sorted(flat):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(flat[name]).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class ServiceComparison:
    """What :func:`compare_services` found."""

    #: ``state_fingerprint`` of the service under test
    fingerprint: str
    #: it equals the reference's (vacuously true without a reference)
    fingerprint_match: bool
    #: model and trainer RNG streams equal the reference's (likewise)
    rng_match: bool
    users: int
    #: users served exactly the offline top-K (and the reference's list)
    matches: int

    @property
    def identical(self) -> bool:
        return (
            self.fingerprint_match
            and self.rng_match
            and self.matches == self.users
        )


def compare_services(
    service: RecommendationService,
    users: Iterable[int],
    k: int,
    reference: Optional[RecommendationService] = None,
) -> ServiceComparison:
    """The bitwise-parity comparison: learned state, both RNG streams
    and served top-``k`` of ``service`` against ``reference`` — or, with
    no reference, served top-``k`` against the offline ranking alone."""

    def rng_streams(s: RecommendationService) -> Tuple[object, object]:
        return s.model.rng.bit_generator.state, s.trainer.rng_state()

    users = [int(user) for user in users]
    fingerprint = state_fingerprint(service)
    return ServiceComparison(
        fingerprint=fingerprint,
        fingerprint_match=(
            reference is None or fingerprint == state_fingerprint(reference)
        ),
        rng_match=(
            reference is None or rng_streams(service) == rng_streams(reference)
        ),
        users=len(users),
        matches=parity_matches(service, users, k, golden=reference),
    )


@dataclass
class FailoverReport(JsonReport):
    """Everything one failover run injected, observed and reconciled."""

    dataset: str
    k: int
    num_events: int
    seed: int
    #: stream position where the primary was killed (the crash fault)
    kill_position: int
    ingest_seconds: float
    events_accepted: int
    num_updates: int
    #: reads served by the follower between primary death and promotion
    reads_during_failover: int
    #: events injected per fault kind
    injected: Dict[str, int] = field(default_factory=dict)
    #: what the two lives recorded, per reconciliation channel
    observed: Dict[str, int] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    reconciled: bool = False
    #: promoted state_dict SHA equals the golden run's
    fingerprint_match: bool = False
    parity_users: int = 0
    #: users whose promoted top-K == golden top-K == offline top-K
    parity_matches: int = 0
    parity_fraction: float = 0.0

    @property
    def passed(self) -> bool:
        """The full gate: ledger + state + reads, all at once."""
        return (
            self.reconciled
            and self.fingerprint_match
            and self.parity_matches == self.parity_users
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready payload: the fields plus the gate verdict."""
        return {**super().as_dict(), "passed": self.passed}

    def summary_rows(self) -> List[Tuple[str, object]]:
        """(name, value) pairs for a printed summary table."""
        rows: List[Tuple[str, object]] = [
            ("dataset", self.dataset),
            ("events replayed", self.num_events),
            ("primary killed at", self.kill_position),
            ("events accepted", self.events_accepted),
            ("updates applied", self.num_updates),
            ("reads during failover", self.reads_during_failover),
        ]
        for kind in FAULT_KINDS:
            if self.injected.get(kind):
                rows.append((f"injected {kind}", self.injected[kind]))
        rows.extend(
            [
                ("ledger reconciled", "yes" if self.reconciled else "NO"),
                (
                    "state fingerprint",
                    "match" if self.fingerprint_match else "MISMATCH",
                ),
                (
                    f"top-{self.k} parity",
                    f"{self.parity_matches}/{self.parity_users}",
                ),
                ("gate", "PASS" if self.passed else "FAIL"),
            ]
        )
        if self.mismatches:
            rows.append(("mismatches", "; ".join(self.mismatches)))
        return rows


class FailoverDriver(StreamReplayDriver):
    """One seeded kill-primary → promote-follower → reconcile run.

    Parameters
    ----------
    dataset:
        Stream source shared by primary, follower and golden run.
    state_dir / replica_dir:
        The primary's directory and the promoted follower's; wiped up
        front when ``fresh`` (default) so sequence numbers start at 1.
    serve_config:
        Defaults to the chaos-sized config (small batches, small
        capacity, ``drop_new`` overflow, zero late tolerance); a
        ``late_tolerance`` is required so late faults have a contract.
    model_config / train_config:
        Always pinned to explicit seeded values (the replay-driver
        defaults) — all three services must walk identical stochastic
        paths or the fingerprint check is meaningless.
    malformed / late / duplicate:
        Fault counts for the seeded plan; exactly one ``crash`` is
        always scheduled (the kill).  Bursts are excluded: pause-based
        backpressure on the primary is exercised by the single-node
        chaos suite and would make golden alignment depend on pause
        timing rather than journaled decisions.
    poll_every:
        Follower tail cadence, in ingested events.
    probe_every:
        Read-probe cadence against the follower replica.
    """

    def __init__(
        self,
        dataset: Dataset,
        state_dir: str,
        replica_dir: str,
        k: int = 10,
        serve_config: Optional[ServeConfig] = None,
        model_config: Optional[SUPAConfig] = None,
        train_config: Optional[InsLearnConfig] = None,
        replication: Optional[ReplicationConfig] = None,
        malformed: int = 2,
        late: int = 2,
        duplicate: int = 2,
        poll_every: int = 8,
        probe_every: int = 64,
        failover_probes: int = 4,
        max_parity_users: Optional[int] = 32,
        seed: int = 0,
        fresh: bool = True,
    ):
        if os.path.abspath(state_dir) == os.path.abspath(replica_dir):
            raise ValueError("state_dir and replica_dir must differ")
        if poll_every < 1:
            raise ValueError(f"poll_every must be >= 1, got {poll_every}")
        super().__init__(
            dataset,
            k=k,
            # Durability belongs to the roles: the primary points it at
            # state_dir, the follower strips it until promotion, and the
            # golden run (``build_service``) is the config as-is.
            serve_config=replace(
                fault_serve_config(serve_config, warm_users=8),
                wal_path=None,
                checkpoint_dir=None,
            ),
            model_config=model_config,
            train_config=train_config,
            probe_every=probe_every,
            probes_per_checkpoint=1,
            max_parity_users=max_parity_users,
            seed=seed,
        )
        self.state_dir = state_dir
        self.replica_dir = replica_dir
        self.replication = replication or ReplicationConfig(
            heartbeat_every=16, checkpoint_every=4
        )
        self.malformed = malformed
        self.late = late
        self.duplicate = duplicate
        self.poll_every = poll_every
        self.failover_probes = failover_probes
        self.seed = seed
        if fresh:
            for directory in (state_dir, replica_dir):
                if os.path.isdir(directory):
                    shutil.rmtree(directory)

    def run(self) -> FailoverReport:  # type: ignore[override]
        """Execute kill → promote → reconcile; returns the gate report."""
        num_events = len(self.dataset.stream)
        plan = FaultPlan.seeded(
            num_events,
            seed=self.seed,
            malformed=self.malformed,
            late=self.late,
            duplicate=self.duplicate,
            burst=0,
            crash=1,
        )
        kill_position = next(
            f.position for f in plan.faults if f.kind == "crash"
        )
        roles = dict(
            serve_config=self.serve_config,
            model_config=self.model_config,
            train_config=self.train_config,
            replication=self.replication,
        )
        primary = ReplicationPrimary(self.dataset, self.state_dir, **roles)
        follower = ReplicationFollower(
            self.dataset, self.state_dir, replica_dir=self.replica_dir, **roles
        ).bootstrap()
        users = primary.service.users
        reads_during_failover = 0

        def kill_and_promote(_dying: RecommendationService) -> RecommendationService:
            # abrupt primary death: keep serving reads off the replica
            # through the outage, then drain + promote
            nonlocal reads_during_failover
            primary.kill()
            for probe in range(self.failover_probes):
                follower.recommend(int(users[probe % users.size]), self.k)
                reads_during_failover += 1
            follower.promote(self.replica_dir)
            return follower.service

        def tail(position: int) -> None:
            if follower.state != PROMOTED and (position + 1) % self.poll_every == 0:
                follower.poll()

        tolerance = self.serve_config.late_tolerance
        faults = FaultInjector(
            plan, self.dataset.num_nodes, tolerance, on_crash=kill_and_promote
        )
        promoted, ingest_seconds, _ = faults.replay(
            self,
            primary.service,
            after_event=tail,
            probe=lambda user: follower.recommend(user, self.k),
        )

        # the uninterrupted single-node reference: identical stream and
        # fault sequence (crash skipped), no durability
        golden_faults = FaultInjector(plan, self.dataset.num_nodes, tolerance)
        golden, _, _ = golden_faults.replay(self, self.build_service())

        def updates(service: RecommendationService) -> int:
            return int(service.metrics.counter("updates.applied").value)

        mismatches = faults.reconcile(
            promoted,
            "promotions",
            extra=[
                (
                    "accepted ledger (golden vs promoted)",
                    golden.queue.accepted,
                    promoted.queue.accepted,
                ),
                (
                    "updates applied (golden vs promoted)",
                    updates(golden),
                    updates(promoted),
                ),
                (
                    "duplicates accepted (golden vs promoted)",
                    golden_faults.duplicates_accepted,
                    faults.duplicates_accepted,
                ),
            ],
        )
        buckets = faults.deadletter_buckets(promoted)
        report = FailoverReport(
            dataset=self.dataset.name,
            k=self.k,
            num_events=num_events,
            seed=self.seed,
            kill_position=kill_position,
            ingest_seconds=ingest_seconds,
            events_accepted=promoted.queue.accepted,
            num_updates=updates(promoted),
            reads_during_failover=reads_during_failover,
            injected=faults.injected,
            observed={
                "malformed": buckets.get("malformed", 0),
                "late": buckets.get("late event", 0),
                "duplicates_accepted": faults.duplicates_accepted,
                "promotions": faults.crashes,
                "records_shipped": int(follower.tailer.records_read),
                "bytes_shipped": int(follower.tailer.bytes_read),
            },
            mismatches=mismatches,
            reconciled=not mismatches,
            fingerprint_match=(
                state_fingerprint(promoted) == state_fingerprint(golden)
            ),
            **self._parity(promoted, golden),
        )
        golden.close()
        follower.close()
        return report
