"""The whole service as one model-based machine: the fault injector.

Hypothesis drives a replication primary — and, once a rule bootstraps
one, a follower tailing its WAL — through whole-service histories:
stream ingest, malformed / late / duplicate offers, paused bursts,
queries, checkpoints, crashes that may tear the WAL, recoveries,
follower polls, and killing the writer to promote the follower.  Three
invariants are the determinism contract:

1. after every recover and promote, the live service equals a fresh
   inline service fed the accepted events of the WAL it now writes:
   learned state, both RNG streams, buffered residue, served top-K;
2. a follower that drained the log stands at the writer's last seq,
   with its learned state and RNG streams;
3. the malformed, late and backpressure deadletters, summed across
   process lives, equal the faults injected.

Each invariant has a mutation below that turns the machine red, and one
derandomised run goes through the lock sanitizer.
"""

import os
import shutil
import tempfile
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.config import SUPAConfig
from repro.core.inslearn import InsLearnConfig
from repro.core.model import SUPA
from repro.datasets.zoo import load_dataset
from repro.replicate.config import checkpoint_dir, wal_path
from repro.replicate.failover import compare_services, state_fingerprint
from repro.replicate.follower import ReplicationFollower
from repro.replicate.primary import ReplicationPrimary
from repro.resilience.recovery import recover
from repro.resilience.wal import iter_records
from repro.serve.ingest import EventQueue
from repro.serve.service import RecommendationService, ServeConfig
from reprolint import threadcheck
from tests.resilience import fold

DATASET = load_dataset("uci", scale=0.1)
STREAM = list(DATASET.stream)
SERVE = ServeConfig(
    batch_size=8, capacity=32, overflow="drop_new", late_tolerance=0.0, checkpoint_every=3
)
MODEL = SUPAConfig(dim=8, num_walks=2, walk_length=2, seed=0)
TRAIN = InsLearnConfig(
    batch_size=8,
    max_iterations=2,
    validation_interval=1,
    validation_size=2,
    patience=1,
    seed=0,
)
ROLES = dict(serve_config=SERVE, model_config=MODEL, train_config=TRAIN)
#: deadletter buckets the machine injects into (invariant 3)
FAULTS = ("malformed", "late event", "backpressure")
K = 5


def durable_config(state_dir):
    return replace(
        SERVE,
        wal_path=wal_path(state_dir),
        checkpoint_dir=checkpoint_dir(state_dir),
    )


def rng_states(service):
    return service.model.rng.bit_generator.state, service.trainer.rng_state()


def newest_checkpoint_seq(state_dir):
    names = [n for n in os.listdir(checkpoint_dir(state_dir)) if n.endswith(".ckpt")]
    return max((int(name[len("ckpt-") : -len(".ckpt")]) for name in names), default=0)


def assert_equals_golden(service, state_dir):
    """Invariant 1: ``service`` ≡ an inline service fed its WAL's accepts."""
    log = fold(iter_records(wal_path(state_dir)))
    golden = RecommendationService(  # no durability
        DATASET,
        model=SUPA.for_dataset(DATASET, MODEL),
        config=SERVE,
        train_config=TRAIN,
    )
    for edge in log.trained + log.fifo:
        assert golden.ingest(edge)
    assert service.queue.buffered_at(lambda: 0)[1] == golden.queue.buffered_at(lambda: 0)[1], "invariant 1: residue"
    verdict = compare_services(service, golden.users[:4], K, reference=golden)
    assert verdict.identical, f"invariant 1: {verdict}"


alive = precondition(lambda self: self.service is not None)


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="service-machine-")
        self.nodes = 0
        self.dir = self._new_dir()
        primary = ReplicationPrimary(DATASET, self.dir, heartbeat_every=5, **ROLES)
        # heartbeats ride along while the first primary lives; later
        # writers are the recovered or promoted services themselves
        self.writer = primary
        self.service = primary.service  # None while crashed
        self.follower = None
        self.position = 0  # next stream event
        self.injected = dict.fromkeys(FAULTS, 0)
        self.banked = dict.fromkeys(FAULTS, 0)  # dead services' deadletters

    def _new_dir(self):
        self.nodes += 1
        return os.path.join(self.root, f"node{self.nodes}")

    def _last(self):
        return STREAM[max(self.position - 1, 0)]

    def _kill(self):
        service, self.service = self.service, None
        service.close()
        for bucket in FAULTS:
            self.banked[bucket] += service.queue.reason_counts.get(bucket, 0)
        return service

    def teardown(self):
        for node in (self.service, self.follower):
            if node is not None:
                node.close()
        shutil.rmtree(self.root)

    # --------------------------------------------------------------- traffic

    @alive
    @rule(n=st.integers(1, 12))
    def ingest(self, n):
        for edge in STREAM[self.position : self.position + n]:
            assert self.writer.ingest(edge)
        self.position = min(self.position + n, len(STREAM))

    @alive
    @rule(variant=st.integers(0, 3))
    def malformed(self, variant):
        edge = self._last()
        self.writer.ingest(
            [
                edge._replace(u="not-a-node"),
                edge._replace(v=DATASET.num_nodes + 7),
                edge._replace(edge_type="no-such-edge-type"),
                edge._replace(t=float("nan")),
            ][variant]
        )
        self.injected["malformed"] += 1

    @precondition(
        lambda self: self.service is not None
        and self.service.queue.max_timestamp > float("-inf")
    )
    @rule()
    def late(self):
        stale = self.service.queue.max_timestamp - SERVE.late_tolerance - 1.0
        self.writer.ingest(self._last()._replace(t=stale))
        self.injected["late event"] += 1

    @alive
    @rule()
    def duplicate(self):
        assert self.writer.ingest(self._last())  # accepted, not deduplicated

    @alive
    @rule(copies=st.integers(1, 40))
    def paused_burst(self, copies):
        queue = self.service.queue
        room = SERVE.capacity - queue.pending
        queue.pause()
        for _ in range(copies):
            self.writer.ingest(self._last())
        queue.resume()
        self.injected["backpressure"] += max(0, copies - room)  # shed at capacity

    @alive
    @rule(user=st.integers(0, 3))
    def query(self, user):
        assert not self.service.query(int(self.service.users[user]), K).degraded

    @alive
    @rule()
    def checkpoint(self):
        self.service.checkpoint()

    # --------------------------------------------------------------- follower

    @precondition(lambda self: self.follower is None)
    @rule()
    def bootstrap_follower(self):
        self.follower = ReplicationFollower(DATASET, self.dir, **ROLES).bootstrap()

    @precondition(lambda self: self.follower is not None)
    @rule()
    def poll_follower(self):
        while self.follower.poll():
            pass
        self.follower.recommend(int(self.follower.service.users[0]), K)  # outages too
        if self.service is not None:  # invariant 2
            replica = self.follower.service
            assert self.follower.applied_seq == self.service.wal.last_seq, "invariant 2"
            assert state_fingerprint(replica) == state_fingerprint(self.service), (
                "invariant 2"
            )
            assert rng_states(replica) == rng_states(self.service), "invariant 2"

    # ---------------------------------------------------------------- faults

    @alive
    @rule(tear=st.sampled_from(["none", "partial", "halve"]))
    def crash(self, tear):
        last = self._kill().wal.last_seq
        path = wal_path(self.dir)
        if tear == "partial":
            with open(path, "ab") as fh:
                fh.write(b'{"kind":"accept","seq":')
        # A process crash can only tear the write in progress: never one
        # a checkpoint covers or a follower has already read.
        elif (
            tear == "halve"
            and last > newest_checkpoint_seq(self.dir)
            and (self.follower is None or self.follower.applied_seq < last)
        ):
            with open(path, "r+b") as fh:
                data = fh.read()
                start = data.rfind(b"\n", 0, len(data) - 1) + 1
                fh.truncate(start + (len(data) - start) // 2)

    @precondition(lambda self: self.service is None)
    @rule()
    def recover(self):
        result = recover(DATASET, durable_config(self.dir), MODEL, TRAIN)
        self.service = self.writer = result.service
        assert_equals_golden(self.service, self.dir)

    @precondition(lambda self: self.follower is not None)
    @rule()
    def kill_and_promote(self):
        if self.service is not None:
            self._kill()
        follower, self.follower = self.follower, None
        self.dir = self._new_dir()
        follower.promote(self.dir)
        self.service = self.writer = follower.service
        assert_equals_golden(self.service, self.dir)

    @invariant()
    def deadletters_reconcile(self):  # invariant 3
        live = self.service.queue.reason_counts if self.service is not None else {}
        for bucket in FAULTS:
            assert self.banked[bucket] + live.get(bucket, 0) == self.injected[bucket], (
                f"invariant 3: {bucket}"
            )


MACHINE = settings(
    max_examples=60,
    stateful_step_count=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServiceMachine = ServiceMachine.TestCase
TestServiceMachine.settings = MACHINE


# ----------------------------------------------------------- mutation gates


def run_until_red(*without_rules):
    """One derandomised run, stopping unshrunk at the first failure.

    Dropping rules pins which invariant a mutation is caught by: with no
    promotion, say, a follower's defect can only surface as invariant 2.
    """
    run_state_machine_as_test(
        type("Mutated", (ServiceMachine,), dict.fromkeys(without_rules)),
        settings=settings(MACHINE, phases=[Phase.generate], report_multiple_bugs=False),
    )


def test_skipped_recovered_batch_breaks_invariant_1(monkeypatch):
    monkeypatch.setattr(
        RecommendationService, "apply_recovered_batch", lambda self, batch: None
    )
    with pytest.raises(AssertionError, match="invariant 1"):
        run_until_red("bootstrap_follower")


def test_follower_dropping_a_chunk_breaks_invariant_2(monkeypatch):
    def apply_without_training(self, record):
        with self._lock:
            self._log.apply(record)  # the chunk is cut, never trained
        self._observe(record)

    monkeypatch.setattr(ReplicationFollower, "_apply", apply_without_training)
    with pytest.raises(AssertionError, match="invariant 2"):
        run_until_red("kill_and_promote")


def test_nan_timestamp_let_through_breaks_invariant_3(monkeypatch):
    validate = RecommendationService._validate_event
    monkeypatch.setattr(
        RecommendationService,
        "_validate_event",
        lambda self, edge: None if edge.t != edge.t else validate(self, edge),
    )
    with pytest.raises(AssertionError, match="invariant 3: malformed"):
        run_until_red()


def test_restore_without_cutting_ready_batches_goes_red(monkeypatch):
    def restore_and_wait(self, residue, accepted, watermark):
        with self._lock:
            self._buffer.extend((edge, None) for edge in residue)
            self.accepted = int(accepted)
            self.max_timestamp = max(self.max_timestamp, float(watermark))

    monkeypatch.setattr(EventQueue, "restore", restore_and_wait)
    with pytest.raises(AssertionError, match="invariant 1"):
        run_until_red()


def test_sanitized_run_is_clean_and_bitwise_identical(tmp_path):
    def recovered(state_dir):
        paused_writer_log(state_dir)
        service = recover(DATASET, durable_config(state_dir), MODEL, TRAIN).service
        service.close()
        return state_fingerprint(service), rng_states(service)

    plain = recovered(str(tmp_path / "plain"))
    with threadcheck() as monitor:
        run_state_machine_as_test(
            ServiceMachine, settings=settings(MACHINE, max_examples=5)
        )
        sanitized = recovered(str(tmp_path / "sanitized"))
    assert monitor.inversions == []
    assert monitor.unguarded_writes == []
    assert sanitized == plain  # monitoring observes, never perturbs


# ------------------------------------- a restored queue cuts what it inherits


def paused_writer_log(state_dir):
    """A primary that journaled 20 accepts and no batch (paused), then died."""
    primary = ReplicationPrimary(DATASET, state_dir, heartbeat_every=5, **ROLES)
    primary.service.queue.pause()
    for edge in STREAM[:20]:
        primary.ingest(edge)
    primary.close()


def test_recovered_queue_cuts_inherited_batches(tmp_path):
    paused_writer_log(str(tmp_path))
    service = recover(DATASET, durable_config(str(tmp_path)), MODEL, TRAIN).service
    assert (service.queue.pending, service.updates_applied) == (4, 2)
    assert_equals_golden(service, str(tmp_path))
    service.close()


def test_promoted_queue_cuts_inherited_batches(tmp_path):
    paused_writer_log(str(tmp_path / "primary"))
    follower = ReplicationFollower(DATASET, str(tmp_path / "primary"), **ROLES)
    follower.bootstrap().promote(str(tmp_path / "replica"))
    assert (follower.service.queue.pending, follower.service.updates_applied) == (4, 2)
    assert_equals_golden(follower.service, str(tmp_path / "replica"))
    follower.close()
