"""Tests for the replication roles: primary, follower, promotion."""

import os

import numpy as np
import pytest

from repro.core.config import SUPAConfig
from repro.datasets.zoo import load_dataset
from repro.obs.metrics import Counter
from repro.replicate.config import checkpoint_dir, wal_path
from repro.replicate.failover import state_fingerprint
from repro.replicate.follower import ReplicationError, ReplicationFollower
from repro.replicate.primary import ReplicationPrimary
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.wal import scan
from repro.serve.service import ReadOnlyServiceError, ServeConfig
from tests.core import assert_one_row_table


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("uci", scale=0.1)


def serve_config(**kwargs):
    defaults = dict(
        batch_size=8,
        capacity=64,
        overflow="drop_new",
        late_tolerance=0.0,
        checkpoint_every=2,
    )
    defaults.update(kwargs)
    return ServeConfig(**defaults)


def model_config(seed=0):
    return SUPAConfig(dim=16, num_walks=2, walk_length=2, seed=seed)


def make_primary(dataset, tmp_path, clock=None, heartbeat_every=4, **serve_kwargs):
    return ReplicationPrimary(
        dataset,
        str(tmp_path / "primary"),
        serve_config=serve_config(**serve_kwargs),
        model_config=model_config(),
        heartbeat_every=heartbeat_every,
        clock=clock,
    )


def make_follower(dataset, tmp_path, clock=None, **serve_kwargs):
    return ReplicationFollower(
        dataset,
        str(tmp_path / "primary"),
        replica_dir=str(tmp_path / "replica"),
        serve_config=serve_config(**serve_kwargs),
        model_config=model_config(),
        clock=clock,
    )


class TestConfig:
    def test_layout_helpers(self, tmp_path):
        root = str(tmp_path / "node")
        assert wal_path(root) == os.path.join(root, "replicate.wal")
        assert checkpoint_dir(root) == os.path.join(root, "checkpoints")

    def test_primary_rejects_heartbeat_every_below_one(self, dataset, tmp_path):
        with pytest.raises(ValueError, match="heartbeat_every must be >= 1"):
            make_primary(dataset, tmp_path, heartbeat_every=0)
        assert not os.path.exists(tmp_path / "primary")

    def test_serve_config_rejects_negative_checkpoint_every(self):
        with pytest.raises(ValueError, match="checkpoint_every must be >= 0"):
            ServeConfig(checkpoint_every=-1)


class TestPrimary:
    def test_heartbeat_announced_at_startup(self, dataset, tmp_path):
        primary = make_primary(dataset, tmp_path, clock=lambda: 42.0)
        primary.close()
        records = scan(wal_path(str(tmp_path / "primary"))).records
        assert records[0].kind == "heartbeat"
        assert records[0].t == 42.0

    def test_heartbeats_ride_along_at_cadence(self, dataset, tmp_path):
        primary = make_primary(dataset, tmp_path, heartbeat_every=4)
        for edge in list(dataset.stream)[:16]:
            primary.ingest(edge)
        primary.close()
        kinds = [r.kind for r in scan(wal_path(str(tmp_path / "primary"))).records]
        # startup heartbeat + one per 4 offered events
        assert kinds.count("heartbeat") >= 4
        assert int(primary.metrics.counter("replica.heartbeats").value) >= 4

    def test_checkpoint_every_zero_never_checkpoints(self, dataset, tmp_path):
        """The cadence is ``ServeConfig.checkpoint_every`` alone: 0 means
        no checkpoint, not a replication-side default."""
        primary = make_primary(dataset, tmp_path, checkpoint_every=0)
        for edge in list(dataset.stream)[:80]:
            primary.ingest(edge)
        assert primary.service.updates_applied >= 8
        primary.close()
        assert CheckpointManager(checkpoint_dir(str(tmp_path / "primary"))).paths() == []


class TestFollower:
    def test_tail_reaches_bitwise_parity(self, dataset, tmp_path):
        primary = make_primary(dataset, tmp_path)
        follower = make_follower(dataset, tmp_path).bootstrap()
        stream = list(dataset.stream)[:120]
        for i, edge in enumerate(stream):
            primary.ingest(edge)
            if i % 16 == 0:
                follower.poll()
        primary.flush()
        while follower.poll():
            pass
        assert follower.applied_seq == primary.last_seq
        assert state_fingerprint(follower.service) == state_fingerprint(
            primary.service
        )
        users = primary.service.users[:6]
        for user in users:
            assert np.array_equal(
                follower.recommend(int(user), 5),
                primary.service.recommend(int(user), 5),
            )
        primary.close()

    def test_bootstrap_reads_the_log_once(self, dataset, tmp_path, monkeypatch):
        """One reader, one pass: a follower bootstrapping at a checkpoint
        decodes each shipped record once — not the prefix a second time
        to find where its tail starts."""
        from repro.resilience import wal

        primary = make_primary(dataset, tmp_path)
        for edge in list(dataset.stream)[:100]:
            primary.ingest(edge)
        primary.close()
        records = scan(wal_path(str(tmp_path / "primary"))).records
        ckpt = CheckpointManager(checkpoint_dir(str(tmp_path / "primary"))).latest()
        assert len(records) // 2 < ckpt.seq  # a long prefix to not re-read
        decoded = []
        real = wal._decode
        monkeypatch.setattr(
            wal, "_decode", lambda line: decoded.append(1) or real(line)
        )
        follower = make_follower(dataset, tmp_path).bootstrap()
        assert len(decoded) == len(records)
        assert follower.applied_seq == len(records)
        log = wal_path(str(tmp_path / "primary"))
        assert follower.tailer.bytes_read == os.path.getsize(log)
        assert follower.poll() == 0  # and it tails on from where it stopped
        assert len(decoded) == len(records)

    def test_bootstrapped_follower_keeps_one_row_table(self, dataset, tmp_path):
        primary = make_primary(dataset, tmp_path)
        for edge in list(dataset.stream)[:100]:
            primary.ingest(edge)
        ckpt = CheckpointManager(checkpoint_dir(str(tmp_path / "primary"))).latest()
        assert ckpt is not None and ckpt.seq > 0  # bootstraps from a load
        follower = make_follower(dataset, tmp_path).bootstrap()
        assert_one_row_table(follower.service.model)
        for edge in list(dataset.stream)[100:140]:
            primary.ingest(edge)
        primary.flush()
        while follower.poll():
            pass
        assert_one_row_table(follower.service.model)
        assert state_fingerprint(follower.service) == state_fingerprint(
            primary.service
        )
        primary.close()

    def test_bootstrap_counts_a_skipped_damaged_checkpoint(self, dataset, tmp_path):
        primary = make_primary(dataset, tmp_path)
        for edge in list(dataset.stream)[:100]:
            primary.ingest(edge)
        primary.close()
        newest = CheckpointManager(checkpoint_dir(str(tmp_path / "primary"))).paths()[0]
        with open(newest, "r+b") as fh:
            fh.truncate(16)
        follower = make_follower(dataset, tmp_path).bootstrap()
        assert follower.service.metrics.counter("checkpoint.fallbacks").value == 1

    def test_follower_mirrors_queue_residue(self, dataset, tmp_path):
        primary = make_primary(dataset, tmp_path)
        stream = list(dataset.stream)[:11]  # not a batch multiple
        for edge in stream:
            primary.ingest(edge)
        follower = make_follower(dataset, tmp_path).bootstrap()
        assert follower.residue == primary.service.queue.pending
        assert follower.accepted_total == primary.service.queue.accepted
        primary.close()

    def test_primary_silence_detection(self, dataset, tmp_path):
        """A silent primary shows as a growing ``replica.lag_seconds``:
        the age of its newest heartbeat on the follower clock."""
        now = {"t": 100.0}
        primary = make_primary(dataset, tmp_path, clock=lambda: now["t"])
        follower = make_follower(
            dataset, tmp_path, clock=lambda: now["t"]
        ).bootstrap()
        gauge = follower.service.metrics.gauge("replica.lag_seconds")
        assert gauge.value == 0.0
        now["t"] = 104.0
        follower.poll()
        assert gauge.value == pytest.approx(4.0)
        now["t"] = 120.0  # no heartbeat for 20 s
        follower.poll()
        assert gauge.value == pytest.approx(20.0)
        primary.close()

    def test_staleness_observables(self, dataset, tmp_path):
        primary = make_primary(dataset, tmp_path, clock=lambda: 10.0)
        follower = make_follower(
            dataset, tmp_path, clock=lambda: 12.5
        ).bootstrap()
        assert follower.heartbeats_seen >= 1
        gauge = follower.service.metrics.gauge("replica.lag_seconds")
        assert gauge.value == pytest.approx(2.5)
        assert follower.service.metrics.gauge("replica.backlog_bytes").value == 0
        assert follower.lag_from(primary.last_seq) == 0
        primary.close()

    def test_replica_instruments_read_the_follower_and_its_tailer(
        self, dataset, tmp_path
    ):
        """Every ``replica.*`` instrument reads the one object that keeps
        its tally: after any poll the export equals the owner, and no
        write reaches it."""
        primary = make_primary(dataset, tmp_path, clock=lambda: 10.0)
        stream = list(dataset.stream)
        for edge in stream[:30]:
            primary.ingest(edge)
        follower = make_follower(dataset, tmp_path, clock=lambda: 12.5).bootstrap()
        for edge in stream[30:60]:
            primary.ingest(edge)
            follower.poll(max_records=1)  # falls behind the primary
        metrics, tailer = follower.service.metrics, follower.tailer
        owners = {
            "replica.records_applied": follower.applied_seq,
            "replica.bytes_shipped": tailer.bytes_read,
            "replica.heartbeats_seen": follower.heartbeats_seen,
            "replica.seq_lag": follower.lag_records,
            "replica.backlog_bytes": tailer.backlog_bytes,
            "replica.lag_seconds": follower.lag_seconds,
        }
        snapshot = metrics.as_dict()
        assert {name: snapshot[name]["value"] for name in owners} == owners
        assert tailer.backlog_bytes > 0 and follower.lag_records == 1
        assert follower.lag_seconds == pytest.approx(2.5)
        for name in owners:
            kind = metrics.counter if snapshot[name]["type"] == "counter" else metrics.gauge
            instrument = kind(name)
            write = instrument.inc if isinstance(instrument, Counter) else instrument.set
            with pytest.raises(TypeError, match="sourced"):
                write(1)
        primary.close()

    def test_follower_is_read_only_until_promoted(self, dataset, tmp_path):
        primary = make_primary(dataset, tmp_path)
        follower = make_follower(dataset, tmp_path).bootstrap()
        edge = list(dataset.stream)[0]
        with pytest.raises(ReplicationError):
            follower.ingest(edge)
        with pytest.raises(ReadOnlyServiceError):
            follower.service.ingest(edge)
        with pytest.raises(ReplicationError):
            follower.flush()
        primary.close()

    def test_poll_before_bootstrap_raises(self, dataset, tmp_path):
        follower = make_follower(dataset, tmp_path)
        with pytest.raises(ReplicationError):
            follower.poll()
        with pytest.raises(ReplicationError):
            follower.recommend(0, 5)


class TestPromote:
    def test_promote_requires_distinct_directory(self, dataset, tmp_path):
        primary = make_primary(dataset, tmp_path)
        follower = make_follower(dataset, tmp_path).bootstrap()
        with pytest.raises(ReplicationError):
            follower.promote(str(tmp_path / "primary"))
        primary.close()

    def test_promote_flips_writable_and_inherits_ledger(self, dataset, tmp_path):
        primary = make_primary(dataset, tmp_path)
        stream = list(dataset.stream)
        for edge in stream[:60]:
            primary.ingest(edge)
        primary.close()
        follower = make_follower(dataset, tmp_path).bootstrap()
        follower.promote()
        assert follower.state == "promoted"
        svc = follower.service
        assert svc.wal.last_seq == follower.applied_seq
        assert svc.queue.accepted == follower.accepted_total
        # the promoted node keeps accepting and journaling
        before = svc.wal.last_seq
        assert follower.ingest(stream[60])
        assert svc.wal.last_seq == before + 1
        with pytest.raises(ReplicationError):
            follower.promote()  # already promoted
        follower.close()

    def test_promotion_zeroes_every_lag_gauge(self, dataset, tmp_path):
        """A promoted follower is the writer, behind no one: all three
        lag gauges read 0 however far its clock then moves, though its
        clock ran ahead of the primary's stamps and the dead primary
        left a torn record pending in the tailer's backlog."""
        now = {"t": 13.0}
        primary = make_primary(dataset, tmp_path, clock=lambda: 10.0)
        for edge in list(dataset.stream)[:40]:
            primary.ingest(edge)
        primary.close()
        with open(wal_path(str(tmp_path / "primary")), "ab") as fh:
            fh.write(b'{"half')
        follower = make_follower(dataset, tmp_path, clock=lambda: now["t"]).bootstrap()
        metrics = follower.service.metrics
        gauges = ("replica.lag_seconds", "replica.seq_lag", "replica.backlog_bytes")
        assert metrics.gauge("replica.lag_seconds").value == pytest.approx(3.0)
        assert metrics.gauge("replica.backlog_bytes").value == 6
        follower.promote()
        now["t"] += 100.0
        assert [metrics.gauge(name).value for name in gauges] == [0.0, 0.0, 0.0]
        follower.close()

    def test_export_names_are_fixed_at_bootstrap(self, dataset, tmp_path):
        """Tailing, promotion and the promoted node's own ingest,
        flush and checkpoint register no instrument bootstrap did not."""
        primary = make_primary(dataset, tmp_path)
        stream = list(dataset.stream)
        for edge in stream[:40]:
            primary.ingest(edge)
        follower = make_follower(dataset, tmp_path).bootstrap()
        names = set(follower.service.metrics)
        for edge in stream[40:60]:
            primary.ingest(edge)
        follower.poll()
        primary.close()
        follower.promote()
        for edge in stream[60:80]:
            follower.ingest(edge)
        follower.flush()
        follower.service.checkpoint()
        assert set(follower.service.metrics) == names
        follower.close()

    def test_promoted_follower_refuses_to_poll(self, dataset, tmp_path):
        """After promotion the old primary's later records must not reach
        the new writer: they are in no log of its own, so its state (and
        its next checkpoint) would match no history it could recover."""
        primary = make_primary(dataset, tmp_path)
        stream = list(dataset.stream)
        for edge in stream[:40]:
            primary.ingest(edge)
        follower = make_follower(dataset, tmp_path).bootstrap()
        follower.promote()
        for edge in stream[40:80]:  # a primary that was not dead after all
            primary.ingest(edge)
        primary.close()
        applied = follower.service.updates_applied
        with pytest.raises(ReplicationError):
            follower.poll()
        assert follower.service.updates_applied == applied
        follower.close()

    def test_promoted_replica_checkpoints_at_its_serve_cadence(self, dataset, tmp_path):
        primary = make_primary(dataset, tmp_path)
        stream = list(dataset.stream)
        for edge in stream[:48]:
            primary.ingest(edge)
        primary.close()
        follower = make_follower(dataset, tmp_path, checkpoint_every=3).bootstrap()
        follower.promote()
        svc = follower.service
        assert svc.config.checkpoint_every == 3
        first = svc.updates_applied
        for edge in stream[48:112]:
            follower.ingest(edge)
        last = svc.updates_applied
        assert last - first >= 6
        # one checkpoint at promotion, then one per third applied update
        cadence = sum(1 for u in range(first + 1, last + 1) if u % 3 == 0)
        assert svc.metrics.counter("checkpoint.writes").value == 1 + cadence
        follower.close()

    def test_promoted_timeline_is_recoverable(self, dataset, tmp_path):
        """The inherited WAL + fresh checkpoint must let the *promoted*
        node crash and recover with full bitwise parity — zero-downtime
        restart is just recovery on the inherited timeline."""
        from dataclasses import replace

        from repro.resilience.recovery import recover

        primary = make_primary(dataset, tmp_path)
        stream = list(dataset.stream)[:90]
        for edge in stream[:50]:
            primary.ingest(edge)
        primary.close()
        follower = make_follower(dataset, tmp_path).bootstrap()
        follower.promote()
        for edge in stream[50:]:
            follower.ingest(edge)
        follower.flush()
        expected = state_fingerprint(follower.service)
        replica_root = str(tmp_path / "replica")
        users = follower.service.users[:5]
        expected_topk = {
            int(u): follower.service.recommend(int(u), 5) for u in users
        }
        follower.close()  # the promoted node dies too

        cfg = replace(
            serve_config(),
            wal_path=wal_path(replica_root),
            checkpoint_dir=checkpoint_dir(replica_root),
            checkpoint_every=2,
        )
        result = recover(dataset, serve_config=cfg, model_config=model_config())
        assert state_fingerprint(result.service) == expected
        for user, topk in expected_topk.items():
            assert np.array_equal(result.service.recommend(user, 5), topk)
        result.service.close()
