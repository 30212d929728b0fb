"""Service-level resilience: WAL wiring, checkpoints, breaker, late events."""

import numpy as np
import pytest

from repro.datasets.zoo import load_dataset
from repro.resilience.wal import scan
from repro.serve import service as service_module
from repro.serve.service import RecommendationService, ServeConfig


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("uci", scale=0.2)


def durable_service(dataset, tmp_path, **overrides):
    defaults = dict(
        batch_size=16,
        capacity=64,
        wal_path=str(tmp_path / "svc.wal"),
        checkpoint_dir=str(tmp_path / "ckpts"),
        checkpoint_every=2,
    )
    defaults.update(overrides)
    return RecommendationService(dataset, config=ServeConfig(**defaults))


class TestWalWiring:
    def test_accepts_and_batches_are_journaled(self, dataset, tmp_path):
        service = durable_service(dataset, tmp_path)
        for edge in list(dataset.stream)[:40]:
            service.ingest(edge)
        service.close()
        records = scan(service.config.wal_path).records
        kinds = [r.kind for r in records]
        assert kinds.count("accept") == 40
        assert kinds.count("batch") == 2  # 40 events / S=16
        # write-ahead ordering: each batch record follows >= 16 accepts
        first_batch = kinds.index("batch")
        assert kinds[:first_batch].count("accept") >= 16
        assert service.metrics.counter("wal.appends").value == len(records)

    def test_export_names_are_fixed_at_construction(self, dataset, tmp_path):
        """Every instrument exists before the first event: ingest, flush
        and checkpoint register none (``wal.bytes_appended`` included)."""
        service = durable_service(dataset, tmp_path)
        names = set(service.metrics)
        for edge in list(dataset.stream)[:40]:
            service.ingest(edge)
        service.flush()
        service.checkpoint()
        service.close()
        assert set(service.metrics) == names

    def test_drop_oldest_evictions_are_journaled(self, dataset, tmp_path):
        service = durable_service(
            dataset, tmp_path, batch_size=16, capacity=16, overflow="drop_oldest"
        )
        service.queue.pause()
        for edge in list(dataset.stream)[:20]:
            service.ingest(edge)
        service.close()
        kinds = [r.kind for r in scan(service.config.wal_path).records]
        assert kinds.count("evict") == 4
        assert kinds.count("accept") == 20

    def test_no_wal_by_default(self, dataset):
        service = RecommendationService(dataset, config=ServeConfig(batch_size=16))
        assert service.wal is None and service.checkpoints is None


class TestCheckpointCadence:
    def test_checkpoints_written_every_n_updates(self, dataset, tmp_path):
        service = durable_service(dataset, tmp_path, checkpoint_every=2)
        for edge in list(dataset.stream)[:96]:  # 6 updates at S=16
            service.ingest(edge)
        service.close()
        assert service.metrics.counter("checkpoint.writes").value == 3
        assert len(service.checkpoints.paths()) == 3

    def test_manual_checkpoint_captures_residue(self, dataset, tmp_path):
        service = durable_service(dataset, tmp_path)
        for edge in list(dataset.stream)[:20]:  # 1 update + 4 buffered
            service.ingest(edge)
        path = service.checkpoint()
        ckpt = service.checkpoints.load(path)
        assert ckpt.seq == service.wal.last_seq
        assert len(ckpt.residue) == 4
        assert ckpt.updates_applied == 1
        assert ckpt.num_nodes == dataset.num_nodes
        service.close()


class FailingTrainer:
    """Stand-in trainer whose train_one_batch always explodes."""

    def __init__(self, trainer):
        self._trainer = trainer
        self.model = trainer.model
        self.calls = 0

    def train_one_batch(self, batch, batch_index=0):
        self.calls += 1
        raise RuntimeError("synthetic training failure")

    def __getattr__(self, name):
        return getattr(self._trainer, name)


class TestCircuitBreaker:
    @pytest.fixture(autouse=True)
    def _breaker(self, monkeypatch):
        monkeypatch.setattr(service_module, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(service_module, "BREAKER_COOLDOWN_EVENTS", 8)

    def make_failing(self, dataset):
        service = RecommendationService(
            dataset, config=ServeConfig(batch_size=4, capacity=64)
        )
        service.trainer = FailingTrainer(service.trainer)
        return service

    def test_update_failures_deadletter_and_count(self, dataset):
        service = self.make_failing(dataset)  # one failure, below the threshold
        for edge in list(dataset.stream)[:4]:
            assert service.ingest(edge)  # ingest path survives the failure
        assert service.metrics.counter("updates.failed").value == 1
        assert service.queue.reason_counts["update failure"] == 4
        assert all(
            d.reason.startswith("update failure: RuntimeError")
            for d in service.deadletters
        )
        assert not service.breaker_open

    def test_breaker_opens_after_consecutive_failures(self, dataset):
        service = self.make_failing(dataset)
        for edge in list(dataset.stream)[:8]:  # two failing batches
            service.ingest(edge)
        assert service.breaker_open
        assert service.metrics.counter("breaker.opened").value == 1
        assert service.metrics.gauge("breaker.state").value == 1.0
        # bounded-stale reads keep working while open
        user = int(service.users[0])
        assert service.recommend(user, 5).shape == (5,)
        # events keep buffering instead of dispatching
        before = service.trainer.calls
        for edge in list(dataset.stream)[8:12]:
            service.ingest(edge)
        assert service.trainer.calls == before
        # the queue is paused: a full batch is buffered and none is cut
        assert service.queue.pending >= service.queue.batch_size
        assert service.queue.dispatch_next() == 0

    def test_cooldown_probe_resumes_dispatch(self, dataset, monkeypatch):
        monkeypatch.setattr(service_module, "BREAKER_COOLDOWN_EVENTS", 3)
        service = self.make_failing(dataset)
        stream = list(dataset.stream)
        for edge in stream[:8]:
            service.ingest(edge)
        assert service.breaker_open
        service.trainer._trainer.model = service.model  # heal: stop failing
        healed = service.trainer._trainer
        service.trainer = healed
        for edge in stream[8:12]:  # cooldown burns down, probe fires, batch fills
            service.ingest(edge)
        assert not service.breaker_open
        assert service.metrics.gauge("breaker.state").value == 0.0
        assert service.metrics.counter("updates.applied").value > 0


class TestLateEvents:
    def test_late_events_deadletter_and_count(self, dataset):
        service = RecommendationService(
            dataset, config=ServeConfig(batch_size=16, late_tolerance=0.0)
        )
        stream = list(dataset.stream)
        for edge in stream[:10]:
            service.ingest(edge)
        watermark = service.queue.max_timestamp
        stale = stream[0]._replace(t=watermark - 5.0)
        assert not service.ingest(stale)
        assert service.metrics.counter("ingest.late").value == 1
        assert service.queue.reason_counts["late event"] == 1
        assert service.deadletters[-1].reason.startswith("late event")
