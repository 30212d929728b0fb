"""Tests for read-only mode and late durability attach."""

import pytest

from repro.graph.streams import StreamEdge
from repro.resilience.wal import scan
from repro.serve.service import (
    ReadOnlyServiceError,
    RecommendationService,
    ServeConfig,
)


def make_service(dataset, **kwargs):
    defaults = dict(batch_size=4, capacity=16, cache_size=32)
    defaults.update(kwargs)
    return RecommendationService(dataset, config=ServeConfig(**defaults))


class TestReadOnly:
    def test_read_only_service_rejects_ingest(self, small_dataset):
        svc = make_service(small_dataset, read_only=True)
        with pytest.raises(ReadOnlyServiceError):
            svc.ingest(StreamEdge(0, 5, "click", 1.0))
        assert svc.queue.pending == 0 and svc.metrics.counter("ingest.offered").value == 0

    def test_set_writable_flips_the_switch(self, small_dataset):
        svc = make_service(small_dataset, read_only=True)
        svc.set_writable()
        assert svc.ingest(StreamEdge(0, 5, "click", 1.0))


class TestAttachDurability:
    def test_attach_starts_journaling(self, small_dataset, tmp_path):
        svc = make_service(small_dataset, checkpoint_every=2)
        assert svc.wal is None
        edges = list(small_dataset.stream)
        svc.ingest(edges[0])  # pre-attach: nothing journaled
        wal_file = str(tmp_path / "late.wal")
        svc.attach_durability(wal_file, checkpoint_dir=str(tmp_path / "ckpt"))
        svc.ingest(edges[1])
        svc.close()
        records = scan(wal_file).records
        assert [r.kind for r in records] == ["accept"]
        assert records[0].edge == edges[1]
        assert svc.checkpoints is not None

    def test_attach_twice_raises(self, small_dataset, tmp_path):
        svc = make_service(small_dataset)
        svc.attach_durability(str(tmp_path / "a.wal"), str(tmp_path / "a"))
        with pytest.raises(ValueError):
            svc.attach_durability(str(tmp_path / "b.wal"), str(tmp_path / "b"))
        svc.close()

    def test_attach_leaves_the_callers_config_alone(self, small_dataset, tmp_path):
        """One journal, one writer: the attach lands on the service's
        own copy of the config, so a second service built from the same
        ``ServeConfig`` object does not open the first one's WAL."""
        config = ServeConfig(batch_size=4, capacity=16, cache_size=32)
        first = RecommendationService(small_dataset, config=config)
        wal_file = str(tmp_path / "first.wal")
        first.attach_durability(wal_file, checkpoint_dir=str(tmp_path / "ckpt"))
        assert (config.wal_path, config.checkpoint_dir) == (None, None)
        assert first.config.wal_path == wal_file  # the service sees its own
        second = RecommendationService(small_dataset, config=config)
        assert second.wal is None and second.checkpoints is None
        edges = list(small_dataset.stream)
        second.ingest(edges[0])
        first.ingest(edges[1])
        first.close()
        second.close()
        assert [r.edge for r in scan(wal_file).records] == [edges[1]]
