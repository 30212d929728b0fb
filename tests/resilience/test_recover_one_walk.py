"""``recover()`` reads the log once.

One :func:`~repro.resilience.wal.scan` feeds the catch-up, the torn-tail
accounting and the service's WAL open, which repairs the log from that
walk instead of reading it again.  These tests pin the read count and
show the repair leaves the same bytes on disk as a WAL opening the
damaged log on its own.
"""

import os
import shutil

import pytest

from repro.core.config import SUPAConfig
from repro.core.inslearn import InsLearnConfig
from repro.core.model import SUPA
from repro.datasets.zoo import load_dataset
from repro.resilience import recover, wal
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.wal import WriteAheadLog, scan
from repro.serve.service import RecommendationService, ServeConfig

MODEL_CFG = SUPAConfig(dim=8, num_walks=2, walk_length=2, seed=0)
TRAIN_CFG = InsLearnConfig(
    batch_size=16,
    max_iterations=2,
    validation_interval=1,
    validation_size=10,
    patience=1,
    seed=0,
)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("uci", scale=0.1)


def crash(dataset, state_dir, events, **overrides):
    """Ingest ``events`` events into a durable service, then die unflushed."""
    config = ServeConfig(
        batch_size=16,
        capacity=64,
        wal_path=os.path.join(state_dir, "svc.wal"),
        checkpoint_dir=os.path.join(state_dir, "ckpts"),
        **overrides,
    )
    service = RecommendationService(
        dataset,
        model=SUPA.for_dataset(dataset, MODEL_CFG),
        config=config,
        train_config=TRAIN_CFG,
    )
    for edge in list(dataset.stream)[:events]:
        service.ingest(edge)
    service.close()
    return config


def log_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def self_repaired(config, tmp_path):
    """The bytes a WAL opening a copy of the damaged log leaves behind."""
    copy = str(tmp_path / "reference")
    shutil.copytree(os.path.dirname(config.wal_path), copy)
    path = os.path.join(copy, os.path.basename(config.wal_path))
    WriteAheadLog(path).close()
    return log_bytes(path)


def test_recover_decodes_each_record_once(dataset, tmp_path, monkeypatch):
    config = crash(dataset, str(tmp_path), 150, checkpoint_every=4)
    records = scan(config.wal_path).records
    ckpt = CheckpointManager(config.checkpoint_dir).latest()
    assert ckpt is not None and 0 < ckpt.seq < len(records)
    decoded = []
    real = wal._decode
    monkeypatch.setattr(wal, "_decode", lambda line: decoded.append(1) or real(line))
    result = recover(dataset, config, MODEL_CFG, TRAIN_CFG)
    assert (result.checkpoint_seq, result.last_seq) == (ckpt.seq, len(records))
    assert result.replayed_batches > 0
    assert len(decoded) == len(records)
    result.service.close()


class TestTornTailThroughOneWalk:
    def test_torn_final_record(self, dataset, tmp_path):
        config = crash(dataset, str(tmp_path / "state"), 150, checkpoint_every=3)
        intact = log_bytes(config.wal_path)
        last_seq = scan(config.wal_path).last_seq
        with open(config.wal_path, "ab") as fh:
            fh.write(b'{"crc":1,"kind":"acc')  # torn mid-append
        expected = self_repaired(config, tmp_path)
        assert expected == intact

        result = recover(dataset, config, MODEL_CFG, TRAIN_CFG)
        service = result.service
        assert result.torn_records_dropped == 1
        assert service.metrics.counter("wal.torn_records_dropped").value == 1
        assert log_bytes(config.wal_path) == expected
        assert service.wal.last_seq == result.last_seq == last_seq
        assert service.wal.append_heartbeat(1.0).seq == last_seq + 1
        service.close()
        assert scan(config.wal_path).last_seq == last_seq + 1

    def test_mid_log_damage(self, dataset, tmp_path):
        # no checkpoints: the log's surviving prefix is all recovery has
        config = crash(dataset, str(tmp_path / "state"), 150)
        lines = log_bytes(config.wal_path).splitlines(keepends=True)
        middle = len(lines) // 2
        damaged = bytearray(lines[middle])
        damaged[len(damaged) // 2] ^= 0xFF  # a terminated, CRC-failing line
        with open(config.wal_path, "wb") as fh:
            fh.writelines(lines[:middle] + [bytes(damaged)] + lines[middle + 1:])
        survivors = scan(config.wal_path)
        assert survivors.last_seq == middle
        assert survivors.dropped_records == len(lines) - middle
        expected = self_repaired(config, tmp_path)
        assert expected == b"".join(lines[:middle])

        result = recover(dataset, config, MODEL_CFG, TRAIN_CFG)
        service = result.service
        assert result.torn_records_dropped == survivors.dropped_records
        assert service.metrics.counter("wal.torn_records_dropped").value == (
            survivors.dropped_records
        )
        assert log_bytes(config.wal_path) == expected
        assert service.wal.last_seq == result.last_seq == middle
        assert service.wal.append_heartbeat(1.0).seq == middle + 1
        service.close()
        assert scan(config.wal_path).last_seq == middle + 1


def test_recover_falls_back_past_a_malformed_checkpoint(dataset, tmp_path):
    """A CRC-valid header the writer never makes is corruption: recovery
    starts from the next-older checkpoint instead of crashing."""
    from tests.resilience.test_checkpoint import header_only

    config = crash(dataset, str(tmp_path), 150, checkpoint_every=4)
    ckpt = CheckpointManager(config.checkpoint_dir).latest()
    newest = os.path.join(config.checkpoint_dir, f"ckpt-{ckpt.seq + 1:012d}.ckpt")
    with open(newest, "wb") as fh:
        fh.write(header_only({"format": 1}))
    result = recover(dataset, config, MODEL_CFG, TRAIN_CFG)
    assert result.checkpoint_seq == ckpt.seq
    result.service.close()
