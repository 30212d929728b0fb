"""Crash-recovery parity: recovered runs are bitwise identical.

The golden-parity discipline of ``tests/core/test_engine_parity.py``
applied to crash recovery: for several crash points (including one
before the first checkpoint, so recovery is WAL-only) the crashed +
recovered + resumed run must end with exactly the golden run's model
state, RNG streams, clock and served top-K lists.
"""

import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SUPAConfig
from repro.core.inslearn import InsLearnConfig
from repro.core.model import SUPA
from repro.datasets.zoo import load_dataset
from repro.resilience import RecoveryError, recover
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.wal import iter_records
from repro.serve.service import RecommendationService, ServeConfig
from tests.core import assert_one_row_table
from tests.resilience import fold

MODEL_CFG = SUPAConfig(dim=16, num_walks=2, walk_length=2, seed=0)
TRAIN_CFG = InsLearnConfig(
    batch_size=32,
    max_iterations=2,
    validation_interval=1,
    validation_size=10,
    patience=1,
    seed=0,
)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("uci", scale=0.3)


@pytest.fixture(scope="module")
def golden(dataset):
    service = RecommendationService(
        dataset,
        model=SUPA.for_dataset(dataset, MODEL_CFG),
        config=ServeConfig(batch_size=32, capacity=128),
        train_config=TRAIN_CFG,
    )
    for edge in dataset.stream:
        service.ingest(edge)
    service.flush()
    return service


def state_bytes(service):
    return b"".join(
        np.ascontiguousarray(array).tobytes()
        for _, array in sorted(service.model.state_views().items())
    )


def durable_config(tmp_path):
    return ServeConfig(
        batch_size=32,
        capacity=128,
        wal_path=str(tmp_path / "svc.wal"),
        checkpoint_dir=str(tmp_path / "ckpts"),
        checkpoint_every=2,
    )


def crash_at(dataset, config, position):
    """Run the durable service up to ``position`` events, then die."""
    service = RecommendationService(
        dataset,
        model=SUPA.for_dataset(dataset, MODEL_CFG),
        config=config,
        train_config=TRAIN_CFG,
    )
    for i, edge in enumerate(dataset.stream):
        if i == position:
            break
        service.ingest(edge)
    service.close()
    return service


# 3 is before the first checkpoint AND the first batch (WAL-only recovery
# with residue only); 45 is past one update but before any checkpoint;
# 150 / 407 recover from a checkpoint plus a WAL suffix.
@pytest.mark.parametrize("position", [3, 45, 150, 407])
def test_recovery_is_bitwise_identical(dataset, golden, tmp_path, position):
    config = durable_config(tmp_path)
    crash_at(dataset, config, position)

    result = recover(
        dataset, serve_config=config, model_config=MODEL_CFG, train_config=TRAIN_CFG
    )
    service = result.service
    assert 0 <= result.replayed_events <= position
    for edge in list(dataset.stream)[position:]:
        service.ingest(edge)
    service.flush()
    service.close()

    assert state_bytes(service) == state_bytes(golden)
    assert (
        service.model.rng.bit_generator.state
        == golden.model.rng.bit_generator.state
    )
    assert service.trainer.rng_state() == golden.trainer.rng_state()
    assert service.clock == golden.clock
    assert (
        service.metrics.counter("updates.applied").value
        == golden.metrics.counter("updates.applied").value
    )
    for user in golden.users[:12]:
        assert np.array_equal(
            service.recommend(int(user), 10), golden.recommend(int(user), 10)
        )
        assert np.array_equal(
            service.recommend(int(user), 10), service.offline_top_k(int(user), 10)
        )


def test_recovered_model_keeps_one_row_table(dataset, tmp_path):
    """A checkpoint load writes into the table's views, never rebinds them."""
    config = durable_config(tmp_path)
    crash_at(dataset, config, 150)
    result = recover(
        dataset, serve_config=config, model_config=MODEL_CFG, train_config=TRAIN_CFG
    )
    assert result.checkpoint_seq > 0
    assert_one_row_table(result.service.model)
    for edge in list(dataset.stream)[150:200]:
        result.service.ingest(edge)
    result.service.flush()
    assert_one_row_table(result.service.model)
    result.service.close()


def test_recovery_accounting(dataset, tmp_path):
    config = durable_config(tmp_path)
    victim = crash_at(dataset, config, 150)
    buffered_at_crash = len(victim.queue.buffered_at(lambda: 0)[1])

    result = recover(
        dataset, serve_config=config, model_config=MODEL_CFG, train_config=TRAIN_CFG
    )
    assert result.checkpoint_seq > 0  # a checkpoint existed by event 150
    assert result.residue_events == buffered_at_crash
    assert result.torn_records_dropped == 0
    assert result.recovery_seconds >= 0.0
    assert (
        result.service.metrics.counter("recovery.replayed_events").value
        == result.replayed_events
    )
    # accepted-event accounting continues across the crash
    assert result.service.queue.accepted == 150
    result.service.close()


def test_recovery_survives_torn_wal_tail(dataset, golden, tmp_path):
    config = durable_config(tmp_path)
    crash_at(dataset, config, 100)
    with open(config.wal_path, "ab") as fh:
        fh.write(b'{"kind":"accept","seq":9')  # torn mid-append

    result = recover(
        dataset, serve_config=config, model_config=MODEL_CFG, train_config=TRAIN_CFG
    )
    assert result.torn_records_dropped == 1
    service = result.service
    for edge in list(dataset.stream)[100:]:
        service.ingest(edge)
    service.flush()
    service.close()
    assert state_bytes(service) == state_bytes(golden)


def test_recovery_without_config_paths_raises(dataset):
    with pytest.raises(ValueError):
        recover(dataset, serve_config=ServeConfig(batch_size=32))


def test_recovery_with_truncated_wal_raises(dataset, tmp_path):
    config = durable_config(tmp_path)
    crash_at(dataset, config, 150)
    os.truncate(config.wal_path, 0)  # log vanished but checkpoints remain
    with pytest.raises(RecoveryError):
        recover(
            dataset,
            serve_config=config,
            model_config=MODEL_CFG,
            train_config=TRAIN_CFG,
        )


def test_recovery_from_empty_state_is_fresh_service(dataset, tmp_path):
    config = durable_config(tmp_path)
    # no run ever happened: no WAL file, empty checkpoint dir
    result = recover(
        dataset, serve_config=config, model_config=MODEL_CFG, train_config=TRAIN_CFG
    )
    assert result.checkpoint_seq == 0
    assert result.replayed_events == 0
    assert result.service.queue.accepted == 0
    result.service.close()


def test_checkpoint_from_another_thread_is_one_batch_boundary(
    dataset, golden, tmp_path
):
    """``checkpoint()`` is public: called from a thread that is not the
    dispatcher it must wait for the update in flight, then pair a model
    copy, ``updates_applied``, ``seq`` and ``residue`` that all describe
    the same instant of the log — while producers keep ingesting."""
    config = replace(
        durable_config(tmp_path),
        checkpoint_every=0,
        async_dispatch=True,
    )
    service = RecommendationService(
        dataset,
        model=SUPA.for_dataset(dataset, MODEL_CFG),
        config=config,
        train_config=TRAIN_CFG,
    )
    entered, release = threading.Event(), threading.Event()
    train = service.trainer.train_one_batch

    def parked(batch, batch_index=0):
        if batch_index == 1:  # hold the second update mid-flight
            entered.set()
            assert release.wait(30)
        return train(batch, batch_index=batch_index)

    service.trainer.train_one_batch = parked
    edges = list(dataset.stream)
    paths = []
    writer = threading.Thread(target=lambda: paths.append(service.checkpoint()))
    try:
        for edge in edges[:70]:  # two full batches + 6 buffered
            assert service.ingest(edge)
        assert entered.wait(30)
        writer.start()
        writer.join(0.3)
        assert writer.is_alive()  # an update is in flight: no checkpoint yet
        for edge in edges[70:75]:  # the log and the buffer move meanwhile
            assert service.ingest(edge)
    finally:
        release.set()
    writer.join(30)
    assert not writer.is_alive()
    service.close()  # the crash: 11 events journaled but never trained

    manager = CheckpointManager(config.checkpoint_dir)
    ckpt = manager.load(paths[0])
    prefix = fold(r for r in iter_records(config.wal_path) if r.seq <= ckpt.seq)
    assert ckpt.updates_applied == 2
    assert len(prefix.trained) == 2 * config.batch_size
    assert list(ckpt.residue) == prefix.fifo
    assert 6 <= len(ckpt.residue) <= 11

    result = recover(
        dataset,
        serve_config=replace(config, async_dispatch=False),
        model_config=MODEL_CFG,
        train_config=TRAIN_CFG,
    )
    assert result.checkpoint_seq == ckpt.seq
    assert result.replayed_batches == 0 and result.residue_events == 11
    recovered = result.service
    for edge in edges[75:]:
        recovered.ingest(edge)
    recovered.flush()
    recovered.close()
    assert state_bytes(recovered) == state_bytes(golden)
    assert (
        recovered.model.rng.bit_generator.state
        == golden.model.rng.bit_generator.state
    )
    assert recovered.trainer.rng_state() == golden.trainer.rng_state()
