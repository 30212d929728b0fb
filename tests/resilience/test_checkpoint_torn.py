"""Torn writes anywhere in a checkpoint: fall back, never load damage.

The WAL sweep (``test_wal_cursor.py``) damages a log at every byte; this
is the same sweep over the *newest checkpoint* of a directory —
truncated there, then flipped there (ROADMAP item 8c).
``CheckpointManager.latest()`` must answer with the previous valid
checkpoint (or ``None``), never raise and never hand back damaged
bytes, and ``recover()`` over a real service's damaged directory must
land exactly where it lands with that file absent.
"""

import os
import shutil

import pytest

from repro.core import SUPAConfig
from repro.core.model import SUPA
from repro.replicate.failover import state_fingerprint
from repro.resilience.checkpoint import CheckpointError, CheckpointManager
from repro.resilience.recovery import recover
from repro.serve.service import RecommendationService, ServeConfig
from tests.resilience.test_checkpoint import make_checkpoint

MODEL = SUPAConfig(dim=4, num_walks=2, walk_length=2, seed=0)
#: offsets are swept one by one up to this size, strided beyond it
EXHAUSTIVE_BYTES = 64 * 1024


def serve_config(root):
    return ServeConfig(
        batch_size=2,
        capacity=8,
        wal_path=os.path.join(root, "events.wal"),
        checkpoint_dir=os.path.join(root, "ckpts"),
        checkpoint_every=1,
    )


@pytest.fixture
def crashed(small_dataset, tmp_path):
    """A state directory left by a service that checkpointed after each
    of three updates and died with one event buffered."""
    root = str(tmp_path / "pristine")
    service = RecommendationService(
        small_dataset,
        model=SUPA.for_dataset(small_dataset, MODEL),
        config=serve_config(root),
    )
    for edge in list(small_dataset.stream)[:7]:
        assert service.ingest(edge)
    service.close()  # no flush: a crash
    assert len(CheckpointManager(serve_config(root).checkpoint_dir).paths()) == 3
    return root


def damaged(data):
    """``(label, bytes)``: ``data`` cut at, then flipped at, each offset."""
    stride = max(1, len(data) // EXHAUSTIVE_BYTES)
    for offset in range(0, len(data), stride):
        yield f"cut@{offset}", data[:offset]
        flipped = bytearray(data)
        flipped[offset] ^= 0xFF
        yield f"flip@{offset}", bytes(flipped)


def test_latest_falls_back_past_damage_at_every_offset(tmp_path):
    manager = CheckpointManager(str(tmp_path / "pair"))
    manager.save(make_checkpoint(seq=7))
    newest = manager.save(make_checkpoint(seq=9))
    previous_seq = 7
    lone = str(tmp_path / "lone")  # a directory holding only the newest
    os.makedirs(lone)
    with open(newest, "rb") as fh:
        pristine = fh.read()
    cases = 0
    for label, data in damaged(pristine):
        for target, expected in (
            (newest, previous_seq),
            (os.path.join(lone, os.path.basename(newest)), None),
        ):
            with open(target, "wb") as fh:
                fh.write(data)
            manager = CheckpointManager(os.path.dirname(target))
            found = manager.latest()  # never raises
            assert (found and found.seq) == expected, label
            assert manager.fallbacks == 1, label
        with pytest.raises(CheckpointError):
            manager.load(target)  # the lone copy, loaded directly
        cases += 1
    assert cases >= 2 * min(len(pristine), EXHAUSTIVE_BYTES)


def test_recover_over_a_damaged_checkpoint_equals_recover_without_it(
    small_dataset, crashed, tmp_path
):
    def recovered(root):
        result = recover(small_dataset, serve_config(root), model_config=MODEL)
        service = result.service
        service.close()
        return (
            result.checkpoint_seq,
            state_fingerprint(service),
            service.model.rng.bit_generator.state,
            service.trainer.rng_state(),
            service.queue.buffered_at(lambda: 0)[1],
        )

    def copy_of(name):
        root = str(tmp_path / name)
        shutil.copytree(crashed, root)
        return root, CheckpointManager(serve_config(root).checkpoint_dir).paths()[0]

    absent_root, newest = copy_of("absent")
    with open(newest, "rb") as fh:
        pristine = fh.read()
    size, seam = len(pristine), pristine.index(b"\n")
    os.remove(newest)
    without = recovered(absent_root)
    intact = recovered(copy_of("intact")[0])
    assert intact[0] > without[0]  # the newest checkpoint really is newer...
    assert intact[1:] == without[1:]  # ...and replay makes up the difference

    # header start and middle, the header/payload seam, payload, last byte
    offsets = (0, seam // 2, seam, seam + 1, (seam + size) // 2, size - 1)
    for i, offset in enumerate(offsets):
        for mode in ("cut", "flip"):
            root, newest = copy_of(f"{mode}{i}")
            data = bytearray(pristine)
            if mode == "cut":
                del data[offset:]
            else:
                data[offset] ^= 0xFF
            with open(newest, "wb") as fh:
                fh.write(data)
            assert recovered(root) == without, f"{mode}@{offset}"


def test_recover_counts_the_damaged_checkpoint_it_skipped(small_dataset, crashed):
    """The catch-up reads checkpoints through a manager of its own; the
    fallback it took still lands on the recovered service's counter."""
    manager = CheckpointManager(serve_config(crashed).checkpoint_dir)
    newest, previous = manager.paths()[:2]
    previous_seq = manager.load(previous).seq
    with open(newest, "r+b") as fh:
        fh.truncate(16)
    result = recover(small_dataset, serve_config(crashed), model_config=MODEL)
    result.service.close()
    assert result.checkpoint_seq == previous_seq
    assert result.service.metrics.counter("checkpoint.fallbacks").value == 1
    assert result.checkpoint_fallbacks == 1
