"""Tests for atomic checkpoints: roundtrip, retention, corruption fallback."""

import io
import json
import os
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.core.memory import MemoryOptimizer, NodeMemory, state_views
from repro.graph.streams import StreamEdge
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointManager,
    _encode,
)
from repro.utils.rng import new_rng


def make_checkpoint(seq=7, with_residue=True):
    rng = new_rng(seq)
    model_rng = new_rng(seq + 1)
    residue = (
        [StreamEdge(1, 2, "click", 3.5), StreamEdge(4, 5, "buy", 6.25)]
        if with_residue
        else []
    )
    return Checkpoint(
        seq=seq,
        updates_applied=3,
        clock=6.25,
        residue=residue,
        model_state={
            "memory.long_term": rng.normal(size=(5, 4)),
            "memory.counts": np.arange(5, dtype=np.int64),
            "optimizer.m": rng.normal(size=(5, 4)),
        },
        model_rng_state=model_rng.bit_generator.state,
        trainer_rng_state=new_rng(seq + 2).bit_generator.state,
        num_nodes=5,
    )


def assert_same(a: Checkpoint, b: Checkpoint):
    assert a.seq == b.seq
    assert a.updates_applied == b.updates_applied
    assert a.clock == b.clock
    assert a.residue == b.residue
    assert a.num_nodes == b.num_nodes
    assert a.model_rng_state == b.model_rng_state
    assert a.trainer_rng_state == b.trainer_rng_state
    assert list(b.model_state) == list(a.model_state)  # the archive keeps the order
    for name, value in a.model_state.items():
        restored = b.model_state[name]
        assert restored.dtype == value.dtype
        assert restored.tobytes() == value.tobytes()  # bitwise


def saved(tmp_path, ckpt: Checkpoint) -> bytes:
    """The file ``CheckpointManager.save`` writes for ``ckpt``."""
    with open(CheckpointManager(str(tmp_path / "saved")).save(ckpt), "rb") as fh:
        return fh.read()


def loaded(tmp_path, data: bytes) -> Checkpoint:
    """``CheckpointManager.load`` of a file holding ``data``."""
    path = tmp_path / "loaded.ckpt"
    path.write_bytes(data)
    return CheckpointManager(str(tmp_path)).load(str(path))


class TestSerialization:
    def test_roundtrip_is_bitwise(self, tmp_path):
        ckpt = make_checkpoint()
        assert_same(ckpt, loaded(tmp_path, saved(tmp_path, ckpt)))

    def test_empty_residue_roundtrips(self, tmp_path):
        ckpt = make_checkpoint(with_residue=False)
        assert loaded(tmp_path, saved(tmp_path, ckpt)).residue == []

    def test_save_is_byte_deterministic(self, tmp_path):
        """One state writes one file: two saves of it are equal bytes."""
        first = saved(tmp_path / "a", make_checkpoint())
        assert saved(tmp_path / "b", make_checkpoint()) == first
        assert saved(tmp_path / "c", make_checkpoint(seq=8)) != first

    def test_truncated_payload_detected(self, tmp_path):
        data = saved(tmp_path, make_checkpoint())
        with pytest.raises(CheckpointError):
            loaded(tmp_path, data[:-20])

    def test_header_bitflip_detected(self, tmp_path):
        data = bytearray(saved(tmp_path, make_checkpoint()))
        # flip a byte inside the meta section of the header line
        data[data.find(b'"seq"') + 8] ^= 0x01
        with pytest.raises(CheckpointError):
            loaded(tmp_path, bytes(data))

    def test_payload_bitflip_detected(self, tmp_path):
        data = bytearray(saved(tmp_path, make_checkpoint()))
        data[-10] ^= 0xFF
        with pytest.raises(CheckpointError):
            loaded(tmp_path, bytes(data))


class TestManager:
    def test_save_load_latest(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        path = manager.save(make_checkpoint(seq=4))
        assert os.path.exists(path)
        assert_same(make_checkpoint(seq=4), manager.latest())

    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(make_checkpoint(seq=1))
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_retention_prunes_oldest(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), retain=2)
        for seq in (1, 2, 3, 4):
            manager.save(make_checkpoint(seq=seq))
        assert len(manager.paths()) == 2
        assert manager.latest().seq == 4

    def test_latest_falls_back_past_corruption(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(make_checkpoint(seq=1))
        newest = manager.save(make_checkpoint(seq=2))
        with open(newest, "r+b") as fh:  # corrupt the newest in place
            fh.seek(30)
            fh.write(b"\xff\xff\xff")
        assert manager.latest().seq == 1
        assert manager.fallbacks == 1

    def test_latest_none_when_empty_or_all_corrupt(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        assert manager.latest() is None
        bad = tmp_path / f"ckpt-{1:012d}.ckpt"
        bad.write_bytes(b"not a checkpoint")
        assert manager.latest() is None
        assert manager.fallbacks == 1

    def test_invalid_retain_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), retain=0)


def header_only(meta, payload=b""):
    """A checkpoint file whose header passes its CRC whatever ``meta`` is."""
    canonical = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    header = json.dumps(
        {"crc": zlib.crc32(canonical.encode("utf-8")), "meta": meta},
        sort_keys=True,
        separators=(",", ":"),
    )
    return header.encode("utf-8") + b"\n" + payload


def _npz():
    buffer = io.BytesIO()
    np.savez(buffer, x=np.zeros(2))
    return buffer.getvalue()


_MALFORMED = {
    "meta is a list": header_only([1, 2]),
    "no payload_bytes": header_only({"format": 1}),
    "no seq": header_only(
        {"format": 1, "payload_bytes": len(_npz()), "payload_crc": zlib.crc32(_npz())},
        _npz(),
    ),
}


class TestMalformedHeader:
    """A header can pass its CRC and still not be one the writer makes:
    that is corruption too, so recovery falls back past it."""

    @pytest.mark.parametrize("data", _MALFORMED.values(), ids=_MALFORMED.keys())
    def test_is_a_checkpoint_error(self, tmp_path, data):
        with pytest.raises(CheckpointError):
            loaded(tmp_path, data)

    @pytest.mark.parametrize("data", _MALFORMED.values(), ids=_MALFORMED.keys())
    def test_latest_falls_back_past_it(self, tmp_path, data):
        manager = CheckpointManager(str(tmp_path))
        manager.save(make_checkpoint(seq=1))
        (tmp_path / f"ckpt-{2:012d}.ckpt").write_bytes(data)
        assert manager.latest().seq == 1
        assert manager.fallbacks == 1


def with_payload(payload):
    """A checkpoint file whose header and payload CRCs both pass around
    ``payload``, whatever it holds."""
    meta = json.loads(_encode(make_checkpoint(seq=2))[0])["meta"]
    meta.update(payload_bytes=len(payload), payload_crc=zlib.crc32(payload))
    return header_only(meta, payload)


def _npy():
    buffer = io.BytesIO()
    np.save(buffer, np.zeros(2))
    return buffer.getvalue()


def _bad_central_directory():
    data = bytearray(_npz())
    at = data.rfind(b"PK\x01\x02")  # the central directory's entry signature
    data[at + 3] ^= 0xFF
    return bytes(data)


_NOT_AN_ARCHIVE = {
    "zip magic then garbage": with_payload(b"PK\x03\x04garbage"),
    "damaged central directory": with_payload(_bad_central_directory()),
    "an npy array, not an archive": with_payload(_npy()),
}


class TestPayloadNotAnArchive:
    """A payload can pass its CRC and still not be an npz archive: that
    is corruption too, on a direct load and the fallback chain alike."""

    @pytest.mark.parametrize(
        "data", _NOT_AN_ARCHIVE.values(), ids=_NOT_AN_ARCHIVE.keys()
    )
    def test_is_a_checkpoint_error(self, tmp_path, data):
        with pytest.raises(CheckpointError):
            loaded(tmp_path, data)

    @pytest.mark.parametrize(
        "data", _NOT_AN_ARCHIVE.values(), ids=_NOT_AN_ARCHIVE.keys()
    )
    def test_latest_falls_back_past_it(self, tmp_path, data):
        manager = CheckpointManager(str(tmp_path))
        manager.save(make_checkpoint(seq=1))
        (tmp_path / f"ckpt-{2:012d}.ckpt").write_bytes(data)
        assert manager.latest().seq == 1
        assert manager.fallbacks == 1


def model_sized_checkpoint():
    """A checkpoint of the model's own memory + optimiser layout (live
    views, as a save passes them), about 25 MB: big enough that the
    arrays dominate every other allocation of a save or a load."""
    memory = NodeMemory(
        num_nodes=8000, num_edge_types=2, num_node_types=2, dim=32, rng=0
    )
    ckpt = make_checkpoint()
    ckpt.model_state = state_views(MemoryOptimizer(memory))
    return ckpt


def traced_peak(call):
    """``(result, peak bytes traced while call() ran)``."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """A checkpoint costs one state-sized buffer each way: a save streams
    the live arrays into one payload buffer and writes the header and
    that buffer one after the other; a load streams the CRC and reads
    the arrays from the open file."""

    def test_save_peak_is_one_state_sized_buffer(self, tmp_path):
        ckpt = model_sized_checkpoint()
        manager = CheckpointManager(str(tmp_path))
        path, peak = traced_peak(lambda: manager.save(ckpt))
        assert peak <= 1.25 * os.path.getsize(path)

    def test_load_peak_is_one_state_sized_buffer(self, tmp_path):
        ckpt = model_sized_checkpoint()
        manager = CheckpointManager(str(tmp_path))
        path = manager.save(ckpt)
        restored, peak = traced_peak(lambda: manager.load(path))
        assert peak <= 1.1 * os.path.getsize(path)
        assert_same(ckpt, restored)  # every array, bitwise
