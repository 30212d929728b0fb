"""Atomic, CRC-verified checkpoints of the online learning state.

A checkpoint captures everything :func:`repro.resilience.recovery.recover`
needs to resume bitwise-identically, keyed to the write-ahead log by the
WAL sequence number it covers:

* ``seq`` — the last WAL record reflected in this snapshot;
* ``model_state`` — ``SUPA.state_dict()`` (memory + optimizer arrays);
* ``model_rng_state`` / ``trainer_rng_state`` — the exact PCG64 states
  of the model's sampling RNG and the trainer's validation RNG;
* ``clock`` / ``updates_applied`` — the service's stream watermark and
  progress counter;
* ``residue`` — the queue's accepted-but-not-yet-trained tail, kept for
  cross-checking against the WAL prefix during recovery.

On-disk layout: one JSON header line (``{"crc": ..., "meta": {...}}``)
followed by an ``np.savez`` archive of the flattened state arrays.  The
header carries the payload's byte length and CRC-32, and is itself
CRC-protected, so *any* truncation or bit-flip is detected and surfaces
as :class:`CheckpointError` — which :meth:`CheckpointManager.latest`
treats as "fall back to the next-older file".

Writes are atomic: serialize to ``<name>.tmp``, ``fsync``, then
``os.replace`` — a crash mid-write can never damage an existing
checkpoint.
"""

from __future__ import annotations

import io
import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.graph.streams import StreamEdge

#: bump when the on-disk layout changes incompatibly
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file failed its structural or CRC integrity checks."""


@dataclass
class Checkpoint:
    """One recoverable snapshot of the serving/learning state."""

    seq: int
    updates_applied: int
    clock: float
    residue: List[StreamEdge]
    model_state: Dict[str, object]
    model_rng_state: Dict[str, object]
    trainer_rng_state: Dict[str, object]
    #: node-universe size, cross-checked at recovery time
    num_nodes: int = 0


def _flatten(state: Dict[str, object], prefix: str, out: Dict[str, np.ndarray]) -> None:
    for key in sorted(state):
        value = state[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            _flatten(value, name + ".", out)
        elif isinstance(value, np.ndarray):
            out[name] = value
        else:
            raise CheckpointError(
                f"unsupported state leaf {name!r} of type {type(value).__name__}; "
                "state_dict leaves must be numpy arrays"
            )


def _unflatten(flat: Dict[str, np.ndarray]) -> Dict[str, object]:
    nested: Dict[str, object] = {}
    for name, value in flat.items():
        parts = name.split(".")
        node = nested
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return nested


def serialize(ckpt: Checkpoint) -> bytes:
    """Header line + npz payload; inverse of :func:`deserialize`."""
    flat: Dict[str, np.ndarray] = {}
    _flatten(ckpt.model_state, "", flat)
    buffer = io.BytesIO()
    np.savez(buffer, **flat)
    payload = buffer.getvalue()
    meta = {
        "format": FORMAT_VERSION,
        "seq": int(ckpt.seq),
        "updates_applied": int(ckpt.updates_applied),
        "clock": float(ckpt.clock),
        "num_nodes": int(ckpt.num_nodes),
        "residue": [
            [int(e.u), int(e.v), str(e.edge_type), float(e.t)] for e in ckpt.residue
        ],
        "model_rng_state": ckpt.model_rng_state,
        "trainer_rng_state": ckpt.trainer_rng_state,
        "payload_bytes": len(payload),
        "payload_crc": zlib.crc32(payload) & 0xFFFFFFFF,
    }
    canonical = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    header = json.dumps(
        {"crc": zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF, "meta": meta},
        sort_keys=True,
        separators=(",", ":"),
    )
    return header.encode("utf-8") + b"\n" + payload


def deserialize(data: bytes) -> Checkpoint:
    """Parse + verify one serialized checkpoint (:class:`CheckpointError`
    on any corruption)."""
    newline = data.find(b"\n")
    if newline < 0:
        raise CheckpointError("missing checkpoint header line")
    try:
        wrapper = json.loads(data[:newline].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"unparsable checkpoint header: {exc}") from exc
    if not isinstance(wrapper, dict) or "meta" not in wrapper or "crc" not in wrapper:
        raise CheckpointError("malformed checkpoint header")
    meta = wrapper["meta"]
    canonical = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    if wrapper["crc"] != zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF:
        raise CheckpointError("checkpoint header failed its CRC check")
    # a header can pass its CRC and still not be one this writer makes
    if not isinstance(meta, dict):
        raise CheckpointError("malformed checkpoint header")
    if meta.get("format") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format {meta.get('format')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        payload_bytes, payload_crc = meta["payload_bytes"], meta["payload_crc"]
    except KeyError as exc:
        raise CheckpointError(f"checkpoint header lacks {exc}") from exc
    payload = data[newline + 1 :]
    if len(payload) != payload_bytes:
        raise CheckpointError(
            f"truncated checkpoint payload ({len(payload)} of "
            f"{payload_bytes} bytes)"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != payload_crc:
        raise CheckpointError("checkpoint payload failed its CRC check")
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
            flat = {name: archive[name] for name in archive.files}
    except (ValueError, OSError) as exc:
        raise CheckpointError(f"unreadable checkpoint payload: {exc}") from exc
    try:
        return Checkpoint(
            seq=int(meta["seq"]),
            updates_applied=int(meta["updates_applied"]),
            clock=float(meta["clock"]),
            residue=[
                StreamEdge(int(u), int(v), str(et), float(t))
                for u, v, et, t in meta["residue"]
            ],
            model_state=_unflatten(flat),
            model_rng_state=meta["model_rng_state"],
            trainer_rng_state=meta["trainer_rng_state"],
            num_nodes=int(meta.get("num_nodes", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint header: {exc!r}") from exc


#: Newest checkpoints kept on disk; older ones are pruned on save.
RETAIN = 3


class CheckpointManager:
    """Atomic writes + retention + corruption fallback over a directory.

    Files are named ``ckpt-<seq:012d>.ckpt`` so lexicographic order is
    recency order; :meth:`latest` walks newest-first and silently falls
    back past corrupt files.  The manager keeps its own tallies: the
    service's ``checkpoint.writes`` reads ``writes``, and catch-up
    reports ``fallbacks`` in its ``RecoveryResult``.
    """

    SUFFIX = ".ckpt"

    def __init__(self, directory: str, retain: int = RETAIN):
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.retain = retain
        # Guards the write/fallback tallies only; file I/O stays outside
        # (atomicity there comes from the tmp-then-replace protocol).
        self._lock = threading.Lock()
        self.writes = 0
        self.fallbacks = 0

    def paths(self) -> List[str]:
        """Checkpoint files, newest (highest seq) first."""
        names = sorted(
            (
                name
                for name in os.listdir(self.directory)
                if name.startswith("ckpt-") and name.endswith(self.SUFFIX)
            ),
            reverse=True,
        )
        return [os.path.join(self.directory, name) for name in names]

    def save(self, ckpt: Checkpoint) -> str:
        """Atomically persist ``ckpt``; prunes past ``retain``; returns path."""
        data = serialize(ckpt)
        final = os.path.join(self.directory, f"ckpt-{ckpt.seq:012d}{self.SUFFIX}")
        tmp = final + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
        with self._lock:
            self.writes += 1
        self.prune()
        return final

    def prune(self) -> None:
        """Drop everything older than the newest ``retain`` checkpoints."""
        for stale in self.paths()[self.retain :]:
            os.remove(stale)

    def load(self, path: str) -> Checkpoint:
        """Read + verify one checkpoint file."""
        with open(path, "rb") as fh:
            return deserialize(fh.read())

    def latest(self) -> Optional[Checkpoint]:
        """Newest checkpoint passing integrity checks; ``None`` if none do.

        Corrupt or unreadable files are skipped (not deleted) so the
        fallback chain stays inspectable.
        """
        for path in self.paths():
            try:
                return self.load(path)
            except (CheckpointError, OSError):
                with self._lock:
                    self.fallbacks += 1
        return None
