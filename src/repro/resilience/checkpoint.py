"""Atomic, CRC-verified checkpoints of the online learning state.

A checkpoint captures everything :func:`repro.resilience.recovery.recover`
needs to resume bitwise-identically, keyed to the write-ahead log by the
WAL sequence number it covers:

* ``seq`` — the last WAL record reflected in this snapshot;
* ``model_state`` — the learned state as ``SUPA.state_dict()`` names it:
  one flat name → array map in name order, ``memory.alpha`` …
  ``optimizer.short.v`` (a save passes ``SUPA.state_views()``: the live
  arrays, read under the dispatch barrier, not copies);
* ``model_rng_state`` / ``trainer_rng_state`` — the exact PCG64 states
  of the model's sampling RNG and the trainer's validation RNG;
* ``clock`` / ``updates_applied`` — the service's stream watermark and
  progress counter;
* ``residue`` — the queue's accepted-but-not-yet-trained tail, kept for
  cross-checking against the WAL prefix during recovery.

On-disk layout: one JSON header line (``{"crc": ..., "meta": {...}}``)
followed by an ``np.savez`` archive with one member per ``model_state``
name, in the map's order; a load's ``model_state`` is the archive's own
name → array dict.  The header carries the payload's byte length and
CRC-32, and is itself CRC-protected, so *any* truncation or bit-flip is
detected and surfaces as :class:`CheckpointError` — which
:meth:`CheckpointManager.latest` treats as "fall back to the next-older
file".

Writes are atomic: write to ``<name>.tmp``, ``fsync``, then
``os.replace`` — a crash mid-write can never damage an existing
checkpoint.

Memory: a file costs one state-sized buffer each way.  A save streams
the live arrays into the npz payload's buffer, then writes the header
and that buffer one after the other (never joined into one ``bytes``);
a load takes the payload's length and CRC in 1 MB chunks, then reads
the arrays from the open file.
"""

from __future__ import annotations

import io
import json
import os
import threading
import zipfile
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Dict, List, Optional, Tuple

import numpy as np

from repro.graph.streams import StreamEdge

#: bump when the on-disk layout changes incompatibly
FORMAT_VERSION = 1
#: read size of the streamed CRC pass over a checkpoint's payload
_CHUNK_BYTES = 1 << 20


class CheckpointError(RuntimeError):
    """A checkpoint file failed its structural or CRC integrity checks."""


@dataclass
class Checkpoint:
    """One recoverable snapshot of the serving/learning state."""

    seq: int
    updates_applied: int
    clock: float
    residue: List[StreamEdge]
    model_state: Dict[str, np.ndarray]
    model_rng_state: Dict[str, object]
    trainer_rng_state: Dict[str, object]
    #: node-universe size, cross-checked at recovery time
    num_nodes: int = 0


def _encode(ckpt: Checkpoint) -> Tuple[bytes, io.BytesIO]:
    """The header line (its newline included) and the buffer holding the
    npz payload: the one state-sized allocation a save makes, since
    ``np.savez`` streams ``model_state``'s arrays — live views, at a
    save — into it, one archive member per name, in the map's order."""
    buffer = io.BytesIO()
    np.savez(buffer, **ckpt.model_state)
    with buffer.getbuffer() as payload:
        payload_bytes = len(payload)
        payload_crc = zlib.crc32(payload) & 0xFFFFFFFF
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
        "payload_bytes": payload_bytes,
        "payload_crc": payload_crc,
    }
    canonical = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    header = json.dumps(
        {"crc": zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF, "meta": meta},
        sort_keys=True,
        separators=(",", ":"),
    )
    return header.encode("utf-8") + b"\n", buffer


def _parse_header(line: bytes) -> dict:
    """The verified ``meta`` of a header line (newline included)."""
    if not line.endswith(b"\n"):
        raise CheckpointError("missing checkpoint header line")
    try:
        wrapper = json.loads(line[:-1].decode("utf-8"))
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
    for key in ("payload_bytes", "payload_crc"):
        if key not in meta:
            raise CheckpointError(f"checkpoint header lacks {key!r}")
    return meta


def _read_arrays(fh: BinaryIO) -> Dict[str, np.ndarray]:
    """Every array of the npz archive starting at ``fh``'s position
    (``zipfile`` finds an archive behind prepended bytes)."""
    try:
        archive = np.load(fh, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("payload is not an npz archive")
        with archive:
            return {name: archive[name] for name in archive.files}
    except (ValueError, OSError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise CheckpointError(f"unreadable checkpoint payload: {exc}") from exc


def _checkpoint(meta: dict, arrays: Dict[str, np.ndarray]) -> Checkpoint:
    try:
        return Checkpoint(
            seq=int(meta["seq"]),
            updates_applied=int(meta["updates_applied"]),
            clock=float(meta["clock"]),
            residue=[
                StreamEdge(int(u), int(v), str(et), float(t))
                for u, v, et, t in meta["residue"]
            ],
            model_state=arrays,
            model_rng_state=meta["model_rng_state"],
            trainer_rng_state=meta["trainer_rng_state"],
            num_nodes=int(meta.get("num_nodes", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint header: {exc!r}") from exc


def _read(fh: BinaryIO) -> Checkpoint:
    """Parse + verify the checkpoint ``fh`` holds, streaming: the
    payload's length and CRC are taken chunk by chunk, then the archive
    is read from ``fh`` itself, so the arrays are the one state-sized
    allocation (:class:`CheckpointError` on any corruption)."""
    meta = _parse_header(fh.readline())
    start = fh.tell()
    length = crc = 0
    for chunk in iter(lambda: fh.read(_CHUNK_BYTES), b""):
        length += len(chunk)
        crc = zlib.crc32(chunk, crc)
    if length != meta["payload_bytes"]:
        raise CheckpointError(
            f"truncated checkpoint payload ({length} of "
            f"{meta['payload_bytes']} bytes)"
        )
    if crc != meta["payload_crc"]:
        raise CheckpointError("checkpoint payload failed its CRC check")
    fh.seek(start)
    return _checkpoint(meta, _read_arrays(fh))


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
        header, buffer = _encode(ckpt)
        final = os.path.join(self.directory, f"ckpt-{ckpt.seq:012d}{self.SUFFIX}")
        tmp = final + ".tmp"
        with open(tmp, "wb") as fh, buffer.getbuffer() as payload:
            # header, then payload: never joined into one copy
            fh.write(header)
            fh.write(payload)
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
        """Read + verify one checkpoint file, streamed from disk."""
        with open(path, "rb") as fh:
            return _read(fh)

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
