"""repro.resilience: durability and fault tolerance for the serving layer.

Three pieces, composing into crash recovery with bitwise parity:

* :mod:`~repro.resilience.wal` — an append-only, CRC-checksummed,
  single-file write-ahead log of every
  :class:`~repro.serve.ingest.EventQueue` decision (accept / evict /
  batch, plus replication heartbeats), tolerant of torn tails, with a
  :class:`WalTailer` for live follow reads against a concurrent writer;
* :mod:`~repro.resilience.checkpoint` — atomic (write-temp + rename)
  snapshots of the full learned state: ``SUPA.state_dict()``'s one
  name-ordered map of arrays, both RNG streams, the queue residue and
  the WAL position;
* :mod:`~repro.resilience.recovery` — :func:`catch_up` turns the
  newest valid checkpoint plus one read of the WAL into a service
  **bitwise identical** to one that never crashed (:func:`recover`).
"""

from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointManager,
)
from repro.resilience.recovery import (
    QueueLogState,
    RecoveryError,
    RecoveryResult,
    catch_up,
    recover,
)
from repro.resilience.wal import (
    WalRecord,
    WalTailError,
    WalTailer,
    WriteAheadLog,
    iter_records,
    scan,
)

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CheckpointManager",
    "QueueLogState",
    "RecoveryError",
    "RecoveryResult",
    "catch_up",
    "recover",
    "WalRecord",
    "WalTailError",
    "WalTailer",
    "WriteAheadLog",
    "iter_records",
    "scan",
]
