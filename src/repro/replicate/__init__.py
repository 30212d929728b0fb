"""repro.replicate: WAL-shipping read replicas with bounded staleness.

Single-writer, many-reader replication built on the existing
durability layer — no new log format, no consensus:

* :mod:`~repro.replicate.config` — the shared on-disk layout (one
  directory per role);
* :mod:`~repro.replicate.primary` — :class:`ReplicationPrimary`, the
  writable update loop publishing its one-file WAL plus
  clock-stamped heartbeat records;
* :mod:`~repro.replicate.follower` — :class:`ReplicationFollower`,
  which bootstraps from the newest shipped checkpoint, tails the WAL
  through :class:`~repro.resilience.wal.WalTailer`, replays decisions
  into its own store/index (bitwise-parity discipline borrowed from
  crash recovery) and serves read-only top-K with measured, bounded
  staleness — or promotes itself to writable when the primary dies;
* :mod:`~repro.replicate.failover` — the determinism contract:
  served ≡ offline (``parity_matches``) and :func:`compare_services`
  (state fingerprint, RNG streams, top-K) against a reference.
"""

from repro.replicate.config import checkpoint_dir, wal_path
from repro.replicate.failover import compare_services, state_fingerprint
from repro.replicate.follower import ReplicationError, ReplicationFollower
from repro.replicate.primary import ReplicationPrimary

__all__ = [
    "checkpoint_dir",
    "wal_path",
    "compare_services",
    "state_fingerprint",
    "ReplicationError",
    "ReplicationFollower",
    "ReplicationPrimary",
]
