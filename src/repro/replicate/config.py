"""The on-disk layout both replication roles agree on.

A replicated deployment is one directory per role: the primary owns
``state_dir`` (its WAL file + checkpoints), and each follower that
gets promoted owns a ``replica_dir`` with the identical layout.  The
layout functions here are the single source of truth for where the
shipped files live, so the primary, follower and CLI can never disagree
about paths.
"""

from __future__ import annotations

import os

#: WAL file name inside a role's state directory
WAL_BASENAME = "replicate.wal"

#: checkpoint directory name inside a role's state directory
CHECKPOINT_DIRNAME = "checkpoints"


def wal_path(state_dir: str) -> str:
    """The WAL file inside ``state_dir``."""
    return os.path.join(state_dir, WAL_BASENAME)


def checkpoint_dir(state_dir: str) -> str:
    """The checkpoint directory inside ``state_dir``."""
    return os.path.join(state_dir, CHECKPOINT_DIRNAME)

