"""The primary role: the single writer whose WAL is the shipped truth.

A :class:`ReplicationPrimary` is a thin shell around the existing
:class:`~repro.serve.service.RecommendationService` update loop.  It
adds exactly two replication duties:

1. **Own the shipped layout** — the WAL (one append-only file) and the
   checkpoints live under one ``state_dir`` that followers read from
   (:mod:`repro.replicate.config` fixes the paths).
2. **Prove liveness** — every ``heartbeat_every`` offered events a
   ``heartbeat`` record stamped with the primary's clock is appended to
   the WAL.  Followers measure staleness against these stamps and treat
   their absence as primary death (the promote trigger).

Single-writer contract: one thread drives ``ingest``/``heartbeat``;
the underlying service and WAL are themselves thread-safe, but the
heartbeat cadence counter is intentionally unsynchronised.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Callable, Optional

from repro.core.config import SUPAConfig
from repro.core.inslearn import InsLearnConfig
from repro.core.model import SUPA
from repro.datasets.base import Dataset
from repro.graph.streams import StreamEdge
from repro.replicate.config import checkpoint_dir, wal_path
from repro.serve.service import RecommendationService, ServeConfig


class ReplicationPrimary:
    """Run the writable update loop while publishing its WAL.

    Parameters
    ----------
    dataset:
        Node universe and schema, shared verbatim with every follower.
    state_dir:
        Directory this primary owns; the WAL and checkpoints are always
        placed at the layout paths inside it (any ``wal_path`` /
        ``checkpoint_dir`` already set on ``serve_config`` is
        overridden — followers must be able to find the files).
    serve_config / model_config / train_config:
        Forwarded to the service; the WAL and checkpoint paths are
        filled in from ``state_dir``, and ``serve_config.checkpoint_every``
        is the checkpoint cadence (0 = never).
    heartbeat_every:
        Append a heartbeat record every N offered events (``>= 1``).
    clock:
        Injectable time source for heartbeat stamps (seconds); defaults
        to :func:`time.monotonic`.  Followers compare these stamps to
        their own clock, so both sides must share a clock domain (true
        for WAL shipping over a shared filesystem on one host).
    """

    def __init__(
        self,
        dataset: Dataset,
        state_dir: str,
        serve_config: Optional[ServeConfig] = None,
        model_config: Optional[SUPAConfig] = None,
        train_config: Optional[InsLearnConfig] = None,
        heartbeat_every: int = 32,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.dataset = dataset
        self.state_dir = state_dir
        if heartbeat_every < 1:
            raise ValueError(
                f"heartbeat_every must be >= 1, got {heartbeat_every}"
            )
        self.heartbeat_every = int(heartbeat_every)
        self._clock = clock if clock is not None else time.monotonic
        os.makedirs(state_dir, exist_ok=True)
        config = replace(
            serve_config or ServeConfig(),
            wal_path=wal_path(state_dir),
            checkpoint_dir=checkpoint_dir(state_dir),
        )
        model = SUPA.for_dataset(dataset, model_config)
        self.service = RecommendationService(
            dataset,
            model=model,
            config=config,
            train_config=train_config,
        )
        self.service.metrics.counter("replica.heartbeats")
        self._since_heartbeat = 0
        # announce liveness before the first event so a follower that
        # bootstraps against an idle primary still sees a heartbeat
        self.heartbeat()

    # ------------------------------------------------------------- publishing

    def ingest(self, edge: StreamEdge) -> bool:
        """Offer one event; heartbeats ride along at the configured cadence."""
        accepted = self.service.ingest(edge)
        self._since_heartbeat += 1
        if self._since_heartbeat >= self.heartbeat_every:
            self.heartbeat()
        return accepted

    def heartbeat(self) -> None:
        """Append one liveness record stamped with the primary clock."""
        self.service.wal.append_heartbeat(self._clock())
        self._since_heartbeat = 0
        self.service.metrics.counter("replica.heartbeats").inc()

    def flush(self) -> int:
        """Drain buffered events through updates (quiesce)."""
        return self.service.flush()

    def checkpoint(self) -> Optional[str]:
        """Write one atomic checkpoint now; returns its path."""
        return self.service.checkpoint()

    # ------------------------------------------------------------- inspection

    @property
    def last_seq(self) -> int:
        """WAL position of the newest shipped record."""
        return self.service.wal.last_seq

    @property
    def metrics(self):
        return self.service.metrics

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Stop without flushing, checkpointing or a farewell heartbeat —
        what a killed process leaves: the WAL handle is released and
        buffered events stay journaled (a follower inherits them as
        queue residue)."""
        self.service.close()

    def __enter__(self) -> "ReplicationPrimary":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
