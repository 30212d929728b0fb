"""The four workloads: universes, service configurations, operation schedules.

Everything a workload feeds the program is generated here -- the universe
and its event stream from a constant, the schedule of operations from the
seed -- and the program sees only the generated inputs.  Sizes are fixed absolute
numbers per second of ``--seconds`` (never a fraction of a calibrated
capacity), so a faster system is not handed more load.

Every workload runs the same phases (see ``phases.py``):

``live``     the traffic mix that gives the workload its name — the part
             ``--seconds`` sizes
``probe``    after ``flush()``: ``query()`` for the user of each of the
             next target-relation stream edges (``next_event_auc``)
``restart``  a few more events, ``close()`` without flush, then
             ``recover()`` on 3-4 pristine copies of the state directory
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import SUPAConfig
from repro.core.model import SUPA
from repro.datasets.base import Dataset
from repro.datasets.synthetic import BehaviorSpec, SyntheticConfig, generate
from repro.graph.streams import StreamEdge
from repro.serve.admission import AdmissionConfig
from repro.serve.service import RecommendationService, ServeConfig
from repro.utils.rng import derive_seed, new_rng

INGEST, QUERY = 0, 1
TOP_K = 10
#: events left in the queue at the crash (accepted, journaled, never trained)
RESIDUE_EVENTS = 40
#: batches ingested between the explicit checkpoint and the crash on
#: workloads whose live phase takes no checkpoints
TAIL_BATCHES = 4


@dataclass(frozen=True)
class Spec:
    """One workload at one ``--seconds``."""

    name: str
    universe: str  # "S": 2.6k-node multiplex; "L": 7.5k-node catalogue
    batch_size: int
    async_dispatch: bool
    admission: bool
    #: periodic checkpoints during the live phase; 0 = none (one explicit
    #: checkpoint is then written at the start of the restart phase)
    checkpoint_every: int
    warmup_events: int  # ingested and flushed during set-up (whole batches)
    live_events: int
    live_queries: int
    #: open-loop arrival rate of events; 0 = closed loop
    rate_eps: float
    probe_edges: int
    #: peak RSS the workload reaches on today's code; set-up touches and
    #: frees memory up to it
    expected_peak_mb: int
    #: ``recover()`` calls timed per run (the median is reported): four
    #: restarts of about a second, or three deep ones
    recoveries: int = 4

    @property
    def tail_events(self) -> int:
        if self.checkpoint_every:
            return RESIDUE_EVENTS
        return TAIL_BATCHES * self.batch_size + RESIDUE_EVENTS

    @property
    def stream_events(self) -> int:
        """Stream prefix the workload ingests (warm-up + live + tail)."""
        return self.warmup_events + self.live_events + self.tail_events


def spec_for(name: str, seconds: float) -> Spec:
    """Size ``name`` for a live phase of about ``seconds`` on the sizing host."""
    probe = max(64, min(2048, int(140 * seconds)))
    if name == "steady":
        return Spec(
            name, "S", batch_size=64, async_dispatch=True, admission=True,
            checkpoint_every=0, warmup_events=128,
            live_events=int(300 * seconds), live_queries=int(300 * seconds) // 4,
            rate_eps=300.0, probe_edges=probe, expected_peak_mb=240,
        )
    if name == "backfill":
        # a whole number of checkpoint periods plus two batches, so the
        # restart replays two batches whatever --seconds is
        periods = max(1, round(seconds * 2.6 / 8))
        return Spec(
            name, "S", batch_size=256, async_dispatch=False, admission=False,
            checkpoint_every=8, warmup_events=0,
            live_events=(8 * periods + 2) * 256, live_queries=(8 * periods + 2) * 256 // 32,
            rate_eps=0.0, probe_edges=probe, expected_peak_mb=215,
        )
    if name == "read_heavy":
        queries = 8 * int(60 * seconds)
        return Spec(
            name, "L", batch_size=64, async_dispatch=False, admission=False,
            checkpoint_every=0, warmup_events=64 * max(1, min(8, int(seconds))),
            live_events=queries // 8, live_queries=queries,
            # a probe query on this universe costs 1.5 ms: half as many
            rate_eps=0.0, probe_edges=probe // 2, expected_peak_mb=340,
        )
    if name == "crash_recover":
        # The live phase passes two checkpoints (updates `every`, 2*`every`)
        # and goes `replay` batches beyond the second, so recovery replays
        # `replay` batches and the residue.  Two periods, so recovery has
        # to pick the newer of two checkpoints.
        every = max(4, round(4.1 * seconds))
        replay = max(2, round(2 * seconds))
        return Spec(
            name, "S", batch_size=64, async_dispatch=False, admission=False,
            checkpoint_every=every, warmup_events=0,
            live_events=(2 * every + replay) * 64, live_queries=(2 * every + replay) * 64 // 32,
            rate_eps=0.0, probe_edges=probe, expected_peak_mb=200, recoveries=3,
        )
    raise KeyError(f"unknown workload {name!r}")


# ------------------------------------------------------------------ universes

_BEHAVIORS = (
    BehaviorSpec("watch", base_rate=1.0, affinity_gain=0.3),
    BehaviorSpec("like", base_rate=0.3, affinity_gain=1.5),
    BehaviorSpec("forward", base_rate=0.1, affinity_gain=1.8),
    BehaviorSpec("comment", base_rate=0.15, affinity_gain=1.6),
)

#: (authors, users, items): S ~ 2.6k nodes, L ~ 7.5k nodes; both have the
#: kuaishou-like 3 node types and 5 relations (4 behaviours + upload)
_UNIVERSE_NODES = {"S": (100, 600, 1900), "L": (500, 1000, 6000)}


#: The universe and its event stream do not change with ``--seed``.  Which
#: batches are heavy (hot nodes, long neighbour lists) is a property of the
#: generated stream, and it sets every tail: over ten seeds
#: ``crash_recover``'s visible_p99_ms spread by 12 % of its median, over
#: ten runs on one stream by 1.4 %.  A bound cannot tell a regression from
#: a seed at that spread, so the seed drives everything else instead.
UNIVERSE_SEED = 20230403


def make_dataset(universe: str, n_events: int) -> Dataset:
    authors, users, items = _UNIVERSE_NODES[universe]
    return generate(
        SyntheticConfig(
            name=f"spine-{universe}",
            mode="bipartite",
            user_type="user",
            item_type="video",
            author_type="author",
            with_authors=True,
            n_authors=authors,
            n_users=users,
            n_items=items,
            n_events=n_events,
            behaviors=_BEHAVIORS,
            behavior_divergence=0.5,
            upload_edge_type="upload",
            drift_rate=0.03,
            shift_prob=0.006,
            freshness_decay=0.002,
            popularity_skew=1.25,
            seed=UNIVERSE_SEED,
        )
    )


# ----------------------------------------------------------------- the inputs


@dataclass
class Inputs:
    """Everything generated from the seed for one run."""

    spec: Spec
    dataset: Dataset
    edges: List[StreamEdge]
    #: live-phase operations in issue order
    kinds: List[int]
    args: List[int]  # edge index (INGEST) or user id (QUERY)
    due: Optional[List[float]]  # seconds after the phase starts; None = closed loop
    probe: List[Tuple[int, int]]  # (user, item) of the next target-relation edges
    check_users: List[int]
    model_config: SUPAConfig


def zipf_users(dataset: Dataset, user_type: str, count: int, rng) -> List[int]:
    """``count`` query users, Zipf(1.1) over a seeded ranking of the users."""
    users = dataset.nodes_of_type(user_type)
    ranked = users[rng.permutation(users.size)]
    weights = np.arange(1, users.size + 1, dtype=np.float64) ** -1.1
    return ranked[rng.choice(users.size, size=count, p=weights / weights.sum())].tolist()


def make_inputs(spec: Spec, seed: int) -> Inputs:
    rng = new_rng(derive_seed(seed, 12))
    first_live = spec.warmup_events
    after_live = first_live + spec.live_events
    # the probe needs `probe_edges` target-relation edges past the live
    # prefix; about half the stream is the target relation
    n_events = max(spec.stream_events, after_live + 3 * spec.probe_edges)
    dataset = make_dataset(spec.universe, n_events)
    edges = list(dataset.stream)
    target = dataset.target_edge_types[0]
    user_type = dataset.schema.endpoints_of(target)[0]

    # One schedule shape for all four mixes: the rarer operation follows
    # every `per`-th one of the more frequent kind.
    query_users = zipf_users(dataset, user_type, spec.live_queries, rng)
    if spec.live_queries >= spec.live_events:
        frequent, rare, per = QUERY, INGEST, spec.live_queries // spec.live_events
    else:
        frequent, rare, per = INGEST, QUERY, spec.live_events // spec.live_queries
    kinds: List[int] = []
    for i in range(max(spec.live_events, spec.live_queries)):
        kinds.append(frequent)
        if (i + 1) % per == 0:
            kinds.append(rare)
    kinds = kinds[: spec.live_events + spec.live_queries]
    next_of = {INGEST: iter(range(first_live, after_live)), QUERY: iter(query_users)}
    args = [next(next_of[kind]) for kind in kinds]

    due: Optional[List[float]] = None
    if spec.rate_eps > 0:
        # Open loop.  A Poisson process conditioned on its count is that
        # many uniform draws, sorted: every seed offers exactly
        # live_events over live_events / rate seconds, so the achieved
        # rates compare across seeds.  A query is due with the event it
        # follows.
        arrivals = np.sort(rng.uniform(0.0, spec.live_events / spec.rate_eps, spec.live_events))
        event_of_op = np.maximum(np.cumsum(np.asarray(kinds) == INGEST) - 1, 0)
        due = arrivals[event_of_op].tolist()

    probe = [(e.u, e.v) for e in edges[after_live:] if e.edge_type == target]
    probe = probe[: spec.probe_edges]
    all_users = dataset.nodes_of_type(user_type)
    check_users = rng.choice(all_users, size=min(64, all_users.size), replace=False).tolist()
    return Inputs(
        spec=spec,
        dataset=dataset,
        edges=edges,
        kinds=kinds,
        args=args,
        due=due,
        probe=probe,
        check_users=check_users,
        model_config=SUPAConfig(seed=derive_seed(seed, 13)),
    )


# ---------------------------------------------------------------- the service


def serve_config(spec: Spec, state_dir: str, async_dispatch: Optional[bool] = None) -> ServeConfig:
    """The deployed configuration of ``spec`` journaling into ``state_dir``."""
    return ServeConfig(
        batch_size=spec.batch_size,
        async_dispatch=spec.async_dispatch if async_dispatch is None else async_dispatch,
        wal_path=os.path.join(state_dir, "wal.log"),
        checkpoint_dir=os.path.join(state_dir, "checkpoints"),
        checkpoint_every=spec.checkpoint_every,
        clock_fn=time.perf_counter,
        admission=(
            AdmissionConfig(rate_per_user=200.0, burst=400.0, depth_highwater=0.9)
            if spec.admission
            else None
        ),
    )


def make_service(
    inputs: Inputs, state_dir: str, config: Optional[ServeConfig] = None
) -> RecommendationService:
    os.makedirs(state_dir, exist_ok=True)
    model = SUPA.for_dataset(inputs.dataset, inputs.model_config)
    return RecommendationService(
        inputs.dataset, model=model, config=config or serve_config(inputs.spec, state_dir)
    )
