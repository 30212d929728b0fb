"""The measured phases of a run and the correctness checks after them.

``live`` → ``probe`` → ``restart`` are timed; the checks are not.  Each
phase returns raw timings; ``worker.py`` turns them into metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.replicate.failover import state_fingerprint
from repro.resilience.recovery import recover
from repro.resilience.wal import decision_ledger
from repro.serve.service import RecommendationService

from hostspeed import PROBE_EVERY, SpeedLog
from workloads import INGEST, TOP_K, Inputs, make_service, serve_config

_clock = time.perf_counter
LONG_OPERATION = 0.02  # seconds


def state_digest(service: RecommendationService) -> str:
    """The repo's SHA-256 over every learned array, extended with both RNG
    streams: equal iff two services would train and answer identically
    from here on."""
    rng_states = (service.model.rng.bit_generator.state, service.trainer.rng_state())
    return hashlib.sha256(
        (state_fingerprint(service) + json.dumps(rng_states, sort_keys=True, default=int)).encode()
    ).hexdigest()


def watch_visibility(service: RecommendationService) -> List[float]:
    """Stamp the return of every ``index.invalidate`` call.

    That return is the first instant every ``query()`` reflects the
    batch just trained.  One clock read per *batch*, installed in the
    untraced pass too: it is how visibility is observed at all.
    """
    stamps: List[float] = []
    inner = service.index.invalidate

    def invalidate(*args, **kwargs):
        result = inner(*args, **kwargs)
        stamps.append(_clock())
        return result

    service.index.invalidate = invalidate  # instance attribute; the class is untouched
    return stamps


def unwatch_visibility(service: RecommendationService) -> None:
    del service.index.invalidate


@dataclass
class Failures:
    """Operations that were refused, errored, dropped or answered wrongly."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)

    def tally(self, attempted: int, failed: int, note: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{note}: {failed} of {attempted}")


# ----------------------------------------------------------------------- live


@dataclass
class LiveResult:
    begin: float
    end: float  # after flush()
    last_return: float  # last operation returned (before flush)
    kinds: np.ndarray
    start: np.ndarray  # due time (open loop) or issue time (closed loop)
    issued: np.ndarray
    done: np.ndarray
    ok: np.ndarray
    visible_at: np.ndarray  # per accepted event, in accept order
    batch_full_at: np.ndarray  # per accepted event: when the last event of its batch was accepted
    cpu_seconds: float


def run_live(
    inputs: Inputs,
    service: RecommendationService,
    stamps: List[float],
    failures: Failures,
    speed: SpeedLog,
    set_request: Optional[Callable[[str], None]] = None,
) -> LiveResult:
    """Issue the live-phase operations from one driver thread, then flush.

    Between operations, every ``PROBE_EVERY`` seconds, the driver times
    the host-speed kernel (``hostspeed.py``)."""
    kinds, args, due, edges = inputs.kinds, inputs.args, inputs.due, inputs.edges
    n = len(kinds)
    issued = [0.0] * n
    done = [0.0] * n
    ok = [False] * n
    ingest, query, sleep = service.ingest, service.query, time.sleep
    del stamps[:]
    cpu_begin = time.process_time()
    begin = speed.sample(3)
    next_probe = begin + PROBE_EVERY
    for i in range(n):
        if _clock() >= next_probe:
            # an update inside the last operation hid the host from the
            # kernel for its whole length: look three times
            hidden = i > 0 and done[i - 1] - issued[i - 1] > LONG_OPERATION
            next_probe = speed.sample(3 if hidden else 1) + PROBE_EVERY
        if due is not None:
            # Sleep, never spin: a spinning generator would take the GIL
            # from the dispatcher thread it is supposed to load.
            delay = begin + due[i] - _clock()
            if delay > 0:
                sleep(delay)
        if set_request is not None:
            set_request(("e%d" if kinds[i] == INGEST else "q%d") % i)
        t0 = _clock()
        try:
            if kinds[i] == INGEST:
                ok[i] = ingest(edges[args[i]])
            else:
                answer = query(args[i], TOP_K)
                ok[i] = not answer.degraded and len(answer.items) == TOP_K
        except Exception as exc:  # counted, reported, fatal to the exit code
            failures.notes.append(f"op {i}: {type(exc).__name__}: {exc}")
        done[i] = _clock()
        issued[i] = t0
    last_return = done[-1]
    service.flush()
    end = _clock()
    speed.sample(3)
    cpu_end = time.process_time()

    kinds_a = np.asarray(kinds)
    issued_a = np.asarray(issued)
    ok_a = np.asarray(ok)
    start = begin + np.asarray(due) if due is not None else issued_a
    failures.tally(n, int(n - ok_a.sum()), "live operations refused, degraded or errored")

    # Batches are cut FIFO by accept order, so invalidate k covers the
    # accepted events [k*B, k*B + B); the flush publishes the remainder.
    accepted = int(ok_a[kinds_a == INGEST].sum())
    batch = inputs.spec.batch_size
    expected_batches = -(-accepted // batch)
    failures.check(
        len(stamps) == expected_batches,
        f"{len(stamps)} publishes for {accepted} accepted events, expected {expected_batches}",
    )
    stamp_array = np.asarray(stamps[:expected_batches] or [end])
    batch_of = np.minimum(np.arange(accepted) // batch, stamp_array.size - 1)
    done_a = np.asarray(done)
    accepted_at = done_a[(kinds_a == INGEST) & ok_a]
    # the flush, not a last event, completes a short final batch
    full_array = np.append(accepted_at[batch - 1 :: batch], last_return)
    return LiveResult(
        begin=begin,
        end=end,
        last_return=last_return,
        kinds=kinds_a,
        start=start,
        issued=issued_a,
        done=done_a,
        ok=ok_a,
        visible_at=stamp_array[batch_of],
        batch_full_at=full_array[np.arange(accepted) // batch],
        cpu_seconds=cpu_end - cpu_begin,
    )


# ---------------------------------------------------------------------- probe


@dataclass
class ProbeResult:
    begin: float
    end: float
    hit10: float  # share of next edges whose item is in the served top-10
    auc: float  # mean share of the catalogue the served scores rank below the next item


def run_probe(inputs: Inputs, service: RecommendationService, failures: Failures) -> ProbeResult:
    """Against the quiesced service, a query for the user of each next
    target-relation edge: does what is served anticipate what comes?"""
    begin = _clock()
    answers = [service.query(user, TOP_K) for user, _item in inputs.probe]
    end = _clock()
    hits = sum(
        1 for (_u, item), answer in zip(inputs.probe, answers) if item in answer.items.tolist()
    )
    bad = sum(1 for a in answers if a.degraded or len(a.items) != TOP_K)
    failures.tally(len(answers), bad, "probe queries degraded or short")

    # Untimed: where the served snapshot ranks each next item among the
    # whole catalogue.  hit@10 of a model a few seconds old is a handful
    # of hits whose count swings 2x from seed to seed; the rank share
    # uses every probe edge and is steady enough to carry a bound.
    snapshot = service.store.snapshot()
    position = {int(item): i for i, item in enumerate(service.items)}
    scores_of: Dict[int, np.ndarray] = {}
    below = []
    for user, item in inputs.probe:
        scores = scores_of.get(user)
        if scores is None:
            scores = scores_of[user] = service.index.scores(snapshot, user)
        below.append(float((scores < scores[position[item]]).sum()) / (scores.size - 1))
    return ProbeResult(begin, end, hits / max(1, len(answers)), float(np.mean(below)))


def check_offline_parity(
    inputs: Inputs, service: RecommendationService, failures: Failures
) -> None:
    """On a quiesced service the served top-K equals the offline ranking."""
    for user in inputs.check_users:
        served = service.recommend(user, TOP_K)
        offline = service.offline_top_k(user, TOP_K)
        failures.check(
            np.array_equal(served, offline), f"recommend({user}) != offline_top_k({user})"
        )


# -------------------------------------------------------------------- restart


@dataclass
class RestartResult:
    begin: float
    end: float
    recover_seconds: List[float]
    recover_began: List[float]
    replayed_events: int
    replayed_batches: int
    wal_bytes: int


def run_restart(
    inputs: Inputs,
    service: RecommendationService,
    state_dir: str,
    failures: Failures,
    speed: SpeedLog,
) -> RestartResult:
    """Crash ``service`` mid-stream, then recover copies of what it left.

    Closes ``service``.  Each recovery gets a pristine copy of the state
    directory because ``recover()`` reopens (and keeps appending to) the
    WAL it replays.
    """
    spec = inputs.spec
    applied = service.metrics.counter("updates.applied")
    begin = _clock()
    updates_at_checkpoint = int(applied.value)
    if not spec.checkpoint_every:
        service.checkpoint()
    first = spec.warmup_events + spec.live_events
    refused = sum(
        0 if service.ingest(edge) else 1 for edge in inputs.edges[first : first + spec.tail_events]
    )
    failures.tally(spec.tail_events, refused, "tail events refused")
    service.close()  # no flush: the residue stays journaled but untrained
    crashed_digest = state_digest(service)
    if spec.checkpoint_every:
        updates_at_checkpoint = int(applied.value) - int(applied.value) % spec.checkpoint_every
    planned_batches = int(applied.value) - updates_at_checkpoint
    planned_residue = service.queue.pending
    wal_bytes = sum(
        os.path.getsize(os.path.join(state_dir, name))
        for name in os.listdir(state_dir)
        if name.startswith("wal.log")
    )

    recover_seconds: List[float] = []
    recover_began: List[float] = []
    replayed_events = replayed_batches = 0
    for attempt in range(spec.recoveries):
        copy_dir = f"{state_dir}-recover{attempt}"
        shutil.copytree(state_dir, copy_dir)
        t0 = speed.sample(6)
        result = recover(
            inputs.dataset, serve_config(spec, copy_dir), model_config=inputs.model_config
        )
        t1 = _clock()
        speed.sample(6)
        recover_seconds.append(t1 - t0)
        recover_began.append(t0)
        recovered = result.service
        failures.check(
            state_digest(recovered) == crashed_digest,
            f"recovery {attempt}: state digest differs from the crashed process",
        )
        failures.check(
            result.replayed_batches == planned_batches
            and result.residue_events == planned_residue,
            f"recovery {attempt}: replayed {result.replayed_batches} batches / "
            f"{result.residue_events} residue, planned {planned_batches} / {planned_residue}",
        )
        replayed_events, replayed_batches = result.replayed_events, result.replayed_batches
        recovered.close()
        shutil.rmtree(copy_dir)
        # a service is a web of reference cycles (queue handler <-> service);
        # without this each recovered model lives on into the next recovery
        # and the run's peak RSS counts all of them
        del result, recovered
        gc.collect()
    return RestartResult(
        begin, _clock(), recover_seconds, recover_began, replayed_events, replayed_batches,
        wal_bytes,
    )


# ------------------------------------------------------- steady-only checks


def check_ledger(
    inputs: Inputs, service: RecommendationService, state_dir: str, failures: Failures
) -> None:
    """accepted + denied == offered, and the WAL's decision ledger agrees
    with the queue's deadletter tallies reason for reason."""
    offered = int(service.metrics.counter("ingest.offered").value)
    queue = service.queue
    refused = queue.shed + queue.rejected + queue.dropped
    failures.check(
        queue.accepted + refused == offered,
        f"accepted {queue.accepted} + refused {refused} != offered {offered}",
    )
    ledger = decision_ledger(os.path.join(state_dir, "wal.log"))
    tallies = queue.deadletters_by_reason()
    for kind in ("shed", "throttle"):
        journaled = sum(ledger[kind].values())
        failures.check(
            journaled == tallies.get(kind, 0),
            f"WAL ledger has {journaled} {kind} records, queue tallied {tallies.get(kind, 0)}",
        )


def check_async_parity(inputs: Inputs, scratch_dir: str, events: int, failures: Failures) -> None:
    """Async-drained state == inline state over the same accepted events."""
    digests: Dict[bool, str] = {}
    prefix = inputs.edges[:events]
    for async_dispatch in (False, True):
        state_dir = os.path.join(scratch_dir, f"parity-{int(async_dispatch)}")
        config = serve_config(inputs.spec, state_dir, async_dispatch=async_dispatch)
        config.admission = None  # every event of the prefix is accepted
        service = make_service(inputs, state_dir, config)
        try:
            refused = sum(0 if service.ingest(edge) else 1 for edge in prefix)
            service.flush()
        finally:
            service.close()
        failures.tally(len(prefix), refused, "parity prefix events refused")
        digests[async_dispatch] = state_digest(service)
    failures.check(digests[True] == digests[False], "async-drained digest != inline digest")
