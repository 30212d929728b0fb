"""Admission control for the serving ingest path.

Backpressure (:mod:`repro.serve.ingest`) protects the *queue*; this
module protects the *system*: for every valid, timely event offered to
``put()`` the :class:`AdmissionController` decides whether to admit,
throttle or shed it, so overload is absorbed by explicit, journaled
policy instead of unbounded queue wait or producer exceptions.

Three mechanisms compose, checked in order per offered event:

1. **Per-user token buckets** — each user refills at
   ``rate_per_user`` tokens/second up to ``burst``; an empty bucket
   throttles the event (``"throttle: user rate"``).  Buckets live in an
   LRU bounded at ``max_tracked_users`` (the heavy-hitter working set
   stays resident; an evicted user returns to a fresh full bucket), the
   same ``OrderedDict`` idiom as the top-K cache.
2. **Overload watermarks with hysteresis** — the controller escalates
   ``NORMAL -> SHEDDING`` when queue depth crosses
   ``depth_highwater`` (as a fraction of capacity), staleness crosses
   ``staleness_highwater`` seconds, or pending events reach
   ``max_inflight``; it de-escalates only when *all* pressure signals
   fall back below the low watermarks, so the state cannot flap at the
   boundary.
3. **Shed policies** — while ``SHEDDING``, one of: ``reject`` (deny the
   new event), ``drop_head`` (admit it but evict the queue head first —
   freshest-wins), ``degrade_to_sample`` (keep a deterministic
   ``sample_keep`` fraction, hashed from the seed and the offered-event
   ordinal via :func:`~repro.utils.rng.derive_seed` — no RNG object, no
   clock, bitwise reproducible).

The controller is deliberately *pure decision*: it never touches the
queue, the WAL or metrics.  The queue consults it inside its one intake
decision (under the queue lock, with the exact depth and head age) and
acts on the returned :class:`AdmissionDecision` — journaling every
shed/throttle to the WAL ledger before the deadletter — which is what
keeps the ``decision_ledger`` / ``deadletters_by_reason`` /
:meth:`AdmissionController.counts` reconciliation exact (DESIGN.md §8).  Time is injected (``clock``): benches and tests pass
a deterministic counter, making the whole admission layer replayable.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.graph.streams import StreamEdge
from repro.utils.rng import derive_seed

#: shed policies accepted by :class:`AdmissionConfig`
SHED_POLICIES = ("reject", "drop_head", "degrade_to_sample")

#: hysteresis states of the overload escalation machine
NORMAL = "normal"
SHEDDING = "shedding"

#: ledger reason strings (category before ":" buckets the deadletter)
REASON_THROTTLE = "throttle: user rate"
REASON_REJECT = "shed: reject"
REASON_DROP_HEAD = "shed: drop_head"
REASON_SAMPLE = "shed: sample"

#: resolution of the deterministic keep/drop hash for degrade_to_sample
_SAMPLE_BUCKETS = 1 << 20


@dataclass
class AdmissionConfig:
    """Knobs for :class:`AdmissionController`.

    Defaults are permissive: no rate limit, no inflight cap, escalation
    only at 90% queue depth, ``reject`` shedding.  ``seed`` pins the
    ``degrade_to_sample`` hash so two runs shed the same events.
    """

    rate_per_user: float = 0.0  # tokens/second; 0 disables rate limiting
    burst: float = 10.0  # bucket capacity (max tokens banked)
    max_tracked_users: int = 1024  # LRU bound on live buckets
    max_inflight: int = 0  # pending-event cap forcing escalation; 0 = off
    shed_policy: str = "reject"  # reject | drop_head | degrade_to_sample
    depth_highwater: float = 0.9  # queue-depth fraction that escalates
    depth_lowwater: float = 0.5  # fraction required to de-escalate
    staleness_highwater: Optional[float] = None  # seconds; None = off
    staleness_lowwater: Optional[float] = None  # defaults to half the high
    sample_keep: float = 0.5  # fraction kept under degrade_to_sample
    seed: int = 0  # pins the deterministic sampling hash

    def __post_init__(self) -> None:
        if self.rate_per_user < 0:
            raise ValueError(
                f"rate_per_user must be >= 0, got {self.rate_per_user}"
            )
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.max_tracked_users < 1:
            raise ValueError(
                f"max_tracked_users must be >= 1, got {self.max_tracked_users}"
            )
        if self.max_inflight < 0:
            raise ValueError(
                f"max_inflight must be >= 0, got {self.max_inflight}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {self.shed_policy!r}"
            )
        if not 0.0 < self.depth_highwater <= 1.0:
            raise ValueError(
                f"depth_highwater must be in (0, 1], got {self.depth_highwater}"
            )
        if not 0.0 <= self.depth_lowwater <= self.depth_highwater:
            raise ValueError(
                "depth_lowwater must be in [0, depth_highwater], got "
                f"{self.depth_lowwater}"
            )
        if self.staleness_highwater is not None and self.staleness_highwater <= 0:
            raise ValueError(
                "staleness_highwater must be > 0 when set, got "
                f"{self.staleness_highwater}"
            )
        if self.staleness_lowwater is None and self.staleness_highwater is not None:
            self.staleness_lowwater = self.staleness_highwater / 2.0
        if (
            self.staleness_lowwater is not None
            and self.staleness_highwater is not None
            and not 0.0 <= self.staleness_lowwater <= self.staleness_highwater
        ):
            raise ValueError(
                "staleness_lowwater must be in [0, staleness_highwater], got "
                f"{self.staleness_lowwater}"
            )
        if not 0.0 < self.sample_keep <= 1.0:
            raise ValueError(
                f"sample_keep must be in (0, 1], got {self.sample_keep}"
            )


@dataclass(frozen=True)
class AdmissionDecision:
    """What to do with one offered event.

    ``admitted`` — whether the event may enter the queue;
    ``action`` — ``"admit"``, ``"throttle"``, ``"shed"`` or
    ``"drop_head"`` (admit the event, but shed the queue head first);
    ``reason`` — the ledger reason string (empty for a plain admit),
    whose text before the first ``":"`` is the deadletter category.
    """

    admitted: bool
    action: str = "admit"
    reason: str = ""


#: the always-admit decision, shared (it is frozen)
ADMIT = AdmissionDecision(True)


class AdmissionController:
    """Decide admit/throttle/shed for each offered event.

    Parameters
    ----------
    config:
        See :class:`AdmissionConfig`.
    clock:
        Seconds-valued time source for token refill; defaults to
        :func:`time.monotonic`.  Inject a deterministic counter to make
        rate limiting replayable.
    """

    def __init__(
        self,
        config: Optional[AdmissionConfig] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.config = config or AdmissionConfig()
        self._clock = clock if clock is not None else time.monotonic
        # Guards the bucket LRU, the hysteresis state and the decision
        # tallies.  Ranks just below the queue lock (DESIGN.md §12) and
        # is a leaf: the controller calls nothing while holding it
        # (clock reads happen before acquisition).
        self._lock = threading.Lock()
        #: user id -> (tokens banked, last refill time); LRU order
        self._buckets: "OrderedDict[int, tuple]" = OrderedDict()
        self._state = NORMAL
        self._offered = 0
        self.admitted = 0
        self.throttled = 0
        self.shed = 0
        self.escalations = 0
        self.de_escalations = 0

    # ------------------------------------------------------------- decisions

    def admit(
        self,
        edge: StreamEdge,
        queue_depth: int,
        capacity: int,
        staleness_seconds: float = 0.0,
    ) -> AdmissionDecision:
        """Decide one offered event against the current pressure signals.

        ``queue_depth``/``capacity``/``staleness_seconds`` describe the
        queue at this very offer (the queue calls this under its own
        lock).  Rate limiting applies in every state; shedding applies
        only while escalated.
        """
        now = self._clock()  # outside the lock: clocks may be injected
        with self._lock:
            self._offered += 1
            ordinal = self._offered
            if not self._throttle_allows(int(edge.u), now):
                self.throttled += 1
                return AdmissionDecision(False, "throttle", REASON_THROTTLE)
            self._update_state(queue_depth, capacity, staleness_seconds)
            if self._state == NORMAL:
                self.admitted += 1
                return ADMIT
            policy = self.config.shed_policy
            if policy == "reject":
                self.shed += 1
                return AdmissionDecision(False, "shed", REASON_REJECT)
            if policy == "drop_head":
                # the queue sheds its head once the new event is about
                # to be buffered (freshest-wins under overload)
                self.shed += 1
                self.admitted += 1
                return AdmissionDecision(True, "drop_head", REASON_DROP_HEAD)
            # degrade_to_sample: deterministic keep/drop by ordinal.
            # The ordinal is salted twice: one LCG step maps consecutive
            # ordinals to consecutive outputs (a narrow band mod the
            # bucket count — all-or-nothing, not a sample); the second
            # step multiplies that difference out across the range.
            keep_hash = (
                derive_seed(self.config.seed, ordinal, ordinal)
                % _SAMPLE_BUCKETS
            )
            if keep_hash >= int(self.config.sample_keep * _SAMPLE_BUCKETS):
                self.shed += 1
                return AdmissionDecision(False, "shed", REASON_SAMPLE)
            self.admitted += 1
            return ADMIT

    # ------------------------------------------------- internals (lock held)

    def _throttle_allows(self, user: int, now: float) -> bool:
        """Refill and charge ``user``'s token bucket; True when allowed.

        Caller must hold ``self._lock``.
        """
        rate = self.config.rate_per_user
        if rate <= 0:
            return True
        burst = self.config.burst
        entry = self._buckets.get(user)
        if entry is None:
            tokens, last = burst, now
        else:
            tokens, last = entry
            tokens = min(burst, tokens + max(0.0, now - last) * rate)
        allowed = tokens >= 1.0
        if allowed:
            tokens -= 1.0
        self._buckets[user] = (tokens, now)
        self._buckets.move_to_end(user)
        while len(self._buckets) > self.config.max_tracked_users:
            self._buckets.popitem(last=False)  # LRU: coldest user evicted
        return allowed

    def _update_state(
        self, queue_depth: int, capacity: int, staleness_seconds: float
    ) -> None:
        """Run the hysteresis machine on one pressure snapshot.

        Caller must hold ``self._lock``.  Escalates when *any* signal
        crosses its high watermark; de-escalates only when *all* fall
        below the low ones.
        """
        cfg = self.config
        fraction = queue_depth / capacity if capacity > 0 else 0.0
        over_depth = fraction >= cfg.depth_highwater
        over_stale = (
            cfg.staleness_highwater is not None
            and staleness_seconds >= cfg.staleness_highwater
        )
        over_inflight = cfg.max_inflight > 0 and queue_depth >= cfg.max_inflight
        if self._state == NORMAL:
            if over_depth or over_stale or over_inflight:
                self._state = SHEDDING
                self.escalations += 1
            return
        under_depth = fraction <= cfg.depth_lowwater
        under_stale = (
            cfg.staleness_highwater is None
            or staleness_seconds <= (cfg.staleness_lowwater or 0.0)
        )
        under_inflight = cfg.max_inflight == 0 or queue_depth < cfg.max_inflight
        if under_depth and under_stale and under_inflight:
            self._state = NORMAL
            self.de_escalations += 1

    # ------------------------------------------------------------ observation

    @property
    def state(self) -> str:
        """Current escalation state: ``"normal"`` or ``"shedding"``."""
        with self._lock:
            return self._state

    @property
    def offered(self) -> int:
        """Events this controller has decided on."""
        with self._lock:
            return self._offered

    @property
    def tracked_users(self) -> int:
        """Live token buckets (bounded by ``max_tracked_users``)."""
        with self._lock:
            return len(self._buckets)

    def counts(self) -> Dict[str, int]:
        """A consistent snapshot of the decision tallies."""
        with self._lock:
            return {
                "offered": self._offered,
                "admitted": self.admitted,
                "throttled": self.throttled,
                "shed": self.shed,
                "escalations": self.escalations,
                "de_escalations": self.de_escalations,
            }
