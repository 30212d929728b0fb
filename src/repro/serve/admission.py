"""Admission control for the serving ingest path.

Backpressure (:mod:`repro.serve.ingest`) protects the *queue*; this
module protects the *system*: for every valid, timely event offered to
``put()`` the :class:`AdmissionController` decides whether to admit,
throttle or shed it, so overload is absorbed by explicit, journaled
policy instead of unbounded queue wait or producer exceptions.

Two mechanisms compose, checked in order per offered event:

1. **Per-user token buckets** — each user refills at
   ``rate_per_user`` tokens/second up to ``burst``; an empty bucket
   throttles the event (``"throttle: user rate"``).  Buckets live in an
   LRU bounded at :data:`MAX_TRACKED_USERS` (the heavy-hitter working
   set stays resident; an evicted user returns to a fresh full bucket),
   the same ``OrderedDict`` idiom as the top-K cache.
2. **Overload watermarks with hysteresis** — the controller escalates
   ``NORMAL -> SHEDDING`` when queue depth crosses ``depth_highwater``
   (as a fraction of capacity) and de-escalates only once it falls back
   to :data:`DEPTH_LOWWATER`, so the state cannot flap at the boundary.
   While ``SHEDDING`` every new event is refused (``"shed: reject"``).
   Batches are cut by *count*, so a low watermark below one batch would
   be absorbing; :class:`~repro.serve.service.ServeConfig` refuses a
   capacity that puts it there.

The controller is deliberately *pure decision*: it never touches the
queue, the WAL or metrics.  The queue consults it inside its one intake
decision (under the queue lock, with the exact depth) and acts on the
returned :class:`AdmissionDecision` — journaling every shed/throttle to
the WAL ledger before the deadletter — which is what keeps the
``decision_ledger`` / ``deadletters_by_reason`` /
:meth:`AdmissionController.counts` reconciliation exact (DESIGN.md §8).
Time is injected (``clock``): benches and tests pass a deterministic
counter, making the whole admission layer replayable.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.graph.streams import StreamEdge

#: hysteresis states of the overload escalation machine
NORMAL = "normal"
SHEDDING = "shedding"

#: ledger reason strings (category before ":" buckets the deadletter)
REASON_THROTTLE = "throttle: user rate"
REASON_REJECT = "shed: reject"

#: LRU bound on live token buckets
MAX_TRACKED_USERS = 1024

#: queue-depth fraction at or below which SHEDDING stands down; every
#: ``depth_highwater`` sits above it (the hysteresis band)
DEPTH_LOWWATER = 0.5


@dataclass
class AdmissionConfig:
    """Knobs for :class:`AdmissionController`.

    Defaults are permissive: no rate limit, escalation only at 90% queue
    depth.
    """

    rate_per_user: float = 0.0  # tokens/second; 0 disables rate limiting
    burst: float = 10.0  # bucket capacity (max tokens banked)
    depth_highwater: float = 0.9  # queue-depth fraction that escalates

    def __post_init__(self) -> None:
        if self.rate_per_user < 0:
            raise ValueError(
                f"rate_per_user must be >= 0, got {self.rate_per_user}"
            )
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if not DEPTH_LOWWATER < self.depth_highwater <= 1.0:
            raise ValueError(
                f"depth_highwater must be in ({DEPTH_LOWWATER}, 1], got "
                f"{self.depth_highwater}"
            )


@dataclass(frozen=True)
class AdmissionDecision:
    """What to do with one offered event.

    ``admitted`` — whether the event may enter the queue;
    ``action`` — ``"admit"``, ``"throttle"`` or ``"shed"``;
    ``reason`` — the ledger reason string (empty for an admit), whose
    text before the first ``":"`` is the deadletter category.
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
        self, edge: StreamEdge, queue_depth: int, capacity: int
    ) -> AdmissionDecision:
        """Decide one offered event against the current queue pressure.

        ``queue_depth``/``capacity`` describe the queue at this very
        offer (the queue calls this under its own lock).  Rate limiting
        applies in every state; shedding applies only while escalated.
        """
        now = self._clock()  # outside the lock: clocks may be injected
        with self._lock:
            self._offered += 1
            if not self._throttle_allows(int(edge.u), now):
                self.throttled += 1
                return AdmissionDecision(False, "throttle", REASON_THROTTLE)
            self._update_state(queue_depth, capacity)
            if self._state == NORMAL:
                self.admitted += 1
                return ADMIT
            self.shed += 1
            return AdmissionDecision(False, "shed", REASON_REJECT)

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
        while len(self._buckets) > MAX_TRACKED_USERS:
            self._buckets.popitem(last=False)  # LRU: coldest user evicted
        return allowed

    def _update_state(self, queue_depth: int, capacity: int) -> None:
        """Run the hysteresis machine on one depth reading.

        Caller must hold ``self._lock``.  Escalates at the high
        watermark; de-escalates only at or below the low one.
        """
        fraction = queue_depth / capacity if capacity > 0 else 0.0
        if self._state == NORMAL:
            if fraction >= self.config.depth_highwater:
                self._state = SHEDDING
                self.escalations += 1
        elif fraction <= DEPTH_LOWWATER:
            self._state = NORMAL
            self.de_escalations += 1

    # ------------------------------------------------------------ observation

    @property
    def state(self) -> str:
        """Current escalation state: ``"normal"`` or ``"shedding"``."""
        with self._lock:
            return self._state

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
