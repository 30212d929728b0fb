"""Tests for the admission controller: token buckets, hysteresis, rejection."""

import pytest

from repro.graph.streams import StreamEdge
from repro.serve import admission
from repro.serve.admission import (
    DEPTH_LOWWATER,
    NORMAL,
    REASON_REJECT,
    REASON_THROTTLE,
    SHEDDING,
    AdmissionConfig,
    AdmissionController,
)


def edge(u=0, t=1.0):
    return StreamEdge(u=u, v=u + 100, t=t, edge_type="click")


class FakeClock:
    """Deterministic injected time source."""

    def __init__(self, start=0.0):
        self.now = float(start)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def controller(clock=None, **kwargs):
    return AdmissionController(AdmissionConfig(**kwargs), clock=clock)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rate_per_user=-1.0),
            dict(burst=0.5),
            dict(depth_highwater=0.0),
            dict(depth_highwater=1.5),
            dict(depth_highwater=DEPTH_LOWWATER),  # no hysteresis band
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionConfig(**kwargs)


class TestTokenBucket:
    def test_burst_then_throttle(self):
        clock = FakeClock()
        ctl = controller(clock, rate_per_user=1.0, burst=3.0)
        decisions = [ctl.admit(edge(u=7), 0, 100) for _ in range(5)]
        assert [d.admitted for d in decisions] == [True] * 3 + [False] * 2
        assert decisions[3].action == "throttle"
        assert decisions[3].reason == REASON_THROTTLE
        assert ctl.throttled == 2

    def test_refill_over_time(self):
        clock = FakeClock()
        ctl = controller(clock, rate_per_user=2.0, burst=1.0)
        assert ctl.admit(edge(u=1), 0, 100).admitted
        assert not ctl.admit(edge(u=1), 0, 100).admitted
        clock.advance(0.5)  # 2 tokens/s * 0.5s = 1 token back
        assert ctl.admit(edge(u=1), 0, 100).admitted

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        ctl = controller(clock, rate_per_user=1.0, burst=2.0)
        for _ in range(2):
            assert ctl.admit(edge(u=1), 0, 100).admitted
        clock.advance(100.0)  # banked tokens cap at burst, not 100
        results = [ctl.admit(edge(u=1), 0, 100).admitted for _ in range(3)]
        assert results == [True, True, False]

    def test_users_have_independent_buckets(self):
        clock = FakeClock()
        ctl = controller(clock, rate_per_user=1.0, burst=1.0)
        assert ctl.admit(edge(u=1), 0, 100).admitted
        assert not ctl.admit(edge(u=1), 0, 100).admitted
        assert ctl.admit(edge(u=2), 0, 100).admitted  # fresh bucket

    def test_lru_bound_evicts_coldest_user(self, monkeypatch):
        monkeypatch.setattr(admission, "MAX_TRACKED_USERS", 2)
        clock = FakeClock()
        ctl = controller(clock, rate_per_user=1.0, burst=1.0)
        assert ctl.admit(edge(u=1), 0, 100).admitted  # drains user 1
        assert ctl.admit(edge(u=2), 0, 100).admitted
        assert ctl.admit(edge(u=3), 0, 100).admitted  # evicts user 1
        assert not ctl.admit(edge(u=2), 0, 100).admitted  # still tracked, drained
        # evicted user returns to a fresh, full bucket
        assert ctl.admit(edge(u=1), 0, 100).admitted

    def test_decisions_replay_bitwise_with_injected_clock(self):
        def run():
            clock = FakeClock()
            ctl = controller(clock, rate_per_user=1.0, burst=2.0)
            out = []
            for i in range(20):
                out.append(ctl.admit(edge(u=i % 3), 0, 100).admitted)
                clock.advance(0.3)
            return out

        assert run() == run()

    def test_zero_rate_disables_throttling(self):
        ctl = controller(FakeClock(), rate_per_user=0.0)
        assert all(ctl.admit(edge(u=1), 0, 100).admitted for _ in range(100))


class TestHysteresis:
    def test_escalates_on_depth_highwater(self):
        ctl = controller(FakeClock(), depth_highwater=0.75)
        assert ctl.admit(edge(), 74, 100).admitted
        assert ctl.state == NORMAL
        assert not ctl.admit(edge(), 75, 100).admitted
        assert ctl.state == SHEDDING
        assert ctl.escalations == 1

    def test_holds_between_the_watermarks(self):
        ctl = controller(FakeClock(), depth_highwater=0.75)
        ctl.admit(edge(), 75, 100)
        # depth fell below high but not to low: still shedding
        assert not ctl.admit(edge(), 51, 100).admitted
        assert ctl.state == SHEDDING
        # at/below DEPTH_LOWWATER: de-escalates, this event is admitted
        assert ctl.admit(edge(), 50, 100).admitted
        assert ctl.state == NORMAL
        assert ctl.de_escalations == 1


class TestShedPolicies:
    def test_reject_denies_new_events(self):
        ctl = controller(FakeClock(), depth_highwater=0.75)
        decision = ctl.admit(edge(), 75, 100)
        assert not decision.admitted
        assert decision.action == "shed"
        assert decision.reason == REASON_REJECT
        assert ctl.shed == 1


class TestCounts:
    def test_tallies_reconcile(self):
        clock = FakeClock()
        ctl = controller(
            clock,
            rate_per_user=1.0,
            burst=2.0,
            depth_highwater=0.6,
        )
        # user 0 over its burst: 2 admitted, 3 throttled (throttling
        # precedes the watermark machine, so depth stays calm here)
        for _ in range(5):
            ctl.admit(edge(u=0), 0, 100)
        # distinct users past the depth watermark: escalate, then shed
        for i in range(5):
            ctl.admit(edge(u=1 + i), 60, 100)
        counts = ctl.counts()
        assert counts["offered"] == 10
        assert counts["admitted"] == 2
        assert counts["throttled"] == 3
        assert counts["shed"] == 5
        # every offer is exactly one of the three outcomes
        assert (
            counts["admitted"] + counts["throttled"] + counts["shed"]
            == counts["offered"]
        )
        assert counts["escalations"] == 1
