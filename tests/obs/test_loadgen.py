"""repro.obs.loadgen: seeded arrivals, open-loop attribution, the gate."""

import math
import threading

import numpy as np
import pytest

from repro.graph.streams import StreamEdge
from repro.obs.metrics import Histogram, exact_percentile
from repro.obs.loadgen import (
    ArrivalProcess,
    OpenLoopLoadGenerator,
    RequestEnvelope,
    hdr_bucket_error,
    measure_capacity,
    sweep_gate_failures,
)
from repro.obs.metrics import MetricsRegistry


class FakeClock:
    """A controllable monotonic clock whose sleep advances it."""

    def __init__(self):
        self.now = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self.now

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self.now += max(0.0, float(seconds))


class StubService:
    """Duck-typed service: fixed per-call cost on the fake clock."""

    def __init__(self, clock: FakeClock, cost: float = 0.001):
        self.metrics = MetricsRegistry()
        self.clock = clock
        self.cost = cost
        self.ingested = []
        self.recommended = []

    def recommend(self, user: int, k: int):
        self.recommended.append(user)
        self.clock.sleep(self.cost)
        return list(range(k))

    def ingest(self, edge) -> bool:
        self.ingested.append(edge)
        self.clock.sleep(self.cost)
        return True

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


def edges(n: int):
    return [StreamEdge(u=i % 5, v=(i + 1) % 5, edge_type="e", t=float(i)) for i in range(n)]


class TestArrivalProcess:
    @pytest.mark.parametrize("kind", ["poisson", "bursty", "ramp"])
    def test_same_seed_same_schedule(self, kind):
        a = ArrivalProcess(kind=kind, rate=50.0, seed=7).offsets(200)
        b = ArrivalProcess(kind=kind, rate=50.0, seed=7).offsets(200)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) >= 0)  # non-decreasing times

    def test_different_seeds_differ(self):
        a = ArrivalProcess(rate=50.0, seed=0).offsets(100)
        b = ArrivalProcess(rate=50.0, seed=1).offsets(100)
        assert not np.array_equal(a, b)

    def test_poisson_mean_rate(self):
        offs = ArrivalProcess(rate=100.0, seed=0).offsets(20_000)
        # n arrivals over offs[-1] seconds: the empirical rate is close
        assert offs[-1] * 100.0 / 20_000 == pytest.approx(1.0, rel=0.05)

    def test_ramp_gaps_shrink(self):
        offs = ArrivalProcess(kind="ramp", rate=10.0, seed=0, ramp_factor=8.0).offsets(
            4000
        )
        gaps = np.diff(offs)
        assert gaps[:500].mean() > 3 * gaps[-500:].mean()

    def test_bursty_is_faster_overall(self):
        plain = ArrivalProcess(rate=10.0, seed=0).offsets(2000)[-1]
        burst = ArrivalProcess(kind="bursty", rate=10.0, seed=0).offsets(2000)[-1]
        assert burst < plain  # some arrivals ran at rate * multiplier

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            ArrivalProcess(kind="steady")
        with pytest.raises(ValueError, match="rate"):
            ArrivalProcess(rate=0.0)
        with pytest.raises(ValueError, match="burst_fraction"):
            ArrivalProcess(kind="bursty", burst_fraction=1.5)
        with pytest.raises(ValueError, match="ramp_factor"):
            ArrivalProcess(kind="ramp", ramp_factor=0.5)
        with pytest.raises(ValueError, match="at least one arrival"):
            ArrivalProcess().offsets(0)


class TestEnvelope:
    def test_stage_attribution(self):
        env = RequestEnvelope(edge=None, index=0, admitted_at=1.0)
        env.dispatched_at = 1.5
        env.completed_at = 1.8
        assert env.queue_wait_seconds == pytest.approx(0.5)
        assert env.service_seconds == pytest.approx(0.3)
        assert env.latency_seconds == pytest.approx(0.8)


class TestOpenLoopLoadGenerator:
    def run_generator(self, n=64, rate=200.0, cost=0.001, query_every=4):
        clock = FakeClock()
        service = StubService(clock, cost=cost)
        gen = OpenLoopLoadGenerator(
            service,
            edges(n),
            ArrivalProcess(rate=rate, seed=3),
            k=5,
            query_every=query_every,
            clock_fn=clock,
            sleep_fn=clock.sleep,
        )
        return gen.run(), service, gen

    def test_every_event_ingested_and_some_queried(self):
        report, service, _ = self.run_generator(n=64, query_every=4)
        assert report.requests == 64
        assert report.accepted == 64
        assert len(service.ingested) == 64
        assert report.queried == 16  # every 4th request
        assert report.errors == 0

    def test_latency_decomposition_sums(self):
        report, _, _ = self.run_generator()
        np.testing.assert_allclose(
            report.e2e_samples,
            report.queue_wait_samples + report.service_samples,
        )
        assert report.e2e["p99"] == exact_percentile(report.e2e_samples, 99.0)

    def test_histograms_land_in_service_registry(self):
        report, service, gen = self.run_generator(n=32)
        assert gen.hist_e2e is service.metrics.histogram("loadgen.e2e_seconds")
        assert service.metrics.histogram("loadgen.e2e_seconds").count == 32
        assert service.metrics.histogram("loadgen.queue_wait_seconds").count == 32

    def test_errors_are_counted_not_raised(self):
        clock = FakeClock()
        service = StubService(clock)

        def failing_ingest(edge):
            raise RuntimeError("shed")

        service.ingest = failing_ingest
        gen = OpenLoopLoadGenerator(
            service,
            edges(8),
            ArrivalProcess(rate=100.0, seed=0),
            clock_fn=clock,
            sleep_fn=clock.sleep,
        )
        report = gen.run()
        assert report.errors == 8
        assert report.accepted == 0

    def test_as_dict_has_the_tail_fields(self):
        report, _, _ = self.run_generator()
        d = report.as_dict()
        for section in ("e2e", "queue_wait", "service"):
            assert set(d[section]) >= {"p50", "p99", "p99.9", "mean", "max"}
        assert d["offered_rate"] == 200.0
        assert "e2e_samples" not in d  # samples stay out of JSON

    def test_validation(self):
        clock = FakeClock()
        service = StubService(clock)
        with pytest.raises(ValueError, match="at least one edge"):
            OpenLoopLoadGenerator(service, [], ArrivalProcess())
        with pytest.raises(ValueError, match="query_every"):
            OpenLoopLoadGenerator(service, edges(1), ArrivalProcess(), query_every=0)


class TestCapacityAndGate:
    def test_measure_capacity(self):
        clock = FakeClock()
        service = StubService(clock, cost=0.01)  # 100 events/s on fake time
        assert measure_capacity(service, edges(50), clock_fn=clock) == pytest.approx(
            100.0
        )

    def test_hdr_bucket_error_zero_on_observed_samples(self):
        h = Histogram("x")
        samples = [0.001 * (i + 1) for i in range(500)]
        for v in samples:
            h.observe(v)
        assert hdr_bucket_error(h, samples, 99.9) <= 1

    def gate_tier(self, fraction, qwait_ok=True, bucket_error=0):
        return {
            "fraction_of_capacity": fraction,
            "queue_wait_p99_below_service_p99": qwait_ok,
            "hdr_p999_bucket_error": bucket_error,
            "queue_wait": {"p99": 0.001 if qwait_ok else 0.5},
            "service": {"p99": 0.01},
        }

    def test_gate_passes_on_healthy_sweep(self):
        sweep = {"tiers": [self.gate_tier(f) for f in (0.02, 0.5, 2.0)]}
        assert sweep_gate_failures(sweep) == []

    def test_gate_needs_three_tiers(self):
        sweep = {"tiers": [self.gate_tier(0.1)]}
        assert any(">= 3" in f for f in sweep_gate_failures(sweep))

    def test_gate_needs_a_sub_saturation_tier(self):
        sweep = {"tiers": [self.gate_tier(f) for f in (1.5, 2.0, 4.0)]}
        assert any("no sub-saturation" in f for f in sweep_gate_failures(sweep))

    def test_gate_flags_queueing_dominated_low_tier(self):
        sweep = {
            "tiers": [
                self.gate_tier(0.05, qwait_ok=False),
                self.gate_tier(0.5),
                self.gate_tier(2.0),
            ]
        }
        assert any("queue-wait p99" in f for f in sweep_gate_failures(sweep))

    def test_gate_flags_hdr_bucket_error(self):
        sweep = {
            "tiers": [
                self.gate_tier(0.05),
                self.gate_tier(0.5, bucket_error=3),
                self.gate_tier(2.0),
            ]
        }
        failures = sweep_gate_failures(sweep)
        assert any("3 buckets" in f for f in failures)
        assert sweep_gate_failures(sweep, max_bucket_error=3) == []
