"""Tests for the chaos replay harness: plans, injection, reconciliation."""

import pytest

from repro.datasets.zoo import load_dataset
from repro.resilience.faults import FAULT_KINDS, ChaosReplayDriver, Fault, FaultPlan


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("uci", scale=0.3)


class TestFaultPlan:
    def test_seeded_plan_is_deterministic(self):
        kwargs = dict(malformed=3, late=2, duplicate=2, burst=1, crash=1)
        assert FaultPlan.seeded(500, seed=3, **kwargs) == FaultPlan.seeded(
            500, seed=3, **kwargs
        )
        assert FaultPlan.seeded(500, seed=3, **kwargs) != FaultPlan.seeded(
            500, seed=4, **kwargs
        )

    def test_positions_are_distinct_sorted_and_injectable(self):
        plan = FaultPlan.seeded(200, seed=0, malformed=5, late=5, crash=2)
        positions = [f.position for f in plan.faults]
        assert positions == sorted(positions)
        assert len(set((f.position, f.kind) for f in plan.faults)) == len(
            plan.faults
        )
        assert all(1 <= p < 200 for p in positions)

    def test_injection_counts_weigh_bursts(self):
        plan = FaultPlan(
            faults=[
                Fault("malformed", 1),
                Fault("burst", 2, payload=50),
                Fault("crash", 3),
            ]
        )
        counts = plan.injection_counts()
        assert counts["malformed"] == 1
        assert counts["burst"] == 50
        assert counts["crash"] == 1
        assert counts["late"] == 0

    def test_too_many_faults_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.seeded(5, malformed=10)

    def test_parse_spec(self):
        assert FaultPlan.parse_spec("malformed=4,late=3,crash=1") == {
            "malformed": 4,
            "late": 3,
            "crash": 1,
        }
        assert FaultPlan.parse_spec("") == {}
        assert FaultPlan.parse_spec("none") == {}
        with pytest.raises(ValueError):
            FaultPlan.parse_spec("meteor=1")
        with pytest.raises(ValueError):
            FaultPlan.parse_spec("late=many")
        with pytest.raises(ValueError):
            FaultPlan.parse_spec("late=-1")


class TestChaosReplay:
    @pytest.fixture(scope="class")
    def report(self, dataset, tmp_path_factory):
        driver = ChaosReplayDriver(
            dataset,
            state_dir=str(tmp_path_factory.mktemp("chaos")),
            seed=0,
            max_parity_users=16,
        )
        return driver.run()

    def test_all_fault_kinds_injected(self, report):
        assert set(report.injected) == set(FAULT_KINDS)
        assert all(report.injected[kind] > 0 for kind in FAULT_KINDS)

    def test_every_fault_is_reconciled(self, report):
        assert report.mismatches == []
        assert report.reconciled

    def test_deadletter_buckets_match_injection(self, report):
        assert report.deadletter_buckets["malformed"] == report.injected["malformed"]
        assert report.deadletter_buckets["late event"] == report.injected["late"]
        assert (
            report.deadletter_buckets.get("backpressure", 0)
            == report.observed["burst_dropped"]
        )

    def test_burst_overflows_and_is_fully_accounted(self, report):
        # the default plan's burst exceeds queue capacity, so some of it
        # must shed — and every burst event is either accepted or shed
        assert report.observed["burst_dropped"] > 0
        assert (
            report.observed["burst_accepted"] + report.observed["burst_dropped"]
            == report.injected["burst"]
        )

    def test_duplicates_are_accepted_not_deduplicated(self, report):
        assert report.observed["duplicates_accepted"] == report.injected["duplicate"]

    def test_crash_recovers_and_parity_holds(self, report):
        assert report.observed["recoveries"] == report.injected["crash"]
        assert report.observed["replayed_events"] > 0
        assert report.parity_fraction == 1.0

    def test_report_serializes(self, report, tmp_path):
        path = report.write_json(str(tmp_path / "chaos.json"))
        import json

        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["reconciled"] is True
        assert payload["injected"] == report.injected
        rows = report.summary_rows()
        assert ("reconciled", "yes") in rows

    def test_requires_late_tolerance(self, dataset, tmp_path):
        from repro.serve.service import ServeConfig

        with pytest.raises(ValueError):
            ChaosReplayDriver(
                dataset,
                state_dir=str(tmp_path),
                serve_config=ServeConfig(batch_size=32, capacity=128),
            )

    def test_callers_serve_config_is_copied_never_mutated(
        self, dataset, tmp_path
    ):
        """One config object may seed many drivers: each journals into its
        own ``state_dir``, and ``fresh=True`` wipes only that directory."""
        import os
        from dataclasses import replace

        from repro.serve.service import ServeConfig

        config = ServeConfig(
            batch_size=32, capacity=128, overflow="drop_new", late_tolerance=0.0
        )
        untouched = replace(config)
        plan = FaultPlan(faults=[Fault("crash", position=80)])

        first = ChaosReplayDriver(
            dataset,
            state_dir=str(tmp_path / "a"),
            plan=plan,
            serve_config=config,
            max_parity_users=4,
        )
        assert config == untouched
        assert first.run().reconciled
        first_wal = first.serve_config.wal_path
        first_checkpoints = sorted(os.listdir(first.serve_config.checkpoint_dir))
        assert os.path.dirname(first_wal) == str(tmp_path / "a")
        assert first_checkpoints

        second = ChaosReplayDriver(
            dataset,
            state_dir=str(tmp_path / "b"),
            plan=plan,
            serve_config=config,
            max_parity_users=4,
        )
        assert config == untouched
        assert os.path.dirname(second.serve_config.wal_path) == str(tmp_path / "b")
        # building the second driver (fresh=True) left the first run alone
        assert os.path.exists(first_wal)
        assert (
            sorted(os.listdir(first.serve_config.checkpoint_dir))
            == first_checkpoints
        )
        service = second.build_service()
        service.ingest(next(iter(dataset.stream)))
        service.close()
        assert os.path.exists(second.serve_config.wal_path)

    def test_sanitized_run_is_clean_and_bitwise_identical(
        self, dataset, tmp_path
    ):
        """The lock sanitizer must observe nothing — and change nothing.

        Two drivers, same seed and plan, different state dirs: one plain,
        one under ``threadcheck()``.  The sanitized run must report zero
        inversions / unguarded writes AND produce an identical report
        (timing aside), proving monitoring is pure observation.
        """
        from repro.analysis import threadcheck

        plan = FaultPlan.seeded(
            120, seed=7, malformed=2, late=2, duplicate=1, burst=1, crash=1
        )

        def run(state_dir):
            driver = ChaosReplayDriver(
                dataset, state_dir=state_dir, plan=plan, max_parity_users=8
            )
            return driver.run()

        plain = run(str(tmp_path / "plain"))
        with threadcheck() as monitor:
            sanitized = run(str(tmp_path / "sanitized"))
        assert monitor.inversions == []
        assert monitor.unguarded_writes == []

        a, b = plain.as_dict(), sanitized.as_dict()
        a.pop("ingest_seconds"), b.pop("ingest_seconds")
        assert a == b
        assert sanitized.reconciled and sanitized.parity_fraction == 1.0

    def test_pinned_crash_position(self, dataset, tmp_path):
        plan = FaultPlan(faults=[Fault("crash", position=80)])
        driver = ChaosReplayDriver(
            dataset, state_dir=str(tmp_path), plan=plan, max_parity_users=8
        )
        report = driver.run()
        assert report.reconciled
        assert report.observed["recoveries"] == 1
        assert report.observed["replayed_events"] == 80
        assert report.parity_fraction == 1.0
