"""WAL ledger records for admission decisions: shed, throttle, reasons.

Covers the write-ahead decision ledger (DESIGN.md §8): shed/throttle
records round-trip with their reasons, replayers skip them (they journal
policy, not state), ``decision_ledger`` aggregates them, and a service
run with admission control reconciles ledger == controller == queue
exactly — then recovers from the same WAL to the identical state.
"""

import pytest

from repro.graph.streams import StreamEdge
from repro.resilience.recovery import recover
from repro.resilience.wal import (
    LEDGER_ONLY_KINDS,
    WriteAheadLog,
    decision_ledger,
    iter_records,
    scan,
)
from repro.serve.admission import AdmissionConfig
from repro.serve.service import RecommendationService, ServeConfig
from tests.resilience import fold


def edge(i, t=None):
    return StreamEdge(u=i, v=i + 100, t=float(i if t is None else t), edge_type="click")


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "test.wal")


class TestLedgerRecords:
    def test_shed_and_throttle_roundtrip_with_reasons(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_shed(edge(1), "shed: reject")
            wal.append_throttle(edge(2), "throttle: user rate")
        records = scan(wal_path).records
        assert [r.kind for r in records] == ["shed", "throttle"]
        assert records[0].reason == "shed: reject"
        assert records[0].edge == edge(1)
        assert records[1].reason == "throttle: user rate"
        assert [r.seq for r in records] == [1, 2]

    def test_empty_reason_is_rejected(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            with pytest.raises(ValueError):
                wal.append_shed(edge(1), "")
            with pytest.raises(ValueError):
                wal.append_throttle(edge(1), "")

    def test_decision_ledger_aggregates_by_kind_and_reason(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(0))
            wal.append_shed(edge(1), "shed: reject")
            wal.append_shed(edge(2), "shed: reject")
            wal.append_shed(edge(3), "shed: sample")
            wal.append_throttle(edge(4), "throttle: user rate")
            wal.append_evict(edge(0))  # backpressure: not a decision
        assert decision_ledger(wal_path) == {
            "shed": {"shed: reject": 2, "shed: sample": 1},
            "throttle": {"throttle: user rate": 1},
        }


class TestReplaySkipsLedgerOnlyKinds:
    def test_fold_ignores_shed_and_throttle(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1))
            wal.append_shed(edge(2), "shed: reject")
            wal.append_accept(edge(3))
            wal.append_throttle(edge(4), "throttle: user rate")
            wal.append_batch(2)
        state = fold(iter_records(wal_path))
        assert state.accepted == 2
        assert state.trained == [edge(1), edge(3)]
        assert state.fifo == []

    def test_ledger_only_kinds_cover_the_new_records(self):
        assert "shed" in LEDGER_ONLY_KINDS
        assert "throttle" in LEDGER_ONLY_KINDS
        assert "heartbeat" in LEDGER_ONLY_KINDS


class TestServiceReconciliation:
    def _shedding_service(self, dataset, tmp_path, async_dispatch):
        svc = RecommendationService(
            dataset,
            config=ServeConfig(
                batch_size=2,
                capacity=8,
                wal_path=str(tmp_path / "svc.wal"),
                checkpoint_dir=str(tmp_path / "ckpts"),
                async_dispatch=async_dispatch,
                admission=AdmissionConfig(depth_highwater=0.75),
            ),
        )
        if async_dispatch:
            svc.dispatcher.poll_seconds = 0.005
        return svc

    @staticmethod
    def _shed_then_drain(svc, edges):
        """Accept six events while paused, shed the rest, then quiesce:
        on the async path the dispatcher is closed (draining ready
        batches) before the flush, as the async ≡ inline parity gate
        does."""
        svc.queue.pause()
        for e in edges[:6]:
            assert svc.ingest(e)
        for e in edges[6:]:  # depth 6/8 >= 0.75: every one sheds
            assert not svc.ingest(e)
        svc.queue.resume()
        if svc.dispatcher is not None:
            svc.dispatcher.close()
        svc.flush()

    @pytest.mark.parametrize("async_dispatch", [False, True])
    def test_every_denial_is_journaled_before_the_deadletter(
        self, small_dataset, tmp_path, async_dispatch
    ):
        svc = self._shedding_service(small_dataset, tmp_path, async_dispatch)
        self._shed_then_drain(svc, list(small_dataset.stream))
        svc.close()

        ledger = decision_ledger(svc.config.wal_path)
        counts = svc.admission.counts()
        assert sum(ledger["shed"].values()) == counts["shed"] == 2
        assert sum(ledger["throttle"].values()) == counts["throttled"] == 0
        assert svc.queue.shed == counts["shed"] + counts["throttled"]
        assert svc.queue.deadletters_by_reason()["shed"] == 2
        # zero reconciliation mismatches: ledger == controller == queue

    def test_a_refused_offer_evicts_nothing_under_drop_oldest(
        self, small_dataset, tmp_path
    ):
        svc = RecommendationService(
            small_dataset,
            config=ServeConfig(
                batch_size=2,
                capacity=2,
                overflow="drop_oldest",
                late_tolerance=0.0,
                wal_path=str(tmp_path / "svc.wal"),
            ),
        )
        edges = list(small_dataset.stream)
        malformed = edges[0]._replace(t=float("nan"))
        svc.queue.pause()
        assert svc.ingest(edges[1]) and svc.ingest(edges[2])  # full
        # refused offers (malformed, then late) touch nothing
        for offer in (malformed, edges[0]):
            assert svc.ingest(offer) is False
            assert svc.queue.buffered_at(lambda: 0)[1] == (edges[1], edges[2])
        assert svc.ingest(edges[3])  # a buffered offer replaces the head
        assert svc.queue.buffered_at(lambda: 0)[1] == (edges[2], edges[3])
        svc.close()

        kinds = [r.kind for r in iter_records(svc.config.wal_path)]
        # one evict record per event actually buffered in place of a head
        assert kinds == ["accept", "accept", "evict", "accept"]
        assert svc.queue.deadletters_by_reason() == {
            "malformed": 1, "late event": 1, "backpressure": 1,
        }

    def test_throttle_denials_reach_the_ledger(
        self, small_dataset, tmp_path
    ):
        svc = RecommendationService(
            small_dataset,
            config=ServeConfig(
                batch_size=4,
                capacity=16,
                wal_path=str(tmp_path / "svc.wal"),
                checkpoint_dir=str(tmp_path / "ckpts"),
                admission=AdmissionConfig(rate_per_user=0.001, burst=1.0),
            ),
        )
        edges = list(small_dataset.stream)
        same_user = [e for e in edges if e.u == edges[0].u][:3]
        if len(same_user) < 2:  # pragma: no cover - dataset guard
            pytest.skip("stream has no repeat user")
        for e in same_user:
            svc.ingest(e)
        svc.close()
        ledger = decision_ledger(svc.config.wal_path)
        counts = svc.admission.counts()
        throttled = sum(ledger["throttle"].values())
        assert throttled == counts["throttled"] == len(same_user) - 1
        assert ledger["throttle"] == {
            "throttle: user rate": len(same_user) - 1
        }

    @pytest.mark.parametrize("async_dispatch", [False, True])
    def test_recovery_over_a_shedding_wal_reproduces_the_state(
        self, small_dataset, tmp_path, async_dispatch
    ):
        from repro.replicate.failover import state_fingerprint

        svc = self._shedding_service(small_dataset, tmp_path, async_dispatch)
        # one journaled shed record between the accepts and the cuts
        self._shed_then_drain(svc, list(small_dataset.stream)[:7])
        svc.close()

        recovered = recover(small_dataset, svc.config)
        try:
            # the shed record was skipped; accepts/batches replayed
            assert recovered.replayed_events == 6
            assert state_fingerprint(recovered.service) == state_fingerprint(
                svc
            )
            assert (
                recovered.service.model.rng.bit_generator.state
                == svc.model.rng.bit_generator.state
            )
        finally:
            recovered.service.close()
