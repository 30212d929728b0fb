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

    def test_evict_reason_roundtrips_and_defaults_empty(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1))
            wal.append_accept(edge(2))
            wal.append_evict(edge(1))
            wal.append_evict(edge(2), reason="shed: drop_head")
        records = scan(wal_path).records
        assert records[2].reason == ""
        assert records[3].reason == "shed: drop_head"

    def test_decision_ledger_aggregates_by_kind_and_reason(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(0))
            wal.append_shed(edge(1), "shed: reject")
            wal.append_shed(edge(2), "shed: reject")
            wal.append_shed(edge(3), "shed: sample")
            wal.append_throttle(edge(4), "throttle: user rate")
            wal.append_evict(edge(0), reason="shed: drop_head")
            wal.append_accept(edge(5))
            wal.append_evict(edge(5))  # plain eviction: not a decision
        ledger = decision_ledger(wal_path)
        assert ledger["shed"] == {"shed: reject": 2, "shed: sample": 1}
        assert ledger["throttle"] == {"throttle: user rate": 1}
        assert ledger["evict"] == {"shed: drop_head": 1}


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

    def test_drop_head_eviction_replays_as_head_pop(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append_accept(edge(1))
            wal.append_accept(edge(2))
            wal.append_evict(edge(1), reason="shed: drop_head")
        state = fold(iter_records(wal_path))
        assert state.fifo == [edge(2)]


class TestServiceReconciliation:
    def _shedding_service(self, dataset, tmp_path, shed_policy="reject"):
        return RecommendationService(
            dataset,
            config=ServeConfig(
                batch_size=4,
                capacity=8,
                wal_path=str(tmp_path / "svc.wal"),
                checkpoint_dir=str(tmp_path / "ckpts"),
                admission=AdmissionConfig(
                    depth_highwater=0.25,
                    depth_lowwater=0.1,
                    shed_policy=shed_policy,
                ),
            ),
        )

    def test_every_denial_is_journaled_before_the_deadletter(
        self, small_dataset, tmp_path
    ):
        svc = self._shedding_service(small_dataset, tmp_path)
        edges = list(small_dataset.stream)
        svc.queue.pause()
        svc.ingest(edges[0])
        svc.ingest(edges[1])
        for e in edges[2:6]:  # depth 2/8 >= 0.25: every one of these sheds
            assert not svc.ingest(e)
        svc.queue.resume()
        svc.flush()
        svc.close()

        ledger = decision_ledger(svc.config.wal_path)
        counts = svc.admission.counts()
        assert sum(ledger["shed"].values()) == counts["shed"] == 4
        assert sum(ledger["throttle"].values()) == counts["throttled"] == 0
        assert svc.queue.shed == counts["shed"] + counts["throttled"]
        assert svc.queue.deadletters_by_reason()["shed"] == 4
        # zero reconciliation mismatches: ledger == controller == queue

    def test_a_refused_offer_evicts_nothing_under_drop_head(
        self, small_dataset, tmp_path
    ):
        svc = self._shedding_service(small_dataset, tmp_path, "drop_head")
        edges = list(small_dataset.stream)
        malformed = edges[0]._replace(t=float("nan"))
        svc.queue.pause()
        svc.ingest(edges[0])
        svc.ingest(edges[1])  # depth 2/8 >= 0.25: SHEDDING from here on
        for offer in (malformed, edges[2], malformed, edges[3]):
            # a valid offer replaces the head, a refused one touches nothing
            assert svc.ingest(offer) is (offer is not malformed)
            assert svc.queue.pending == 2
        assert svc.queue.buffered() == (edges[2], edges[3])
        svc.queue.resume()
        svc.flush()
        svc.close()

        ledger = decision_ledger(svc.config.wal_path)
        counts = svc.admission.counts()
        # one evict record per event actually buffered in place of a head
        assert ledger["evict"] == {"shed: drop_head": 2}
        assert counts["offered"] == 4 and counts["shed"] == 2
        assert counts["admitted"] == svc.queue.accepted == 4
        assert svc.queue.deadletters_by_reason() == {"shed": 2, "malformed": 2}
        assert svc.queue.shed == 2 and svc.queue.rejected == 2

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

    def test_recovery_over_a_shedding_wal_reproduces_the_state(
        self, small_dataset, tmp_path
    ):
        from repro.replicate.failover import state_fingerprint

        svc = self._shedding_service(small_dataset, tmp_path)
        edges = list(small_dataset.stream)
        svc.queue.pause()
        svc.ingest(edges[0])
        svc.ingest(edges[1])
        assert not svc.ingest(edges[2])  # journaled shed record
        svc.queue.resume()
        svc.flush()
        svc.close()

        recovered = recover(small_dataset, svc.config)
        try:
            # the shed record was skipped; accepts/batches replayed
            assert recovered.replayed_events == 2
            assert state_fingerprint(recovered.service) == state_fingerprint(
                svc
            )
            assert (
                recovered.service.model.rng.bit_generator.state
                == svc.model.rng.bit_generator.state
            )
        finally:
            recovered.service.close()
