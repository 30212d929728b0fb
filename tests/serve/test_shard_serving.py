"""The two publish paths of the service (DESIGN.md §8).

* the dense path hands its touched-row Eq. 14 recompute to
  ``publish_parts``, which lands any number of row stripes as ONE
  atomic snapshot;
* under ``decay_at_inference`` the store versions decay-invariant
  components and materialises the decayed matrix lazily at read time,
  bitwise equal to ``SUPA.final_embeddings`` at the snapshot clock,
  while publishes stay O(touched rows).
"""

import numpy as np
import pytest

from repro.core.config import SUPAConfig
from repro.core.model import SUPA
from repro.serve.service import RecommendationService, ServeConfig
from repro.serve.store import (
    DecayedEmbeddingStore,
    DecayedSnapshot,
    VersionedEmbeddingStore,
)


def make_service(dataset, model_config=None, **kwargs):
    defaults = dict(batch_size=4, capacity=16, cache_size=32)
    defaults.update(kwargs)
    model = (
        SUPA.for_dataset(dataset, config=model_config)
        if model_config is not None
        else None
    )
    return RecommendationService(
        dataset, model=model, config=ServeConfig(**defaults)
    )


def drain(svc, dataset):
    for e in dataset.stream:
        svc.ingest(e)
    svc.flush()


DENSE = SUPAConfig(seed=7, decay_at_inference=False)


# ------------------------------------------------------------ dense publishes


class TestStripedPublish:
    def test_dense_service_matches_model_bitwise(self, small_dataset):
        """Without decay-at-inference the service publishes Eq. 14 rows
        into the dense store; quiesced, it equals the live model."""
        svc = make_service(small_dataset, model_config=DENSE)
        assert isinstance(svc.store, VersionedEmbeddingStore)
        drain(svc, small_dataset)
        all_nodes = np.arange(small_dataset.num_nodes, dtype=np.int64)
        expected = svc.model.final_embeddings(all_nodes, svc.edge_type, svc.clock)
        assert svc.store.snapshot().matrix().tobytes() == expected.tobytes()
        for user in range(3):
            np.testing.assert_array_equal(
                svc.recommend(user, k=4), svc.offline_top_k(user, k=4)
            )
        svc.close()

    def test_publish_parts_empty_and_single(self):
        store = VersionedEmbeddingStore(np.zeros((6, 3)), block_size=2)
        snap = store.publish_parts([])
        assert snap.version == 1  # empty publish still versions atomically
        rows = np.asarray([1, 4], dtype=np.int64)
        values = np.arange(6, dtype=np.float64).reshape(2, 3)
        snap = store.publish_parts([(rows, values)])
        assert snap.version == 2
        np.testing.assert_array_equal(store.snapshot().rows(rows), values)

    def test_publish_parts_merges_in_stripe_order(self):
        store = VersionedEmbeddingStore(np.zeros((8, 2)), block_size=4)
        parts = [
            (np.asarray([0, 1]), np.full((2, 2), 1.0)),
            (np.asarray([5]), np.full((1, 2), 2.0)),
            (np.asarray([7]), np.full((1, 2), 3.0)),
        ]
        snap = store.publish_parts(parts)
        assert snap.version == 1
        np.testing.assert_array_equal(snap.row(1), [1.0, 1.0])
        np.testing.assert_array_equal(snap.row(5), [2.0, 2.0])
        np.testing.assert_array_equal(snap.row(7), [3.0, 3.0])
        np.testing.assert_array_equal(snap.row(2), [0.0, 0.0])


# ------------------------------------------------------- delta-publish store


class TestDecayedServing:
    def test_default_service_uses_delta_store(self, small_dataset):
        svc = make_service(small_dataset)
        assert isinstance(svc.store, DecayedEmbeddingStore)
        assert isinstance(svc.store.snapshot(), DecayedSnapshot)
        svc.close()

    def test_materialized_matrix_matches_model_bitwise(self, small_dataset):
        svc = make_service(small_dataset)
        drain(svc, small_dataset)
        all_nodes = np.arange(small_dataset.num_nodes, dtype=np.int64)
        expected = svc.model.final_embeddings(
            all_nodes, svc.edge_type, svc.clock
        )
        assert svc.store.snapshot().matrix().tobytes() == expected.tobytes()
        svc.close()

    def test_quiesced_recommendations_match_offline(self, small_dataset):
        svc = make_service(small_dataset)
        drain(svc, small_dataset)
        for user in range(3):
            np.testing.assert_array_equal(
                svc.recommend(user, k=4), svc.offline_top_k(user, k=4)
            )
        svc.close()

    def test_publishes_share_untouched_component_blocks(self, small_dataset):
        """The whole point of delta publishing: a publish copies only
        the touched component blocks, even though the clock advance
        moves every decayed embedding."""
        svc = make_service(small_dataset)
        # the service's own store, re-cut into 1-row blocks that are
        # never compacted, so block identity tracks row identity
        seed = svc.store.snapshot()
        svc.store = DecayedEmbeddingStore(
            svc.store._inner.snapshot().matrix(),
            last_times=seed._last_times,
            alpha=seed._alpha,
            alpha_slots=svc.store._slots,
            clock=seed.clock,
            block_size=1,
            compact_every=0,
        )
        published = set()
        original = svc.store.publish

        def spy(rows, *args, **kwargs):
            published.update(int(r) for r in np.asarray(rows))
            return original(rows, *args, **kwargs)

        svc.store.publish = spy
        before = svc.store._inner.snapshot()
        drain(svc, small_dataset)
        after = svc.store._inner.snapshot()
        assert after.version > before.version
        assert published  # training touched something
        # with 1-row blocks, a node's component block is replaced iff
        # some update published that row; everything else stays the
        # *same object* across all versions — O(touched) publishes
        for node in range(small_dataset.num_nodes):
            same = before.block(node) is after.block(node)
            assert same == (node not in published)
        svc.close()

    def test_snapshot_isolation_under_decay(self, small_dataset):
        """An old decayed snapshot keeps answering at its own clock
        after further publishes move the live one."""
        svc = make_service(small_dataset)
        edges = list(small_dataset.stream)
        for e in edges[:4]:
            svc.ingest(e)
        svc.flush()
        pinned = svc.store.snapshot()
        pinned_matrix = pinned.matrix().copy()
        for e in edges[4:]:
            svc.ingest(e)
        svc.flush()
        assert svc.store.snapshot().version > pinned.version
        assert pinned.matrix().tobytes() == pinned_matrix.tobytes()
        svc.close()

    def test_decayed_store_validates_shapes(self):
        with pytest.raises(ValueError, match="3 \\* dim"):
            DecayedEmbeddingStore(
                np.zeros((4, 7)),  # not a multiple of 3
                last_times=np.zeros(4),
                alpha=np.zeros(2),
                alpha_slots=np.zeros(4, dtype=np.int64),
            )
        with pytest.raises(ValueError, match="last_times"):
            DecayedEmbeddingStore(
                np.zeros((4, 6)),
                last_times=np.zeros(3),
                alpha=np.zeros(2),
                alpha_slots=np.zeros(4, dtype=np.int64),
            )
