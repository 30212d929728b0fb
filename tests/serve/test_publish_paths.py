"""The service's one publish path (DESIGN.md §8).

Every model, ablations included, publishes its time-free components
``concat(h^L, h^S, c^r)`` into the ``DecayedEmbeddingStore``; a snapshot
reads Eq. 14 through the model's own formula at its clock, bitwise equal
to ``SUPA.final_embeddings``, while publishes stay O(touched rows).
``publish_parts`` (one atomic snapshot from any number of row stripes)
has no caller in ``repro``; it stays for the benchmark spine's probes.
"""

import numpy as np
import pytest

from repro.core.config import SUPAConfig, g_decay
from repro.core.model import SUPA
from repro.core.variants import VARIANT_BUILDERS
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


BASE = SUPAConfig(seed=7)
SERVED_CONFIGS = {name: build(BASE) for name, build in VARIANT_BUILDERS.items()}


def eq14_reference(model, edge_type, t):
    """Eq. 14 written out per ablation, apart from the served formula:
    ``1/2 (h^L + gamma h^S + c^r)``, with ``gamma = g(sigma(alpha) Delta)``
    under forgetting, 1 without it, and no ``h^S`` without short-term
    memory."""
    memory, cfg = model.memory, model.config
    nodes = np.arange(memory.num_nodes)
    h_star = memory.long.copy()
    if cfg.use_short_term:
        gamma = np.ones(nodes.size)
        if cfg.use_forgetting:
            last = model.graph.last_interaction_times(nodes)
            delta = np.where(np.isfinite(last), np.maximum(t - last, 0.0), 0.0)
            alpha = memory.alpha[memory.alpha_slots(model._node_type_ids)]
            gamma = g_decay(delta / (1.0 + np.exp(-alpha)))
        h_star += gamma[:, None] * memory.short
    slot = memory.context_slot(model.schema.edge_type_id(edge_type))
    return 0.5 * (h_star + memory.context[slot])


# ------------------------------------------------------------ one serve path


@pytest.mark.parametrize("name", sorted(SERVED_CONFIGS))
def test_every_variant_serves_the_model_bitwise(small_dataset, name):
    """Each ablation, and a model without inference-time decay, serves
    through the component store: at a mid-stream version and after
    draining, the served matrix is ``SUPA.final_embeddings`` at that
    snapshot's clock byte for byte, the formula is Eq. 14 for that
    ablation, and quiesced answers equal the offline pipeline."""
    svc = make_service(small_dataset, model_config=SERVED_CONFIGS[name])
    assert isinstance(svc.store, DecayedEmbeddingStore)
    all_nodes = np.arange(small_dataset.num_nodes, dtype=np.int64)
    edges = list(small_dataset.stream)
    for e in edges[:4]:
        svc.ingest(e)
    svc.flush()
    pinned = svc.store.snapshot()
    assert pinned.version == 1 and pinned.clock == svc.clock
    mid = svc.model.final_embeddings(all_nodes, svc.edge_type, pinned.clock)
    for e in edges[4:]:
        svc.ingest(e)
    svc.flush()
    assert svc.store.version > pinned.version
    assert pinned.matrix().tobytes() == mid.tobytes()
    expected = svc.model.final_embeddings(all_nodes, svc.edge_type, svc.clock)
    assert svc.store.snapshot().matrix().tobytes() == expected.tobytes()
    np.testing.assert_allclose(
        expected, eq14_reference(svc.model, svc.edge_type, svc.clock), rtol=1e-12
    )
    for user in range(3):
        np.testing.assert_array_equal(
            svc.recommend(user, k=4), svc.offline_top_k(user, k=4)
        )
    svc.close()


class TestStripedPublish:
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
            config=svc.model.config,
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
                config=SUPAConfig(),
            )
        with pytest.raises(ValueError, match="last_times"):
            DecayedEmbeddingStore(
                np.zeros((4, 6)),
                last_times=np.zeros(3),
                alpha=np.zeros(2),
                alpha_slots=np.zeros(4, dtype=np.int64),
                config=SUPAConfig(),
            )
