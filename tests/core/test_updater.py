"""Tests for the node-type specific updater (Eq. 5)."""

import numpy as np
import pytest

from repro.core.config import SUPAConfig, g_decay
from repro.core.memory import NodeMemory
from repro.core.updater import active_interval, final_embedding_rows

from tests.oracle.updater import target_embedding, target_embedding_backward


@pytest.fixture
def memory():
    return NodeMemory(num_nodes=4, num_edge_types=2, num_node_types=2, dim=3, rng=0)


@pytest.fixture
def cfg():
    return SUPAConfig(dim=3)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestActiveInterval:
    def test_positive_interval(self):
        assert active_interval(3.0, 5.0) == 2.0

    def test_clamped_at_zero(self):
        assert active_interval(7.0, 5.0) == 0.0

    def test_never_seen_is_fresh(self):
        assert active_interval(-np.inf, 5.0) == 0.0


class TestForward:
    def test_eq5_value(self, memory, cfg):
        delta = 4.0
        fwd = target_embedding(memory, 1, 0, delta, cfg)
        x = _sigmoid(memory.alpha[0]) * delta
        expected = memory.long[1] + g_decay(x) * memory.short[1]
        assert np.allclose(fwd.h_star, expected)
        assert fwd.gamma == pytest.approx(g_decay(x))

    def test_zero_delta_gives_gamma_one(self, memory, cfg):
        fwd = target_embedding(memory, 0, 0, 0.0, cfg)
        assert fwd.gamma == pytest.approx(1.0)
        assert np.allclose(fwd.h_star, memory.long[0] + memory.short[0])

    def test_no_short_term_variant(self, memory, cfg):
        fwd = target_embedding(memory, 0, 0, 5.0, cfg.with_overrides(use_short_term=False))
        assert np.allclose(fwd.h_star, memory.long[0])

    def test_no_forgetting_variant(self, memory, cfg):
        fwd = target_embedding(memory, 0, 0, 5.0, cfg.with_overrides(use_forgetting=False))
        assert fwd.gamma == 1.0
        assert np.allclose(fwd.h_star, memory.long[0] + memory.short[0])

    def test_alpha_slot_respected(self, memory, cfg):
        memory.alpha[1] = 3.0
        a = target_embedding(memory, 0, 0, 4.0, cfg)
        b = target_embedding(memory, 0, 1, 4.0, cfg)
        assert a.gamma > b.gamma  # larger alpha -> faster forgetting


class TestBackward:
    def test_gradients_match_finite_difference(self, memory, cfg):
        node, type_id, delta = 1, 0, 3.0
        upstream = np.array([0.3, -0.7, 1.1])

        def loss_of_state():
            fwd = target_embedding(memory, node, type_id, delta, cfg)
            return float(upstream @ fwd.h_star)

        fwd = target_embedding(memory, node, type_id, delta, cfg)
        g_long, g_short, g_alpha = target_embedding_backward(memory, fwd, upstream, cfg)

        eps = 1e-6
        for arr, grad in ((memory.long, g_long), (memory.short, g_short)):
            for i in range(3):
                arr[node, i] += eps
                f_plus = loss_of_state()
                arr[node, i] -= 2 * eps
                f_minus = loss_of_state()
                arr[node, i] += eps
                assert grad[i] == pytest.approx((f_plus - f_minus) / (2 * eps), abs=1e-5)

        memory.alpha[0] += eps
        f_plus = loss_of_state()
        memory.alpha[0] -= 2 * eps
        f_minus = loss_of_state()
        memory.alpha[0] += eps
        assert g_alpha == pytest.approx((f_plus - f_minus) / (2 * eps), abs=1e-5)

    def test_backward_ablations(self, memory, cfg):
        fwd = target_embedding(
            memory, 0, 0, 2.0, cfg.with_overrides(use_short_term=False)
        )
        g_long, g_short, g_alpha = target_embedding_backward(
            memory, fwd, np.ones(3), cfg.with_overrides(use_short_term=False)
        )
        assert g_short is None and g_alpha is None

        cfg_nf = cfg.with_overrides(use_forgetting=False)
        fwd = target_embedding(memory, 0, 0, 2.0, cfg_nf)
        g_long, g_short, g_alpha = target_embedding_backward(memory, fwd, np.ones(3), cfg_nf)
        assert g_short is not None and g_alpha is None


def target_embeddings_batch(memory, nodes, node_type_ids, deltas, cfg):
    """``h*`` through the one Eq. 14 formula: with ``c^r = 0`` it returns
    ``h* / 2``, and doubling undoes the halving bit for bit."""
    nodes = np.asarray(nodes, dtype=np.int64)
    return 2.0 * final_embedding_rows(
        memory.long[nodes],
        memory.short[nodes],
        np.zeros((nodes.size, memory.dim)),
        memory.alpha,
        memory.alpha_slots(node_type_ids),
        deltas,
        cfg,
    )


class TestBatch:
    def test_batch_matches_single_with_inference_decay(self, memory, cfg):
        nodes = np.array([0, 1, 2])
        types = np.array([0, 1, 0])
        deltas = np.array([0.0, 2.0, 10.0])
        batch = target_embeddings_batch(memory, nodes, types, deltas, cfg)
        for i, (n, ty, d) in enumerate(zip(nodes, types, deltas)):
            single = target_embedding(memory, int(n), int(ty), float(d), cfg)
            assert np.allclose(batch[i], single.h_star)

    def test_batch_eq14_ignores_delta_by_default(self, memory):
        """Without forgetting (SUPA_nt) a row is Eq. 14's plain
        ``h^L + h^S`` at any time since the last interaction."""
        cfg = SUPAConfig(dim=3, use_forgetting=False)
        nodes = np.array([0, 1])
        out_small = target_embeddings_batch(memory, nodes, np.zeros(2, int), np.zeros(2), cfg)
        out_large = target_embeddings_batch(
            memory, nodes, np.zeros(2, int), np.full(2, 100.0), cfg
        )
        assert np.allclose(out_small, out_large)

    def test_batch_no_short_term(self, memory, cfg):
        out = target_embeddings_batch(
            memory,
            np.array([0]),
            np.array([0]),
            np.array([5.0]),
            cfg.with_overrides(use_short_term=False),
        )
        assert np.allclose(out[0], memory.long[0])

    def test_non_finite_deltas_clamped(self, memory):
        """A never-seen node's delta is ``t - (-inf)``: fresh, like 0."""
        cfg = SUPAConfig(dim=3)
        nodes, types = np.array([0, 1]), np.array([0, 1])
        a = target_embeddings_batch(memory, nodes, types, np.array([np.inf, np.nan]), cfg)
        b = target_embeddings_batch(memory, nodes, types, np.zeros(2), cfg)
        assert a.tobytes() == b.tobytes()

    def test_negative_deltas_clamped(self, memory):
        cfg = SUPAConfig(dim=3)
        a = target_embeddings_batch(
            memory, np.array([0]), np.array([0]), np.array([-5.0]), cfg
        )
        b = target_embeddings_batch(
            memory, np.array([0]), np.array([0]), np.array([0.0]), cfg
        )
        assert np.allclose(a, b)
