"""Tests for time-aware propagation (Eq. 8-10)."""

import numpy as np
import pytest

from repro.core.config import SUPAConfig, g_decay
from repro.core.memory import NodeMemory
from repro.graph.sampling import Walk, WalkStep

from tests.oracle.propagation import (
    edge_factor,
    propagation_loss,
    propagation_loss_backward,
)
from tests.oracle.sampling import InfluencedGraph


@pytest.fixture
def memory():
    return NodeMemory(num_nodes=6, num_edge_types=2, num_node_types=2, dim=3, rng=1)


@pytest.fixture
def cfg():
    return SUPAConfig(dim=3, tau=10.0)


def make_influenced(now=20.0):
    """u=0 with one 2-hop walk; v=1 with one 1-hop walk."""
    walk_u = Walk(
        [WalkStep(0, None, None), WalkStep(2, 0, 18.0), WalkStep(3, 1, 15.0)]
    )
    walk_v = Walk([WalkStep(1, None, None), WalkStep(4, 0, 19.0)])
    return InfluencedGraph(u=0, v=1, rel=0, t=now, walks_u=[walk_u], walks_v=[walk_v])


class TestEdgeFactor:
    def test_attenuation_is_g(self, cfg):
        assert edge_factor(5.0, cfg) == pytest.approx(g_decay(5.0))

    def test_termination_beyond_tau(self, cfg):
        assert edge_factor(10.5, cfg) == 0.0

    def test_boundary_inclusive(self, cfg):
        assert edge_factor(10.0, cfg) > 0.0

    def test_ablated_decay_is_identity(self, cfg):
        nd = cfg.with_overrides(use_propagation_decay=False)
        assert edge_factor(1e9, nd) == 1.0


class TestForward:
    def test_step_count_and_sides(self, memory, cfg):
        ig = make_influenced()
        h_u, h_v = np.ones(3), np.ones(3)
        fwd = propagation_loss(memory, ig, h_u, h_v, 20.0, cfg)
        assert len(fwd.steps) == 3
        sides = [s.source_side for s in fwd.steps]
        assert sides == [0, 0, 1]

    def test_cumulative_attenuation(self, memory, cfg):
        ig = make_influenced()
        fwd = propagation_loss(memory, ig, np.ones(3), np.ones(3), 20.0, cfg)
        first, second = fwd.steps[0], fwd.steps[1]
        assert first.cum_factor == pytest.approx(g_decay(2.0))
        assert second.cum_factor == pytest.approx(g_decay(2.0) * g_decay(5.0))

    def test_termination_cuts_rest_of_walk(self, memory, cfg):
        walk = Walk(
            [WalkStep(0, None, None), WalkStep(2, 0, 5.0), WalkStep(3, 1, 19.0)]
        )
        # First hop is 15 time units old (> tau=10): the whole flow stops,
        # including the newer edge behind it.
        ig = InfluencedGraph(u=0, v=1, rel=0, t=20.0, walks_u=[walk], walks_v=[])
        fwd = propagation_loss(memory, ig, np.ones(3), np.ones(3), 20.0, cfg)
        assert fwd.steps == []
        assert fwd.loss == 0.0

    def test_loss_matches_manual_eq10(self, memory, cfg):
        ig = InfluencedGraph(
            u=0,
            v=1,
            rel=0,
            t=20.0,
            walks_u=[Walk([WalkStep(0, None, None), WalkStep(2, 1, 18.0)])],
            walks_v=[],
        )
        h_u = np.array([0.5, -0.2, 0.1])
        fwd = propagation_loss(memory, ig, h_u, np.zeros(3), 20.0, cfg)
        d_vec = g_decay(2.0) * h_u
        score = memory.context[1, 2] @ d_vec
        expected = np.log(1 + np.exp(-score))
        assert fwd.loss == pytest.approx(expected)

    def test_no_decay_variant_keeps_full_information(self, memory, cfg):
        nd = cfg.with_overrides(use_propagation_decay=False)
        ig = make_influenced()
        fwd = propagation_loss(memory, ig, np.ones(3), np.ones(3), 20.0, nd)
        assert all(s.cum_factor == 1.0 for s in fwd.steps)


class TestBackward:
    def test_gradients_match_finite_difference(self, memory, cfg):
        ig = make_influenced()
        rng = np.random.default_rng(0)
        h_u = rng.normal(size=3)
        h_v = rng.normal(size=3)

        fwd = propagation_loss(memory, ig, h_u, h_v, 20.0, cfg)
        g_u, g_v, ctx_grads = propagation_loss_backward(memory, fwd, h_u, h_v)

        eps = 1e-6

        def loss():
            return propagation_loss(memory, ig, h_u, h_v, 20.0, cfg).loss

        for vec, grad in ((h_u, g_u), (h_v, g_v)):
            for i in range(3):
                vec[i] += eps
                f_plus = loss()
                vec[i] -= 2 * eps
                f_minus = loss()
                vec[i] += eps
                assert grad[i] == pytest.approx((f_plus - f_minus) / (2 * eps), abs=1e-5)

        # context gradients: accumulate duplicates then check rows
        acc = {}
        for slot, node, grad in ctx_grads:
            key = (slot, node)
            acc[key] = acc.get(key, 0.0) + grad
        for (slot, node), grad in acc.items():
            for i in range(3):
                memory.context[slot, node, i] += eps
                f_plus = loss()
                memory.context[slot, node, i] -= 2 * eps
                f_minus = loss()
                memory.context[slot, node, i] += eps
                assert grad[i] == pytest.approx(
                    (f_plus - f_minus) / (2 * eps), abs=1e-5
                )

    def test_empty_influenced_graph(self, memory, cfg):
        ig = InfluencedGraph(u=0, v=1, rel=0, t=5.0)
        fwd = propagation_loss(memory, ig, np.ones(3), np.ones(3), 5.0, cfg)
        assert fwd.loss == 0.0 and fwd.steps == []
        g_u, g_v, ctx = propagation_loss_backward(memory, fwd, np.ones(3), np.ones(3))
        assert np.allclose(g_u, 0.0) and np.allclose(g_v, 0.0) and ctx == []
