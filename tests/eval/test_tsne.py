"""Tests for the numpy t-SNE."""

import numpy as np
import pytest

from repro.eval.tsne import _pairwise_sq_dists, _row_affinities, tsne


def two_clusters(n_per=10, d=8, gap=12.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 1, size=(n_per, d))
    b = rng.normal(0, 1, size=(n_per, d)) + gap
    return np.concatenate([a, b]), n_per


def kl_divergence(x, y, perplexity=10.0):
    """KL(P || Q) between the high-dimensional affinities of ``x`` and the
    Student-t affinities of the layout ``y``: the objective t-SNE descends."""
    n = x.shape[0]
    dists = _pairwise_sq_dists(x)
    p = np.stack(
        [_row_affinities(dists[i], i, min(perplexity, (n - 1) / 3.0)) for i in range(n)]
    )
    p = np.maximum((p + p.T) / (2.0 * n), 1e-12)
    q = 1.0 / (1.0 + _pairwise_sq_dists(y))
    np.fill_diagonal(q, 0.0)
    q = np.maximum(q / q.sum(), 1e-12)
    return float(np.sum(p * np.log(p / q)))


class TestTSNE:
    def test_output_shape(self):
        x, _ = two_clusters()
        y = tsne(x, iterations=50, rng=0)
        assert y.shape == (20, 2)

    def test_deterministic(self):
        x, _ = two_clusters()
        a = tsne(x, iterations=50, rng=1)
        b = tsne(x, iterations=50, rng=1)
        assert np.allclose(a, b)

    def test_centres_output(self):
        x, _ = two_clusters()
        y = tsne(x, iterations=50, rng=0)
        assert np.allclose(y.mean(axis=0), 0.0, atol=1e-8)

    def test_separates_clusters(self):
        x, n_per = two_clusters()
        y = tsne(x, iterations=250, rng=0)
        centre_a = y[:n_per].mean(axis=0)
        centre_b = y[n_per:].mean(axis=0)
        within_a = np.linalg.norm(y[:n_per] - centre_a, axis=1).mean()
        within_b = np.linalg.norm(y[n_per:] - centre_b, axis=1).mean()
        between = np.linalg.norm(centre_a - centre_b)
        assert between > 2 * max(within_a, within_b)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            tsne(np.zeros((3, 4)))

    def test_non_2d_input(self):
        with pytest.raises(ValueError):
            tsne(np.zeros(8))

    def test_custom_init(self):
        x, _ = two_clusters()
        init = np.zeros((20, 2))
        y = tsne(x, iterations=10, init=init, rng=0)
        assert y.shape == (20, 2)

    def test_kl_improves_over_random(self):
        x, _ = two_clusters()
        y = tsne(x, iterations=250, rng=0, perplexity=10.0)
        random_layout = np.random.default_rng(0).normal(size=(20, 2))
        assert kl_divergence(x, y) < kl_divergence(x, random_layout)
