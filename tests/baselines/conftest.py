"""Shared fixtures for the per-baseline contract tests.

Every baseline module has a matching ``test_<module>.py`` here
(``test_models.py::TestRegistry`` enforces this).  The files share
one session-scoped dataset and a common fit/score contract checker so
each stays small and fast.
"""

import numpy as np
import pytest

from repro.datasets.synthetic import BehaviorSpec, SyntheticConfig, generate


@pytest.fixture(scope="session")
def baseline_world():
    """A small-but-trainable bipartite dataset shared across files."""
    cfg = SyntheticConfig(
        name="lint-world",
        mode="bipartite",
        n_users=20,
        n_items=25,
        n_events=300,
        behaviors=(
            BehaviorSpec("view", base_rate=1.0, affinity_gain=0.3),
            BehaviorSpec("buy", base_rate=0.3, affinity_gain=1.5),
        ),
        drift_rate=0.02,
        seed=11,
    )
    return generate(cfg)


@pytest.fixture(scope="session")
def check_baseline(baseline_world):
    """The shared baseline contract: fit, then score finitely and
    deterministically (two same-seed builds agree exactly)."""

    ds = baseline_world
    relation = ds.schema.edge_types[0]
    items = ds.nodes_of_type(ds.schema.node_types[-1])[:8]
    user = int(ds.nodes_of_type(ds.schema.node_types[0])[0])
    t_query = float(ds.stream[-1].t) + 1.0

    def _check(cls, **kwargs):
        def build():
            model = cls(ds, seed=5, **kwargs)
            model.fit(ds.stream)
            return model

        first, second = build(), build()
        scores = first.score(user, items, relation, t_query)
        again = second.score(user, items, relation, t_query)
        assert scores.shape == items.shape
        assert np.all(np.isfinite(scores))
        np.testing.assert_allclose(scores, again)
        return first

    return _check
