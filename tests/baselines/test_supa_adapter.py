"""Per-module contract tests for ``baselines/supa_adapter.py``.

``test_models.py`` requires every baseline module to ship a matching
test file; these checks pin registration plus the shared fit/score
contract (finite, deterministic scores).
"""

import numpy as np

from repro.baselines.registry import BASELINE_BUILDERS
from repro.baselines.supa_adapter import SUPARecommender
from repro.core import InsLearnConfig, SUPAConfig


def test_registered_in_builders():
    assert BASELINE_BUILDERS["SUPA"] is SUPARecommender


def test_fit_score_contract(check_baseline, baseline_world):
    model = check_baseline(
        SUPARecommender,
        dim=8,
        config=SUPAConfig(dim=8, num_walks=2, walk_length=3),
        train_config=InsLearnConfig(
            batch_size=100,
            max_iterations=2,
            validation_interval=1,
            validation_size=20,
        ),
    )
    tail = baseline_world.stream[-20:]
    model.partial_fit(tail)
    items = baseline_world.nodes_of_type(baseline_world.schema.node_types[-1])[:8]
    after = model.score(0, items, baseline_world.schema.edge_types[0], 1e9)
    assert np.all(np.isfinite(after))
