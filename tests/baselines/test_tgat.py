"""Per-module contract tests for ``baselines/tgat.py``.

``test_models.py`` requires every baseline module to ship a matching
test file; these checks pin registration plus the shared fit/score
contract (finite, deterministic scores).
"""

import numpy as np

from repro.baselines.tgat import TGAT
from repro.baselines.registry import BASELINE_BUILDERS


def test_registered_in_builders():
    assert BASELINE_BUILDERS["TGAT"] is TGAT


def test_fit_score_contract(check_baseline, baseline_world):
    model = check_baseline(TGAT, dim=8, steps=20)
    tail = baseline_world.stream[-20:]
    model.partial_fit(tail)
    items = baseline_world.nodes_of_type(baseline_world.schema.node_types[-1])[:8]
    after = model.score(0, items, baseline_world.schema.edge_types[0], 1e9)
    assert np.all(np.isfinite(after))
