"""Per-module contract tests for ``baselines/mbgmn.py``.

``test_models.py`` requires every baseline module to ship a matching
test file; these checks pin registration plus the shared fit/score
contract (finite, deterministic scores).
"""

from repro.baselines.mbgmn import MBGMN
from repro.baselines.registry import BASELINE_BUILDERS


def test_registered_in_builders():
    assert BASELINE_BUILDERS["MB-GMN"] is MBGMN


def test_fit_score_contract(check_baseline, baseline_world):
    model = check_baseline(MBGMN, dim=8, steps=15)
    table = model._table(baseline_world.schema.edge_types[0])
    assert table.ndim == 2 and table.shape[0] == baseline_world.num_nodes
