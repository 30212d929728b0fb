"""Per-module contract tests for ``baselines/node2vec.py``.

``test_models.py`` requires every baseline module to ship a matching
test file; these checks pin registration plus the shared fit/score
contract (finite, deterministic scores).
"""

from repro.baselines.node2vec import Node2Vec
from repro.baselines.registry import BASELINE_BUILDERS


def test_registered_in_builders():
    assert BASELINE_BUILDERS["node2vec"] is Node2Vec


def test_fit_score_contract(check_baseline, baseline_world):
    model = check_baseline(Node2Vec, dim=8, num_walks=2, walk_length=4, epochs=1)
    table = model._table(baseline_world.schema.edge_types[0])
    assert table.ndim == 2 and table.shape[0] == baseline_world.num_nodes
