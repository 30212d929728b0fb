"""Per-module contract tests for ``baselines/dyhne.py``.

``test_models.py`` requires every baseline module to ship a matching
test file; these checks pin registration plus the shared fit/score
contract (finite, deterministic scores).
"""

from repro.baselines.dyhne import DyHNE
from repro.baselines.registry import BASELINE_BUILDERS


def test_registered_in_builders():
    assert BASELINE_BUILDERS["DyHNE"] is DyHNE


def test_fit_score_contract(check_baseline, baseline_world):
    model = check_baseline(DyHNE, dim=8)
    table = model._table(baseline_world.schema.edge_types[0])
    assert table.ndim == 2 and table.shape[0] == baseline_world.num_nodes


def test_same_seed_fits_are_byte_identical(baseline_world):
    """ARPACK's start vector comes from the model's seeded generator, so
    two same-seed fits give the same embedding bytes, signs included."""
    fits = []
    for _ in range(3):
        model = DyHNE(baseline_world, dim=8, seed=0)
        model.fit(baseline_world.stream)
        fits.append(model.embeddings.tobytes())
    assert fits[0] == fits[1] == fits[2]
