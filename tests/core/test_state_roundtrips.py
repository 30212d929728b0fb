"""Checkpoint/restore semantics across the whole core stack."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SUPA, SUPAConfig
from tests.core import assert_one_row_table

#: the state map's names in the order a checkpoint archive holds them
STATE_NAMES = (
    "memory.alpha",
    "memory.context",
    "memory.long",
    "memory.short",
    *(
        f"optimizer.{part}.{moment}"
        for part in ("alpha", "context", "long", "short")
        for moment in ("m", "steps", "v")
    ),
)


@pytest.fixture
def trained_model(small_dataset):
    model = SUPA.for_dataset(small_dataset, SUPAConfig(dim=6, seed=0))
    for e in small_dataset.stream:
        model.process_edge(e.u, e.v, e.edge_type, e.t)
    return model


class TestRoundtrips:
    def test_save_train_restore_is_identity(self, trained_model, small_dataset):
        state = trained_model.state_dict()
        candidates = small_dataset.nodes_of_type("video")
        before = trained_model.score(0, candidates, "click", 9.0)
        trained_model.train_step(1, 6, "like", 10.0, 1.0, 1.0)
        trained_model.load_state_dict(state)
        after = trained_model.score(0, candidates, "click", 9.0)
        assert np.allclose(before, after)

    def test_restore_includes_optimizer_moments(self, trained_model):
        state = trained_model.state_dict()
        steps_before = trained_model.state_dict()["optimizer.long.steps"]
        trained_model.train_step(0, 5, "click", 20.0, 1.0, 1.0)
        trained_model.load_state_dict(state)
        steps_after = trained_model.state_dict()["optimizer.long.steps"]
        assert np.array_equal(steps_before, steps_after)

    def test_double_restore_idempotent(self, trained_model):
        state = trained_model.state_dict()
        trained_model.load_state_dict(state)
        trained_model.load_state_dict(state)
        assert np.allclose(trained_model.memory.long, state["memory.long"])

    def test_state_dict_format_is_the_per_array_one(self, trained_model):
        """Names, order, shapes and dtypes of the checkpoint format: one
        row table inside, one flat map of per-array parts out, in the
        order the archive holds its members."""
        memory = trained_model.memory
        n, r, o = memory.num_nodes, memory.num_context_slots, memory.num_alpha_slots
        f8, i8 = np.dtype(np.float64), np.dtype(np.int64)
        rows = {"alpha": o, "context": r * n, "long": n, "short": n}
        width = {"alpha": 1, "context": 6, "long": 6, "short": 6}
        expected = [
            ("memory.alpha", (o,), f8),
            ("memory.context", (r, n, 6), f8),
            ("memory.long", (n, 6), f8),
            ("memory.short", (n, 6), f8),
        ]
        for part in ("alpha", "context", "long", "short"):
            matrix = (rows[part], width[part])
            expected += [
                (f"optimizer.{part}.m", matrix, f8),
                (f"optimizer.{part}.steps", (rows[part],), i8),
                (f"optimizer.{part}.v", matrix, f8),
            ]
        layout = [
            (name, array.shape, array.dtype)
            for name, array in trained_model.state_dict().items()
        ]
        assert layout == expected
        assert [name for name, _, _ in expected] == list(STATE_NAMES)
        assert list(trained_model.state_views()) == list(STATE_NAMES)

    def test_construction_training_and_loading_keep_one_row_table(
        self, trained_model, small_dataset
    ):
        assert_one_row_table(SUPA.for_dataset(small_dataset, SUPAConfig(dim=6)))
        assert_one_row_table(trained_model)
        state = trained_model.state_dict()
        trained_model.train_step(0, 5, "click", 30.0, 1.0, 1.0)
        trained_model.load_state_dict(state)
        assert_one_row_table(trained_model)
        assert trained_model.memory.long.tobytes() == state["memory.long"].tobytes()

    @pytest.mark.parametrize(
        "name, defect",
        [
            *((name, "shape") for name in STATE_NAMES),
            ("optimizer.context.v", "missing"),
            ("optimizer.short.steps", "dtype"),
        ],
    )
    def test_refused_load_leaves_the_model_as_it_was(
        self, trained_model, name, defect
    ):
        """Every name is checked before any array is written: a refused
        optimiser part used to land after the memory."""
        state = trained_model.state_dict()
        trained_model.train_step(0, 5, "click", 40.0, 1.0, 1.0)
        before = _model_bytes(trained_model)
        if defect == "missing":
            del state[name]
        elif defect == "dtype":
            state[name] = state[name].astype(np.float64)
        else:
            state[name] = np.concatenate((state[name], state[name][:1]))
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            trained_model.load_state_dict(state)
        assert _model_bytes(trained_model) == before

    def test_state_survives_further_training(self, trained_model):
        """The saved dict is a snapshot, not a live view."""
        state = trained_model.state_dict()
        saved = state["memory.long"].copy()
        for _ in range(5):
            trained_model.train_step(0, 5, "click", 30.0, 1.0, 1.0)
        assert np.allclose(state["memory.long"], saved)


@given(seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_identical_seeds_identical_models(seed, ):
    """Two models built from the same seed and fed the same edges agree
    exactly (full determinism of the training path)."""
    from repro.datasets.synthetic import SyntheticConfig, generate

    ds = generate(SyntheticConfig(n_users=8, n_items=10, n_events=30, seed=3))

    def build():
        m = SUPA.for_dataset(ds, SUPAConfig(dim=4, seed=seed))
        m.process_stream(list(ds.stream)[:20])
        return m

    a, b = build(), build()
    assert np.allclose(a.memory.long, b.memory.long)
    assert np.allclose(a.memory.context, b.memory.context)


def _model_bytes(model):
    return {name: array.tobytes() for name, array in model.state_views().items()}
