"""Tests for NodeMemory, the sparse Adam optimiser and the state map."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SUPA, SUPAConfig
from repro.core.memory import (
    MemoryOptimizer,
    NodeMemory,
    SparseAdam,
    load_state,
    state_views,
)
from tests.oracle.engine import context_row, optimizer_step


def make_memory(**kwargs):
    defaults = dict(
        num_nodes=6, num_edge_types=3, num_node_types=2, dim=4, rng=0
    )
    defaults.update(kwargs)
    return NodeMemory(**defaults)


def copy_state(opt):
    """A copy of ``opt``'s state map (what ``SUPA.state_dict`` returns)."""
    return {name: array.copy() for name, array in state_views(opt).items()}


class TestNodeMemory:
    def test_shapes(self):
        mem = make_memory()
        assert mem.long.shape == (6, 4)
        assert mem.short.shape == (6, 4)
        assert mem.context.shape == (3, 6, 4)
        assert mem.alpha.shape == (2,)

    def test_shared_context_slot(self):
        mem = make_memory(typed_context=False)
        assert mem.context.shape == (1, 6, 4)
        assert mem.context_slot(2) == 0

    def test_typed_context_slot(self):
        mem = make_memory()
        assert mem.context_slot(2) == 2

    def test_shared_alpha_slot(self):
        mem = make_memory(typed_alpha=False)
        assert mem.alpha.shape == (1,)
        assert mem.alpha_slots(np.array([0, 1, 2])).tolist() == [0, 0, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            make_memory(num_nodes=0)

    def test_state_roundtrip(self):
        mem = make_memory()
        opt = MemoryOptimizer(mem)
        state = copy_state(opt)
        mem.long[...] = 0.0
        load_state(opt, state)
        assert not np.allclose(mem.long, 0.0)

    def test_state_shape_mismatch(self):
        opt = MemoryOptimizer(make_memory())
        state = copy_state(opt)
        state["memory.long"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            load_state(opt, state)

    def test_deterministic_init(self):
        a = make_memory()
        b = make_memory()
        assert np.allclose(a.long, b.long)

    @pytest.mark.parametrize("typed_context", [True, False])
    def test_init_draws_are_the_three_separate_draws(self, typed_context):
        """The one table holds exactly what three separate arrays drew:
        long, then short, then one ``(R, N, d)`` context draw."""
        mem = make_memory(typed_context=typed_context)
        rng = np.random.default_rng(0)
        for name, shape in (
            ("long", (6, 4)),
            ("short", (6, 4)),
            ("context", (mem.num_context_slots, 6, 4)),
        ):
            expected = rng.normal(0.0, 0.1, size=shape)
            assert getattr(mem, name).tobytes() == expected.tobytes()
        assert mem.table.shape == ((2 + mem.num_context_slots) * 6, 4)

    def test_refused_load_writes_nothing(self):
        opt = MemoryOptimizer(make_memory())
        before = _state_bytes(opt)
        state = copy_state(MemoryOptimizer(make_memory(rng=1)))
        state["memory.context"] = state["memory.context"][:, :3]
        with pytest.raises(ValueError, match="context"):
            load_state(opt, state)
        assert _state_bytes(opt) == before


class TestSparseAdam:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            SparseAdam(np.zeros(3), lr=0.1)

    def test_updates_only_touched_rows(self):
        param = np.ones((4, 2))
        opt = SparseAdam(param, lr=0.1)
        opt.update_rows(np.array([1]), np.array([[1.0, 1.0]]))
        assert not np.allclose(param[1], 1.0)
        assert np.allclose(param[0], 1.0)
        assert np.allclose(param[2:], 1.0)

    def test_empty_rows_noop(self):
        param = np.ones((2, 2))
        opt = SparseAdam(param, lr=0.1)
        opt.update_rows(np.array([], dtype=np.int64), np.zeros((0, 2)))
        assert np.allclose(param, 1.0)

    def test_grad_shape_mismatch(self):
        opt = SparseAdam(np.ones((4, 2)), lr=0.1)
        with pytest.raises(ValueError):
            opt.update_rows(np.array([0]), np.zeros((2, 2)))

    def test_per_row_bias_correction(self):
        # Row 0 is updated many times, row 1 once; the fresh row's first
        # step should match a fresh Adam first step (~lr), not be damped
        # by the other row's history.
        param = np.zeros((2, 2))
        opt = SparseAdam(param, lr=0.1)
        for _ in range(50):
            opt.update_rows(np.array([0]), np.ones((1, 2)))
        opt.update_rows(np.array([1]), np.ones((1, 2)))
        assert abs(param[1, 0]) == pytest.approx(0.1, rel=1e-5)

    def test_descends_quadratic(self):
        target = np.array([[2.0, -1.0]])
        param = np.zeros((1, 2))
        opt = SparseAdam(param, lr=0.05)
        for _ in range(500):
            grad = 2 * (param[[0]] - target)
            opt.update_rows(np.array([0]), grad)
        assert np.allclose(param, target, atol=1e-2)

    def test_weight_decay_applied(self):
        param = np.full((1, 2), 10.0)
        opt = SparseAdam(param, lr=0.1, weight_decay=0.1)
        opt.update_rows(np.array([0]), np.zeros((1, 2)))
        assert np.all(param < 10.0)

    def test_state_roundtrip(self):
        opt = MemoryOptimizer(make_memory(), lr=0.1)
        opt.table.update_rows(np.array([0]), np.ones((1, 4)))
        state = copy_state(opt)
        opt.table.update_rows(np.array([0]), np.ones((1, 4)))
        load_state(opt, state)
        assert opt.table._steps[0] == 1

    @given(
        calls=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 2),
                    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
                ),
                min_size=1,
                max_size=80,
            ),
            min_size=1,
            max_size=4,
        ),
        weight_decay=st.sampled_from([0.0, 1e-4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_update_chain_equals_one_row_steps_bitwise(self, calls, weight_decay):
        """The scalar chain is the same IEEE operations in the same
        order as one ``update_rows`` call per step — bytes, not
        ``allclose`` — including repeated rows and table growth."""
        start = np.asarray([[0.3], [-1.2], [0.0]], dtype=np.float64)
        chain = SparseAdam(start.copy(), lr=3e-3, weight_decay=weight_decay)
        steps = SparseAdam(start.copy(), lr=3e-3, weight_decay=weight_decay)
        for call in calls:
            rows = np.asarray([r for r, _ in call], dtype=np.int64)
            grads = np.asarray([g for _, g in call], dtype=np.float64)
            chain.update_chain(rows, grads)
            for r, g in zip(rows, grads):
                steps.update_rows(np.asarray([r]), np.asarray([[g]]))
        for name in ("param", "_m", "_v", "_steps"):
            assert getattr(chain, name).tobytes() == getattr(steps, name).tobytes()

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("update"),
                    st.lists(st.integers(0, 11), min_size=1, max_size=12, unique=True),
                    st.integers(0, 2**16),
                    st.sampled_from([1e-3, 1.0, 1e3]),
                ),
                *(st.tuples(st.just(op)) for op in ("mark", "rollback", "release")),
            ),
            min_size=1,
            max_size=40,
        ),
        weight_decay=st.sampled_from([0.0, 1e-4, 0.1]),
    )
    @settings(max_examples=80, deadline=None)
    def test_update_rows_equals_the_textbook_expression_bitwise(
        self, ops, weight_decay
    ):
        """The lean step (``take`` gathers, in-place temporaries, tables
        sized by a call counter) is the textbook expression, byte for
        byte, through mark / rollback / release sequences."""
        start = np.random.default_rng(7).normal(size=(12, 3))
        lean = SparseAdam(start.copy(), lr=3e-3, weight_decay=weight_decay)
        oracle = SparseAdam(start.copy(), lr=3e-3, weight_decay=weight_decay)
        for op, *args in ops:
            if op == "update":
                rows, seed, scale = args
                rows = np.asarray(rows, dtype=np.int64)
                grads = scale * np.random.default_rng(seed).normal(size=(rows.size, 3))
                for adam in (lean, oracle):
                    adam.save_rows(rows)
                lean.update_rows(rows, grads)
                _textbook_update_rows(oracle, rows, grads)
            elif op == "rollback":
                if lean._undo is not None:
                    lean.rollback()
                    oracle.rollback()
            else:
                getattr(lean, op)()
                getattr(oracle, op)()
            for name in ("param", "_m", "_v", "_steps"):
                assert getattr(lean, name).tobytes() == getattr(oracle, name).tobytes()

    def test_loaded_steps_beyond_the_call_count_grow_the_tables(self, small_dataset):
        """The call counter bounds the step counts only from where the
        model's ``load_state_dict`` re-seeds it: a loaded row far past
        the number of calls made must still find its correction, in the
        table's Adam and in alpha's."""
        lean, oracle = (
            SUPA.for_dataset(small_dataset, SUPAConfig(dim=4)) for _ in range(2)
        )
        state = lean.state_dict()
        state["optimizer.long.steps"][1:3] = (5000, 3)
        state["optimizer.alpha.steps"][0] = 7000
        for model in (lean, oracle):
            model.load_state_dict(state)
        for name, rows, steps in (("table", [1, 2], 5000), ("alpha", [0], 7000)):
            adam = getattr(lean.optimizer, name)
            textbook = getattr(oracle.optimizer, name)
            rows = np.asarray(rows)
            grads = np.full((rows.size, adam.param.shape[1]), 0.5)
            adam.update_rows(rows, grads)
            _textbook_update_rows(textbook, rows, grads)
            assert adam._corr1.size > steps + 1
            for attr in ("param", "_m", "_v", "_steps"):
                assert getattr(adam, attr).tobytes() == getattr(textbook, attr).tobytes()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("m", np.ones((1, 4))),  # broadcastable: used to be accepted
            ("v", np.ones(4)),
            ("steps", np.asarray([7])),
            ("m", np.ones((6, 4), dtype=np.float32)),
            ("steps", np.ones(6, dtype=np.int32)),
            ("steps", np.ones(6)),
            ("m", None),
        ],
    )
    def test_load_refuses_a_mismatched_state(self, key, value):
        """A misfit moment of the long rows (table rows ``[0, 6)``) is
        refused by name, and nothing is written."""
        opt = MemoryOptimizer(make_memory(), lr=0.1)
        opt.table.update_rows(np.asarray([0, 3]), np.ones((2, 4)))
        before = _state_bytes(opt)
        state = copy_state(opt)
        name = f"optimizer.long.{key}"
        if value is None:
            del state[name]
        else:
            state[name] = value
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            load_state(opt, state)
        assert _state_bytes(opt) == before

    def test_update_chain_rejects_wide_parameters(self):
        opt = SparseAdam(np.ones((2, 2)), lr=0.1)
        with pytest.raises(ValueError):
            opt.update_chain(np.array([0]), np.array([1.0]))


def _textbook_update_rows(adam, rows, grads):
    """The expression form of ``SparseAdam.update_rows`` — fancy-index
    gathers and a ``t.max()`` to size the correction tables — kept as
    the bitwise oracle of the lean step."""
    if adam.weight_decay:
        grads = grads + adam.weight_decay * adam.param[rows]
    t = adam._steps[rows] + 1
    adam._steps[rows] = t
    tmax = int(t.max())
    if tmax >= adam._corr1.size:
        adam._grow_corrections(tmax)
    m = adam._m[rows] * adam.beta1 + (1.0 - adam.beta1) * grads
    v = adam._v[rows] * adam.beta2 + (1.0 - adam.beta2) * grads**2
    adam._m[rows] = m
    adam._v[rows] = v
    m_hat = m / adam._corr1[t][:, None]
    v_hat = v / adam._corr2[t][:, None]
    adam.param[rows] -= adam.lr * m_hat / (np.sqrt(v_hat) + adam.eps)


class TestMemoryOptimizer:
    def test_paper_defaults_and_lr_check(self):
        opt = MemoryOptimizer(make_memory())
        assert (opt.table.lr, opt.table.weight_decay) == (3e-3, 1e-4)
        assert (opt.alpha.lr, opt.alpha.weight_decay) == (3e-3, 0.0)
        for bad in (0.0, -1e-3):
            with pytest.raises(ValueError, match="lr"):
                MemoryOptimizer(make_memory(), lr=bad)

    def test_context_row_mapping(self):
        """The oracle's flat context row ``slot * N + node`` is table row
        ``context_offset`` + that, the same storage as ``context[slot, node]``."""
        mem = make_memory()
        assert [context_row(mem, *key) for key in ((0, 0), (1, 2), (2, 5))] == [0, 8, 17]
        for slot, node in ((0, 0), (1, 2), (2, 5)):
            row = mem.table[mem.context_offset + context_row(mem, slot, node)]
            assert np.shares_memory(row, mem.context[slot, node])
            assert row.tobytes() == mem.context[slot, node].tobytes()

    def test_step_updates_all_groups(self):
        mem = make_memory()
        opt = MemoryOptimizer(mem, lr=0.1, weight_decay=0.0)
        before_long = mem.long[1].copy()
        before_short = mem.short[2].copy()
        before_ctx = mem.context[0, 3].copy()
        before_alpha = mem.alpha.copy()
        optimizer_step(
            opt,
            long_grads={1: np.ones(4)},
            short_grads={2: np.ones(4)},
            context_grads={context_row(mem, 0, 3): np.ones(4)},
            alpha_grads={0: 1.0},
        )
        assert not np.allclose(mem.long[1], before_long)
        assert not np.allclose(mem.short[2], before_short)
        assert not np.allclose(mem.context[0, 3], before_ctx)
        assert mem.alpha[0] != before_alpha[0]
        assert mem.alpha[1] == before_alpha[1]

    def test_alpha_view_write_through(self):
        mem = make_memory()
        opt = MemoryOptimizer(mem, lr=0.1, weight_decay=0.0)
        optimizer_step(opt, {}, {}, {}, alpha_grads={1: 2.0})
        assert mem.alpha[1] != 0.0

    def test_state_roundtrip(self):
        mem = make_memory()
        opt = MemoryOptimizer(mem, lr=0.1, weight_decay=0.0)
        optimizer_step(opt, {0: np.ones(4)}, {}, {}, {})
        state = copy_state(opt)
        optimizer_step(opt, {0: np.ones(4)}, {}, {}, {})
        load_state(opt, state)
        assert state_views(opt)["optimizer.long.steps"][0] == 1

    @pytest.mark.parametrize("part", ["long", "short", "context", "alpha"])
    def test_refused_load_writes_no_part(self, part):
        """Every part is checked before any is written."""
        mem = make_memory()
        opt = MemoryOptimizer(mem, lr=0.1, weight_decay=0.0)
        optimizer_step(opt, {0: np.ones(4)}, {1: np.ones(4)}, {2: np.ones(4)}, {0: 1.0})
        before = _state_bytes(opt)
        state = copy_state(MemoryOptimizer(make_memory(), lr=0.1, weight_decay=0.0))
        name = f"optimizer.{part}.steps"
        state[name] = state[name][:1]
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            load_state(opt, state)
        assert _state_bytes(opt) == before


# ------------------------------------------------------------------ undo log

GROUPS = ("long", "short", "context", "alpha")


def _state_bytes(opt):
    """Every learnable byte, name by name."""
    return {name: array.tobytes() for name, array in state_views(opt).items()}


#: group → (first table row, row count) for ``make_memory()``'s 6 nodes
#: and 3 context slots; alpha is its own optimiser
_GROUP_ROWS = {"long": (0, 6), "short": (6, 6), "context": (12, 18), "alpha": (0, 2)}


def _group(opt, group):
    return opt.alpha if group == "alpha" else opt.table


_update = st.tuples(
    st.just("update"),
    st.sampled_from(GROUPS),
    st.lists(st.integers(0, 17), min_size=1, max_size=6, unique=True),
    st.integers(0, 2**16),
)
_ops = st.lists(
    st.one_of(_update, *(st.tuples(st.just(op)) for op in ("mark", "rollback", "release"))),
    max_size=40,
)


class TestUndoLog:
    """mark / save_rows / rollback must equal a full copy of the state
    map → ``load_state``."""

    @settings(max_examples=200, deadline=None)
    @given(ops=_ops)
    def test_rollback_equals_full_snapshot_restore(self, ops):
        mem = make_memory()
        opt = MemoryOptimizer(mem, lr=0.1, weight_decay=0.01)
        # the oracle runs the same writes on a twin and restores a copy
        twin = MemoryOptimizer(make_memory(), lr=0.1, weight_decay=0.01)
        best = None  # twin snapshot at the last mark; None = log closed
        for op, *args in ops:
            if op == "update":
                group, rows, seed = args
                adam, twin_adam = _group(opt, group), _group(twin, group)
                offset, size = _GROUP_ROWS[group]
                rows = np.unique(np.asarray(rows, dtype=np.int64) % size) + offset
                grads = np.random.default_rng(seed).normal(
                    size=(rows.size, adam.param.shape[1])
                )
                adam.save_rows(rows)
                adam.update_rows(rows, grads)
                twin_adam.update_rows(rows, grads)
            elif op == "mark":
                opt.mark()
                best = copy_state(twin)
            elif op == "rollback" and best is not None:
                opt.rollback()
                load_state(twin, best)
            elif op == "release":
                opt.release()
                best = None
            assert _state_bytes(opt) == _state_bytes(twin)
        if best is not None:
            opt.rollback()
            load_state(twin, best)
            assert _state_bytes(opt) == _state_bytes(twin)
        opt.release()
        for adam in opt._adams:
            assert adam._undo is None and not adam._logged.any()

    def test_closed_log_saves_nothing(self):
        mem = make_memory()
        opt = MemoryOptimizer(mem, lr=0.1, weight_decay=0.0)
        opt.save_rows(np.array([0, 1]), np.array([2, 3]))
        optimizer_step(opt, {0: np.ones(4)}, {}, {}, {0: 1.0})
        assert all(a._undo is None for a in opt._adams)

    def test_step_and_pass_level_saves_cover_their_writes(self):
        """The two save sites: ``optimizer_step`` (the oracle engine,
        gradient-dict keys) and ``save_rows`` (the production engine, one
        call per pass with repeated rows) — alpha through its ``[:, None]`` view."""
        mem = make_memory()
        opt = MemoryOptimizer(mem, lr=0.1, weight_decay=0.0)
        optimizer_step(opt, {1: np.ones(4)}, {1: np.ones(4)}, {3: np.ones(4)}, {1: 0.5})
        start = _state_bytes(opt)
        opt.mark()
        optimizer_step(opt, {1: np.ones(4), 2: np.ones(4)}, {2: np.ones(4)}, {3: np.ones(4)}, {1: 2.0})
        opt.save_rows(np.array([4, 4, 1]), np.array([3, 9, 9]))
        opt.table.update_rows(np.array([1, 4, 12 + 3, 12 + 9]), np.ones((4, 4)))
        opt.alpha.update_rows(np.array([0, 1]), np.ones((2, 1)))
        assert _state_bytes(opt) != start
        opt.rollback()
        assert _state_bytes(opt) == start
        assert mem.alpha[1] != 0.0  # the pre-mark value, not the initial one
        opt.release()
