"""The split sigmoid pair keeps every bit of its boolean-mask form.

``sigmoid_branched`` / ``log_sigmoid_branched`` (the oracle's split
forms, ``tests/oracle/kernels.py``) pick each branch with ``np.where``
over one shared exponential; the oracles below are the gather/scatter
expressions they replaced.  Every finite and infinite input must give
the same bits (the engines' parity digests depend on them), and NaN must
stay NaN.  The engine's fused ``sigmoid_nll`` is pinned to this pair in
``test_round_kernels.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracle import kernels

EPS = 1e-13
SUBNORMAL = 5e-324
SPECIALS = [
    0.0, -0.0,
    500.0, -500.0, 500.0 + EPS, 500.0 - EPS, -500.0 + EPS, -500.0 - EPS,
    700.0, -700.0, 745.0, -745.0,
    np.inf, -np.inf, np.nan,
    SUBNORMAL, -SUBNORMAL, 1e-310, -1e-310, 2.2e-308, -2.2e-308,
]  # fmt: skip


def masked_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.float64)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-np.minimum(x[pos], 500.0)))
    neg = ~pos
    z = np.exp(np.maximum(x[neg], -500.0))
    out[neg] = z / (1.0 + z)
    return out


def masked_log_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, dtype=np.float64)
    pos = x >= 0.0
    out[pos] = -np.log1p(np.exp(-x[pos]))
    neg = ~pos
    out[neg] = x[neg] - np.log1p(np.exp(x[neg]))
    return out


PAIRS = (
    (kernels.sigmoid_branched, masked_sigmoid),
    (kernels.log_sigmoid_branched, masked_log_sigmoid),
)


def assert_same_bits(x):
    for kernel, oracle in PAIRS:
        got, want = kernel(x), oracle(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan), kernel.__name__
        assert np.array_equal(
            got[~nan].view(np.uint64), want[~nan].view(np.uint64)
        ), kernel.__name__


def test_every_special_value_keeps_its_bits():
    assert_same_bits(np.asarray(SPECIALS))
    for value in SPECIALS:
        assert_same_bits(np.asarray([value]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            st.floats(min_value=-800.0, max_value=800.0),
            st.sampled_from(SPECIALS),
        ),
        min_size=1,
        max_size=512,
    )
)
def test_random_inputs_keep_their_bits(values):
    assert_same_bits(np.asarray(values, dtype=np.float64))


def test_every_length_up_to_512_keeps_its_bits():
    rng = np.random.default_rng(0)
    for length in range(1, 513):
        x = np.where(
            rng.random(length) < 0.25,
            rng.choice(SPECIALS, length),
            rng.normal(0.0, 40.0, length),
        )
        assert_same_bits(x)
