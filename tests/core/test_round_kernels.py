"""Each fused round kernel keeps every bit of the split form it replaces.

The round executor's kernels (``repro.core.engine.kernels``) fuse what
the per-edge oracle computes separately (``tests/oracle/kernels.py``):

- ``padded_segment_sums`` reduces a position-major ``(width, segments ·
  dim)`` block with ``np.add.reduce`` where the split form accumulates a
  segment-major ``(segments, width, dim)`` block with
  ``np.add.accumulate``;
- ``sigmoid_nll`` draws the sigmoid and ``-log sigma`` from one
  exponential, where the split form calls ``sigmoid_branched`` and
  ``log_sigmoid_branched``;
- ``context_draw_rows`` scores Eq. 10 hops and Eq. 12 negatives in one
  pass, where the split form calls ``propagation_rows`` and
  ``negative_rows``;
- ``interaction_rows`` is Eq. 7's forward and backward in one call.

Every comparison is ``tobytes`` equality (``-0.0`` is not ``+0.0``);
NaN positions compare as NaN where a sign flip is an IEEE ``-x`` on
one side and ``-1.0 * x`` on the other.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import kernels
from tests.core.test_sigmoid_kernels import EPS, SPECIALS
from tests.oracle import kernels as split

SUM_SPECIALS = np.asarray(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -2.2e-308]
)
ABOVE_500 = [500.0 + EPS, -500.0 - EPS, 500.5, -500.5, 600.0, -600.0]


def _segment_major_sums(values, segments, positions, num_segments, width):
    """The split form: a ``(segments, width, dim)`` block accumulated
    along ``width``; segment ``s`` is its last accumulated row."""
    padded = np.zeros((num_segments * width, values.shape[1]), dtype=np.float64)
    padded[segments * width + positions] = values
    return np.add.accumulate(padded.reshape(num_segments, width, -1), axis=1)[:, -1]


def _segment_rows(rng, width, num_segments, dim):
    """Rows of random segment lengths (at most ``width``, one of them
    exactly ``width``), values spread over many magnitudes so a
    reassociated sum changes bits, with specials mixed in."""
    lengths = rng.integers(0, width + 1, size=num_segments)
    lengths[rng.integers(num_segments)] = width
    segments = np.repeat(np.arange(num_segments), lengths)
    positions = np.concatenate([np.arange(n) for n in lengths]).astype(np.int64)
    values = rng.normal(size=(segments.size, dim)) * 10.0 ** rng.integers(
        -12, 12, size=(segments.size, dim)
    )
    special = rng.random(values.shape) < 0.05
    values[special] = rng.choice(SUM_SPECIALS, int(special.sum()))
    return values, segments, positions


def _assert_sums_equal(rng, width, num_segments, dim):
    values, segments, positions = _segment_rows(rng, width, num_segments, dim)
    fused = kernels.padded_segment_sums(
        values, positions * num_segments + segments, num_segments, width
    )
    want = _segment_major_sums(values, segments, positions, num_segments, width)
    assert fused.shape == want.shape
    assert fused.tobytes() == want.tobytes(), (width, num_segments, dim)


class TestSegmentSums:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        width=st.integers(1, 64),
        num_segments=st.integers(1, 64),
        dim=st.sampled_from([1, 32]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(width=64, num_segments=1, dim=1, seed=0)
    def test_position_major_reduce_equals_segment_major_accumulate(
        self, width, num_segments, dim, seed
    ):
        _assert_sums_equal(np.random.default_rng(seed), width, num_segments, dim)

    def test_every_width_of_a_one_column_block(self):
        """One segment of one column is the block numpy would reduce
        along its contiguous axis (pairwise from 9 rows on)."""
        rng = np.random.default_rng(7)
        for width in range(1, 65):
            for num_segments, dim in ((1, 1), (2, 1), (1, 32)):
                _assert_sums_equal(rng, width, num_segments, dim)

    def test_empty_segments_sum_to_positive_zero(self):
        values = np.asarray([[-0.0, 2.0]], dtype=np.float64)
        sums = kernels.padded_segment_sums(values, np.asarray([1]), 3, 1)
        assert sums.tobytes() == np.asarray(
            [[0.0, 0.0], [-0.0, 2.0], [0.0, 0.0]], dtype=np.float64
        ).tobytes()


def _assert_same_bits(got, want, nan_by_value=False):
    assert got.shape == want.shape and got.dtype == want.dtype
    if nan_by_value:
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        got, want = got[~nan], want[~nan]
    assert got.tobytes() == want.tobytes()


def _assert_sigmoid_pair(x):
    x = np.asarray(x, dtype=np.float64)
    sig, nll = kernels.sigmoid_nll(x)
    _assert_same_bits(sig, split.sigmoid_branched(x))
    _assert_same_bits(nll, -split.log_sigmoid_branched(x))
    for sign in (1.0, -1.0):
        signs = np.full(x.shape, sign)
        sig, nll = kernels.sigmoid_nll(x, signs)
        _assert_same_bits(sig, split.sigmoid_branched(x))
        # -1.0 * NaN keeps the NaN's sign bit, -NaN flips it
        _assert_same_bits(
            nll, -split.log_sigmoid_branched(sign * x), nan_by_value=sign < 0
        )


class TestSigmoidPair:
    def test_every_special_value_keeps_its_bits(self):
        specials = np.asarray(SPECIALS + ABOVE_500)
        _assert_sigmoid_pair(specials)
        for value in specials:
            _assert_sigmoid_pair([value])
        # an input past the clip next to finite and NaN inputs
        for value in ABOVE_500:
            _assert_sigmoid_pair([value, 3.0, np.nan, -2.0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                st.floats(min_value=-800.0, max_value=800.0),
                st.sampled_from(SPECIALS + ABOVE_500),
            ),
            min_size=0,
            max_size=256,
        )
    )
    def test_random_inputs_keep_their_bits(self, values):
        _assert_sigmoid_pair(values)


def _draw_inputs(rng, hops, negatives, dim, scale):
    n = hops + negatives
    context = rng.normal(size=(n, dim)) * scale
    source = rng.normal(size=(n, dim)) * scale
    zeros = rng.random((n, dim)) < 0.05
    context[zeros] = rng.choice([0.0, -0.0, 5e-324, -1e-310], int(zeros.sum()))
    cums = rng.uniform(0.0, 1.0, size=hops)
    return context, source, cums


class TestContextDrawRows:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        hops=st.integers(0, 40),
        negatives=st.integers(0, 40),
        dim=st.sampled_from([1, 3, 32]),
        scale=st.sampled_from([0.1, 1.0, 6.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_merged_kernel_equals_propagation_then_negative_rows(
        self, hops, negatives, dim, scale, seed
    ):
        rng = np.random.default_rng(seed)
        context, source, cums = _draw_inputs(rng, hops, negatives, dim, scale)
        labels = np.concatenate((np.ones(hops), np.zeros(negatives)))
        factors = np.concatenate((cums, np.ones(negatives)))
        # interleave the kinds: the kernel is row-wise
        order = rng.permutation(hops + negatives)
        merged = kernels.context_draw_rows(
            context[order],
            source[order],
            factors[order],
            labels[order],
            labels[order] + labels[order] - 1.0,
        )
        back = np.empty_like(order)
        back[order] = np.arange(order.size)
        want_hops = split.propagation_rows(context[:hops], source[:hops], cums)
        want_negs = split.negative_rows(context[hops:], source[hops:])
        for got, want_h, want_n in zip(merged, want_hops, want_negs):
            got = got[back]
            _assert_same_bits(got[:hops], want_h)
            _assert_same_bits(got[hops:], want_n)


class TestInteractionRows:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        edges=st.integers(1, 40),
        dim=st.sampled_from([1, 5, 32]),
        scale=st.sampled_from([0.1, 1.0, 8.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fused_equals_forward_then_backward(self, edges, dim, scale, seed):
        rng = np.random.default_rng(seed)
        h_star = rng.normal(size=(2 * edges, dim)) * scale
        context = rng.normal(size=(2 * edges, dim)) * scale
        loss, grad = kernels.interaction_rows(h_star, context)
        want_loss, score, h_r = split.interaction_forward(h_star, context)
        _assert_same_bits(loss, want_loss)
        _assert_same_bits(grad, split.interaction_backward(score, h_r))


@pytest.mark.parametrize("scale", [1.0, 40.0])
def test_eq5_backward_shares_the_forward_log(scale):
    """Eq. 5's backward reuses the forward's ``log(e + x)``: the alpha
    gradient keeps the bits of ``g_decay_derivative``'s own log."""
    from repro.core.config import SUPAConfig

    rng = np.random.default_rng(3)
    n, dim = 33, 8
    long_rows, short_rows, grad_h = (rng.normal(size=(n, dim)) for _ in range(3))
    alpha = rng.normal(size=n) * scale
    deltas = rng.uniform(0.0, 50.0, size=n)
    cfg = SUPAConfig()
    _, gamma, x, sig, log_term = kernels.target_forward(
        long_rows, short_rows, alpha, deltas, cfg
    )
    shared = kernels.target_backward(
        grad_h, short_rows, alpha, gamma, x, deltas, cfg, sig=sig, log_term=log_term
    )
    recomputed = kernels.target_backward(
        grad_h, short_rows, alpha, gamma, x, deltas, cfg
    )
    for a, b in zip(shared, recomputed):
        _assert_same_bits(a, b)
