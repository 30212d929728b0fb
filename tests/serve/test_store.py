"""Tests for the copy-on-write versioned embedding store."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.store import BLOCK_SIZE, VersionedEmbeddingStore
from tests.serve import make_decayed_store


def make_store(n=10, d=4, block=4, seed=0):
    rng = np.random.default_rng(seed)
    initial = rng.normal(size=(n, d))
    return VersionedEmbeddingStore(initial, block_size=block), initial


class TestConstruction:
    def test_seed_becomes_version_zero(self):
        store, initial = make_store()
        snap = store.snapshot()
        assert snap.version == 0
        np.testing.assert_array_equal(snap.matrix(), initial)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            VersionedEmbeddingStore(np.zeros(3, dtype=np.float64))

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            VersionedEmbeddingStore(np.zeros((2, 2), dtype=np.float64), block_size=0)


class TestPublish:
    def test_updates_only_given_rows(self):
        store, initial = make_store()
        new_rows = np.ones((2, 4), dtype=np.float64)
        snap = store.publish([2, 7], new_rows)
        assert snap.version == 1
        np.testing.assert_array_equal(snap.row(2), new_rows[0])
        np.testing.assert_array_equal(snap.row(7), new_rows[1])
        untouched = [i for i in range(10) if i not in (2, 7)]
        np.testing.assert_array_equal(snap.rows(untouched), initial[untouched])

    def test_pinned_snapshot_never_changes(self):
        """Snapshot isolation: readers pin a version; publishes are invisible."""
        store, initial = make_store()
        pinned = store.snapshot()
        before = pinned.matrix()
        store.publish([0, 5, 9], np.full((3, 4), 42.0, dtype=np.float64))
        np.testing.assert_array_equal(pinned.matrix(), before)
        assert pinned.version == 0 and store.version == 1

    def test_untouched_blocks_are_shared_not_copied(self):
        store, _ = make_store(n=12, block=4)  # blocks: [0-3], [4-7], [8-11]
        old = store.snapshot()
        new = store.publish([5], np.zeros((1, 4), dtype=np.float64))
        assert new.block(0) is old.block(0)
        assert new.block(2) is old.block(2)
        assert new.block(1) is not old.block(1)

    def test_untouched_block_stays_shared_across_many_publishes(self):
        """The layout never changes behind the readers' backs: a block no
        publish touches is the seed's array however many publishes land."""
        store, _ = make_store(n=8, block=4)
        first = store.snapshot()
        for i in range(100):
            store.publish([i % 4], np.full((1, 4), float(i), dtype=np.float64))
        newest = store.snapshot()
        assert newest.version == 100
        assert newest.block(1) is first.block(1)

    def test_blocks_are_read_only(self):
        store, _ = make_store()
        snap = store.snapshot()
        with pytest.raises(ValueError):
            snap.block(0)[0, 0] = 99.0

    def test_empty_publish_bumps_version(self):
        store, initial = make_store()
        snap = store.publish([], np.empty((0, 4), dtype=np.float64))
        assert snap.version == 1
        np.testing.assert_array_equal(snap.matrix(), initial)

    def test_shape_mismatch_raises(self):
        store, _ = make_store()
        with pytest.raises(ValueError):
            store.publish([1], np.zeros((2, 4), dtype=np.float64))

    def test_out_of_range_row_raises(self):
        store, _ = make_store()
        with pytest.raises(IndexError):
            store.publish([10], np.zeros((1, 4), dtype=np.float64))


class TestSnapshotReads:
    def test_row_and_rows_agree(self):
        store, initial = make_store(n=9, block=2)
        snap = store.snapshot()
        for i in range(9):
            np.testing.assert_array_equal(snap.row(i), initial[i])
        np.testing.assert_array_equal(snap.rows([8, 0, 3]), initial[[8, 0, 3]])

    def test_row_out_of_range(self):
        store, _ = make_store()
        with pytest.raises(IndexError):
            store.snapshot().row(10)

    @pytest.mark.parametrize("kind", ["dense", "decayed"])
    @pytest.mark.parametrize("bad", [-217, -1, 2600, 9999])
    def test_rows_refuses_what_row_refuses(self, kind, bad):
        """A negative index must not wrap around: ``divmod(-217, 256)`` is
        ``(-1, 39)``, the last row of the last block, so an unchecked
        gather of ``[-217]`` on 2,600 rows would return row 2,599."""
        snap = _snapshot(kind, 2600, BLOCK_SIZE)
        with pytest.raises(IndexError) as from_row:
            snap.row(bad)
        with pytest.raises(IndexError) as from_rows:
            snap.rows([3, bad, 5])
        assert str(from_rows.value) == str(from_row.value)
        assert str(from_row.value) == f"row {bad} outside store of 2600 rows"

    def test_block_rows_ranges(self):
        store, _ = make_store(n=10, block=4)
        snap = store.snapshot()
        assert [snap.block_rows(i) for i in range(3)] == [
            (0, 4),
            (4, 8),
            (8, 10),
        ]

    def test_versions_chain_across_publishes(self):
        store, _ = make_store()
        for expected in (1, 2, 3):
            snap = store.publish([0], np.full((1, 4), float(expected), dtype=np.float64))
            assert snap.version == expected
        assert store.snapshot().row(0)[0] == 3.0


# --------------------------------------------------- block gather and scatter


def _snapshot(kind, num_rows, block_size, dim=3, seed=0):
    """A snapshot of either kind over ``num_rows`` random rows."""
    if kind == "dense":
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(num_rows, dim))
        return VersionedEmbeddingStore(matrix, block_size=block_size).snapshot()
    return make_decayed_store(num_rows, dim, block_size, seed=seed).snapshot()


@st.composite
def gathers(draw):
    """``(block_size, num_rows, indices)``: the block does not divide
    ``num_rows`` (bar 1-row blocks); indices come unsorted, repeated,
    across blocks or empty, as drawn."""
    block_size = draw(st.sampled_from([1, 7, 256]))
    num_rows = draw(st.integers(0, 3)) * block_size + draw(
        st.integers(1, max(block_size - 1, 5))
    )
    indices = draw(st.lists(st.integers(0, num_rows - 1), max_size=64))
    return block_size, num_rows, indices


@pytest.mark.parametrize("kind", ["dense", "decayed"])
@settings(max_examples=60, deadline=None)
@given(case=gathers())
@example(case=(7, 23, [22, 0, 0, 7, 6, 22, 13, 14]))
@example(case=(256, 600, []))
@example(case=(256, 600, list(range(250, 520))))
def test_rows_is_the_per_row_gather_byte_for_byte(kind, case):
    block_size, num_rows, indices = case
    snap = _snapshot(kind, num_rows, block_size)
    got = snap.rows(indices)
    want = (
        np.stack([snap.row(i) for i in indices])
        if indices
        else np.empty((0, snap.dim), dtype=np.float64)
    )
    assert got.shape == want.shape == (len(indices), snap.dim)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    block_size=st.sampled_from([1, 7, 256]),
    writes=st.lists(st.integers(0, 299), max_size=40),
)
@example(block_size=7, writes=[5, 5, 12, 5, 0, 299, 12])
def test_publish_is_the_per_row_scatter_last_write_wins(block_size, writes):
    rng = np.random.default_rng(len(writes))
    initial = rng.normal(size=(300, 3))
    values = rng.normal(size=(len(writes), 3))
    store = VersionedEmbeddingStore(initial, block_size=block_size)
    old = store.snapshot()
    new = store.publish(writes, values)
    want = initial.copy()
    for row, value in zip(writes, values):
        want[row] = value
    assert new.matrix().tobytes() == want.tobytes()
    dirty = {row // block_size for row in writes}
    for b in range(-(-new.num_rows // block_size)):  # every block
        assert (new.block(b) is old.block(b)) == (b not in dirty)
