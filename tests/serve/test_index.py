"""Tests for cached top-K retrieval, its version check and invalidation."""

import numpy as np
import pytest

from repro.serve.index import SCORE_BLOCK, TopKIndex
from repro.serve.store import BLOCK_SIZE, DecayedSnapshot
from tests.serve import ServedMatrix, full_matrix, make_decayed_store


def make_world(n_users=4, n_items=20, d=8, seed=0, **index_kwargs):
    """Users are rows [0, n_users); items the rest.  The store serves
    ``matrix`` bitwise (:class:`~tests.serve.ServedMatrix`)."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n_users + n_items, d))
    store = ServedMatrix(matrix, block_size=5)
    items = np.arange(n_users, n_users + n_items, dtype=np.int64)
    index = TopKIndex(items, **index_kwargs)
    return store, index, matrix, items


def offline_top_k(matrix, items, user, k):
    scores = matrix[items] @ matrix[user]
    return items[np.argsort(-scores, kind="stable")[:k]]


def per_row_scores(snap, items, user):
    """Eq. 15 scores over ``SCORE_BLOCK`` chunks gathered one row at a time."""
    query = snap.row(user)
    return np.concatenate(
        [
            np.stack([snap.row(c) for c in items[lo : lo + SCORE_BLOCK]]) @ query
            for lo in range(0, items.size, SCORE_BLOCK)
        ]
    )


def count_block_calls(monkeypatch):
    """Record the block index of every ``DecayedSnapshot.block`` call."""
    calls = []
    block = DecayedSnapshot.block

    def counted(snapshot, i):
        calls.append(i)
        return block(snapshot, i)

    monkeypatch.setattr(DecayedSnapshot, "block", counted)
    return calls


class TestTopK:
    @pytest.mark.parametrize("k", [1, 3, 10, 19, 20, 50])
    def test_matches_stable_argsort_reference(self, k):
        store, index, matrix, items = make_world()
        for user in range(4):
            got = index.top_k(store.snapshot(), user, k)
            np.testing.assert_array_equal(
                got, offline_top_k(matrix, items, user, k)
            )

    def test_tie_handling_matches_reference(self):
        """Equal scores across the cut boundary keep offline order."""
        matrix = np.zeros((6, 2), dtype=np.float64)
        matrix[0] = [1.0, 0.0]  # user
        matrix[1:4] = [2.0, 0.0]  # three tied items
        matrix[4:6] = [1.0, 0.0]  # two tied items below
        store = ServedMatrix(matrix, block_size=2)
        items = np.arange(1, 6, dtype=np.int64)
        index = TopKIndex(items)
        for k in (1, 2, 3, 4):
            np.testing.assert_array_equal(
                index.top_k(store.snapshot(), 0, k),
                offline_top_k(matrix, items, 0, k),
            )

    def test_k_must_be_positive(self):
        store, index, _, _ = make_world()
        with pytest.raises(ValueError):
            index.top_k(store.snapshot(), 0, 0)


class TestCache:
    def test_second_query_hits(self):
        store, index, _, _ = make_world()
        snap = store.snapshot()
        a = index.top_k(snap, 1, 5)
        b = index.top_k(snap, 1, 5)
        assert index.hits == 1 and index.misses == 1
        np.testing.assert_array_equal(a, b)

    def test_lru_evicts_oldest(self):
        store, index, _, _ = make_world(cache_size=2)
        snap = store.snapshot()
        index.top_k(snap, 0, 5)
        index.top_k(snap, 1, 5)
        index.top_k(snap, 2, 5)  # evicts user 0
        index.top_k(snap, 1, 5)  # kept: hits
        index.top_k(snap, 2, 5)
        assert (index.hits, index.misses, index.evictions) == (2, 3, 1)
        index.top_k(snap, 0, 5)  # evicted: misses
        assert (index.hits, index.misses, index.evictions) == (2, 4, 2)

    def test_rejects_negative_cache_size(self):
        with pytest.raises(ValueError, match="cache_size must be >= 0"):
            make_world(cache_size=-4)

    def test_a_served_answer_is_read_only(self):
        """The caller holds the array the next hit serves: a write to it
        raises instead of corrupting the cached answer."""
        store, index, _, _ = make_world()
        snap = store.snapshot()
        first = index.top_k(snap, 1, 5)
        original = first.copy()
        with pytest.raises(ValueError, match="read-only"):
            first[0] = -1
        np.testing.assert_array_equal(index.top_k(snap, 1, 5), original)
        assert index.hits == 1

    def test_cache_disabled(self):
        store, index, _, _ = make_world(cache_size=0)
        snap = store.snapshot()
        index.top_k(snap, 0, 5)
        index.top_k(snap, 0, 5)
        assert index.hits == 0 and index.misses == 2


class TestInvalidation:
    def test_invalidate_clears_every_entry_and_counts(self):
        """A publish's clock advance can move every served embedding, so
        ``invalidate`` drops and counts every entry; the emptied cache
        keeps serving."""
        store, index, _, items = make_world()
        snap = store.snapshot()
        for user in range(4):
            index.top_k(snap, user, 5)
        index.top_k(snap, 0, 3)
        new = store.publish([0], np.zeros((1, 8), dtype=np.float64))
        assert index.invalidate(new) == 5
        assert index.invalidations == 5
        np.testing.assert_array_equal(
            index.top_k(new, 1, 5), offline_top_k(full_matrix(new), items, 1, 5)
        )
        assert index.misses == 6 and index.hits == 0

    def test_item_inside_cached_list_drops_entry(self):
        store, index, matrix, items = make_world()
        snap = store.snapshot()
        cached = index.top_k(snap, 0, 5)
        member = int(cached[0])
        new = store.publish([member], np.zeros((1, 8), dtype=np.float64))
        assert index.invalidate(new) == 1

    def test_item_beating_kth_score_drops_entry(self):
        store, index, matrix, items = make_world()
        snap = store.snapshot()
        cached = index.top_k(snap, 0, 5)
        outsider = next(int(i) for i in items if int(i) not in set(int(x) for x in cached))
        # make the outsider score astronomically high for every user
        new = store.publish(
            [outsider], np.full((1, 8), 100.0, dtype=np.float64) * np.sign(
                np.where(snap.row(0) == 0, 1.0, snap.row(0))
            )
        )
        assert index.invalidate(new) == 1
        assert int(index.top_k(new, 0, 5)[0]) == outsider

    def test_version_check_refuses_an_older_answer(self):
        """Correctness does not rest on ``invalidate``: an answer cached
        on one snapshot is never served for another."""
        store, index, _, items = make_world()
        snap = store.snapshot()
        old = index.top_k(snap, 0, 5)
        outsider = int(items[-1]) if int(items[-1]) not in set(old.tolist()) else int(items[0])
        new = store.publish([outsider], 100.0 * np.sign(snap.row(0))[None, :])
        fresh = index.top_k(new, 0, 5)
        assert int(fresh[0]) == outsider
        np.testing.assert_array_equal(fresh, offline_top_k(full_matrix(new), items, 0, 5))
        np.testing.assert_array_equal(index.top_k(snap, 0, 5), old)
        assert index.hits == 0 and index.misses == 3


class TestEviction:
    def test_lru_count_eviction_counts_as_eviction(self):
        store, index, _, _ = make_world(cache_size=2)
        snap = store.snapshot()
        for user in range(3):
            index.top_k(snap, user, 5)
        assert index.evictions == 1
        # invalidations are not evictions
        new = store.publish([1], np.zeros((1, 8), dtype=np.float64))
        assert index.invalidate(new) == 2
        assert index.evictions == 1 and index.invalidations == 2


class TestBlockGather:
    @pytest.mark.parametrize("kind", ["dense", "decayed"])
    @pytest.mark.parametrize("catalogue", ["contiguous", "shuffled"])
    def test_scores_equal_per_row_reference_byte_for_byte(self, kind, catalogue):
        """The gather keeps each ``SCORE_BLOCK`` chunk's rows in one
        contiguous ``(chunk, d)`` array, so the matmul — and its bits —
        are those of a per-row gather."""
        rng = np.random.default_rng(5)
        num_rows, d = 1337, 16
        if kind == "dense":
            store = ServedMatrix(rng.normal(size=(num_rows, d)), BLOCK_SIZE)
        else:
            store = make_decayed_store(num_rows, d, BLOCK_SIZE, seed=5)
        items = np.arange(100, num_rows, dtype=np.int64)
        if catalogue == "shuffled":
            items = rng.permutation(items)
        index = TopKIndex(items)
        snap = store.snapshot()
        for user in (0, 7, 99):
            want = per_row_scores(snap, items, user)
            assert index.scores(snap, user).tobytes() == want.tobytes()

    def test_a_miss_reads_a_block_per_run_not_per_row(self, monkeypatch):
        """One ``top_k`` miss over a 6,000-item contiguous catalogue with
        256-row blocks: 12 ``SCORE_BLOCK`` chunks span at most 3 blocks
        each, plus the user row's block — at most 37 ``block()`` calls.
        A per-row gather makes one per candidate (≈ 6,000)."""
        store = make_decayed_store(7500, 8, BLOCK_SIZE)
        index = TopKIndex(np.arange(1500, 7500, dtype=np.int64))
        calls = []
        block = DecayedSnapshot.block

        def counted(snapshot, i):
            calls.append(i)
            return block(snapshot, i)

        monkeypatch.setattr(DecayedSnapshot, "block", counted)
        index.top_k(store.snapshot(), 3, 10)
        assert index.misses == 1
        assert 0 < len(calls) <= 40


class TestHeldCatalogue:
    """The index gathers the catalogue's rows once per snapshot version
    and slices that frozen matrix on every later miss of the version."""

    @staticmethod
    def world():
        store = make_decayed_store(7500, 8, BLOCK_SIZE)
        return store, TopKIndex(np.arange(1500, 7500, dtype=np.int64))

    def test_a_second_miss_on_a_version_reads_only_the_user_block(self, monkeypatch):
        store, index = self.world()
        snap = store.snapshot()
        index.top_k(snap, 3, 10)
        calls = count_block_calls(monkeypatch)
        index.top_k(snap, 4, 10)
        assert index.misses == 2
        assert calls == [0]  # users 3 and 4 live in block 0

    @pytest.mark.parametrize("first", ["new", "old"])
    def test_each_reader_scores_its_own_version_across_a_publish(
        self, monkeypatch, first
    ):
        """A publish lands between two reads: the reader on the new
        snapshot and the one still pinned to the old both get their own
        version's bytes, in either order, and the old reader never
        replaces the newer matrix."""
        store, index = self.world()
        items = index.candidates
        old = store.snapshot()
        index.scores(old, 3)  # the index now holds the old version's rows
        touched = np.array([2, 1600, 4000], dtype=np.int64)
        new = store.publish(
            touched,
            np.full((touched.size, 24), 0.5),
            last_times=np.full(touched.size, 6.5),
            alpha=np.zeros(3),
            clock=7.0,
        )
        snaps = {"old": old, "new": new}
        for which in (first, "new" if first == "old" else "old"):
            snap = snaps[which]
            assert index.scores(snap, 3).tobytes() == per_row_scores(
                snap, items, 3
            ).tobytes(), which
        calls = count_block_calls(monkeypatch)
        index.scores(new, 5)
        assert calls == [0]

    def test_the_matrix_is_frozen_and_invalidate_drops_it(self, monkeypatch):
        store, index = self.world()
        snap = store.snapshot()
        index.top_k(snap, 3, 10)
        assert not index._catalogue.rows.flags.writeable
        index.invalidate(snap)
        assert index._catalogue is None
        calls = count_block_calls(monkeypatch)
        index.top_k(snap, 4, 10)
        assert len(calls) > 1  # the catalogue is gathered again
