"""Tests for cached top-K retrieval and precise invalidation."""

import numpy as np
import pytest

from repro.serve.index import SCORE_BLOCK, TopKIndex
from repro.serve.store import BLOCK_SIZE, DecayedSnapshot, VersionedEmbeddingStore
from tests.serve import make_decayed_store


def make_world(n_users=4, n_items=20, d=8, seed=0, **index_kwargs):
    """Users are rows [0, n_users); items the rest."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n_users + n_items, d))
    store = VersionedEmbeddingStore(matrix, block_size=5)
    items = np.arange(n_users, n_users + n_items, dtype=np.int64)
    index = TopKIndex(items, **index_kwargs)
    return store, index, matrix, items


def offline_top_k(matrix, items, user, k):
    scores = matrix[items] @ matrix[user]
    return items[np.argsort(-scores, kind="stable")[:k]]


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
        store = VersionedEmbeddingStore(matrix, block_size=2)
        items = np.arange(1, 6, dtype=np.int64)
        index = TopKIndex(items)
        for k in (1, 2, 3, 4):
            np.testing.assert_array_equal(
                index.top_k(store.snapshot(), 0, k),
                offline_top_k(matrix, items, 0, k),
            )

    def test_blocked_scoring_equals_single_shot(self):
        store, index_small, matrix, items = make_world(score_block=3)
        _, index_big, _, _ = make_world(score_block=1000)
        snap = store.snapshot()
        np.testing.assert_allclose(
            index_small.scores(snap, 2), index_big.scores(snap, 2)
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
        assert index.cached_keys() == ((1, 5), (2, 5))

    def test_cache_disabled(self):
        store, index, _, _ = make_world(cache_size=0)
        snap = store.snapshot()
        index.top_k(snap, 0, 5)
        index.top_k(snap, 0, 5)
        assert index.hits == 0 and index.misses == 2


class TestInvalidation:
    def test_touched_user_dropped_untouched_retained(self):
        store, index, matrix, items = make_world()
        snap = store.snapshot()
        index.top_k(snap, 0, 5)
        index.top_k(snap, 1, 5)
        new = store.publish([0], np.zeros((1, 8), dtype=np.float64))
        dropped = index.invalidate(new, touched_users={0}, touched_items=())
        assert dropped == 1
        assert index.cache_entry(0, 5) is None
        retained = index.cache_entry(1, 5)
        assert retained is not None and retained.version == new.version

    def test_item_inside_cached_list_drops_entry(self):
        store, index, matrix, items = make_world()
        snap = store.snapshot()
        cached = index.top_k(snap, 0, 5)
        member = int(cached[0])
        new = store.publish([member], np.zeros((1, 8), dtype=np.float64))
        assert index.invalidate(new, touched_users=(), touched_items={member}) == 1

    def test_weak_item_change_retains_entry_exactly(self):
        """An item that stays below the cached k-th score leaves the
        entry valid — and the retained answer equals recomputation."""
        store, index, matrix, items = make_world()
        snap = store.snapshot()
        cached = index.top_k(snap, 0, 5)
        loser = int(items[-1]) if int(items[-1]) not in set(int(i) for i in cached) else int(items[0])
        assert loser not in set(int(i) for i in cached)
        # push the loser even further down: a large negative embedding
        new = store.publish(
            [loser], np.full((1, 8), -100.0, dtype=np.float64)
        )
        dropped = index.invalidate(new, touched_users=(), touched_items={loser})
        assert dropped == 0
        fresh_matrix = new.matrix()
        np.testing.assert_array_equal(
            index.top_k(new, 0, 5), offline_top_k(fresh_matrix, items, 0, 5)
        )
        assert index.hits >= 1  # the retained entry actually served

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
        dropped = index.invalidate(new, touched_users=(), touched_items={outsider})
        assert dropped == 1

    def test_full_invalidation_equals_naming_every_node(self):
        """``None`` (every node changed — what decayed serving passes on
        each publish) drops and counts exactly what passing the whole
        node range does, without building it."""
        outcomes = []
        for everything in (None, set(range(24))):  # make_world: 4 users + 20 items
            store, index, _, items = make_world()
            snap = store.snapshot()
            for user in range(4):
                index.top_k(snap, user, 5)
            index.top_k(snap, 0, 3)
            new = store.publish([0], np.zeros((1, 8), dtype=np.float64))
            dropped = index.invalidate(new, everything, everything)
            outcomes.append((dropped, index.invalidations, index.cached_keys()))
            # the emptied cache keeps serving: next read is a miss on `new`
            np.testing.assert_array_equal(
                index.top_k(new, 1, 5),
                offline_top_k(new.matrix(), items, 1, 5),
            )
        assert outcomes[0] == outcomes[1] == (5, 5, ())

    def test_non_candidate_touched_items_ignored(self):
        store, index, _, _ = make_world()
        snap = store.snapshot()
        index.top_k(snap, 0, 5)
        new = store.publish([1], np.zeros((1, 8), dtype=np.float64))
        # node 1 is a user, not in the candidate catalogue
        assert index.invalidate(new, touched_users=(), touched_items={1}) == 0


class TestEviction:
    def test_lru_count_eviction_counts_as_eviction(self):
        store, index, _, _ = make_world(cache_size=2)
        snap = store.snapshot()
        for user in range(3):
            index.top_k(snap, user, 5)
        assert index.evictions == 1
        assert index.cached_keys() == ((1, 5), (2, 5))
        # invalidations are not evictions
        new = store.publish([1], np.zeros((1, 8), dtype=np.float64))
        assert index.invalidate(new, touched_users={1}, touched_items=()) == 1
        assert index.evictions == 1 and index.invalidations == 1


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
            store = VersionedEmbeddingStore(rng.normal(size=(num_rows, d)))
        else:
            store = make_decayed_store(num_rows, d, BLOCK_SIZE, seed=5)
        items = np.arange(100, num_rows, dtype=np.int64)
        if catalogue == "shuffled":
            items = rng.permutation(items)
        index = TopKIndex(items)
        snap = store.snapshot()
        for user in (0, 7, 99):
            query = snap.row(user)
            want = np.concatenate(
                [
                    np.stack([snap.row(c) for c in items[lo : lo + SCORE_BLOCK]]) @ query
                    for lo in range(0, items.size, SCORE_BLOCK)
                ]
            )
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
