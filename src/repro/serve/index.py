"""Cached top-K retrieval over a snapshot of item embeddings.

Scoring is the paper's Eq. 15 inner product, computed blockwise over the
candidate catalogue (``np.argpartition`` selects the top ``k`` without a
full sort) and tie-broken exactly like the offline ranking pipeline
(``np.argsort(-scores, kind="stable")``), so a cached answer and an
offline recomputation agree list-for-list.

The per-user LRU cache is invalidated *precisely* after each update
using the trainer's touched-node sets:

* entries whose **user** embedding changed are dropped;
* entries whose cached list contains a **changed item** are dropped
  (a member's score moved, so in-list order may differ);
* entries where a changed item's *new* score ties or beats the cached
  k-th score are dropped (the item could enter the list);
* every other entry is provably still exact and is retained, with its
  version stamp advanced to the new snapshot.

Orthogonally to correctness-driven invalidation, entries are *evicted*
least-recently-used first once the cache holds ``cache_size`` of them.
Evictions never make an answer wrong — they only cost a recomputation —
and are tallied separately from invalidations.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.serve.store import Snapshot

#: Candidate rows scored per matmul block.
SCORE_BLOCK = 512
#: ``k`` of the answers the service pre-computes for its busiest users.
WARM_K = 10


class CacheEntry(NamedTuple):
    """One cached top-K answer plus what invalidation needs to know."""

    version: int
    items: np.ndarray
    kth_score: float


class TopKIndex:
    """Top-K retrieval over a fixed candidate catalogue.

    Parameters
    ----------
    candidates:
        Global node ids of the retrievable items (the catalogue).
    cache_size:
        Maximum number of ``(user, k)`` entries kept in the LRU cache;
        0 disables caching.
    score_block:
        Candidate rows scored per matmul block.
    """

    def __init__(
        self,
        candidates: np.ndarray,
        cache_size: int = 1024,
        score_block: int = SCORE_BLOCK,
    ):
        self.candidates = np.asarray(candidates, dtype=np.int64)
        if self.candidates.ndim != 1 or self.candidates.size == 0:
            raise ValueError("candidates must be a non-empty 1-D id array")
        if score_block < 1:
            raise ValueError(f"score_block must be >= 1, got {score_block}")
        self.cache_size = int(cache_size)
        self.score_block = int(score_block)
        self._candidate_set: Set[int] = set(int(c) for c in self.candidates)
        # Innermost serve-path lock (DESIGN.md §12): guards the LRU cache
        # and its tallies.  Scoring runs *outside* it — only cache
        # bookkeeping serialises, so concurrent readers never wait on a
        # matmul.
        self._lock = threading.Lock()
        self._cache: "OrderedDict[Tuple[int, int], CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.warmed = 0

    # ---------------------------------------------------------------- scoring

    def scores(self, snapshot: Snapshot, user: int) -> np.ndarray:
        """Eq. 15 scores of every candidate for ``user``, blockwise."""
        query = np.asarray(snapshot.row(user), dtype=np.float64)
        out = np.empty(self.candidates.size, dtype=np.float64)
        for lo in range(0, self.candidates.size, self.score_block):
            chunk = self.candidates[lo : lo + self.score_block]
            out[lo : lo + chunk.size] = snapshot.rows(chunk) @ query
        return out

    def _top_k_exact(self, scores: np.ndarray, k: int) -> Tuple[np.ndarray, float]:
        """Positions of the top ``k`` scores in offline (stable) order.

        Matches ``np.argsort(-scores, kind="stable")[:k]`` exactly:
        ``argpartition`` preselects ``k`` candidates, and a full stable
        sort is used only when ties straddle the cut boundary.
        """
        n = scores.size
        if k >= n:
            order = np.argsort(-scores, kind="stable")
            kth = float(scores[order[-1]]) if n else float("-inf")
            return order, kth
        part = np.argpartition(-scores, k - 1)[:k]
        kth = float(scores[part].min())
        if np.count_nonzero(scores >= kth) > k:
            order = np.argsort(-scores, kind="stable")[:k]
            return order, float(scores[order[-1]])
        # lexsort: primary key -score, ties broken by ascending position
        order = part[np.lexsort((part, -scores[part]))]
        return order, kth

    def top_k(self, snapshot: Snapshot, user: int, k: int) -> np.ndarray:
        """The ``k`` best candidate ids for ``user`` under ``snapshot``.

        Serves from the LRU cache when a prior answer is still valid for
        this snapshot version; otherwise computes and caches.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        key = (int(user), int(k))
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None and entry.version == snapshot.version:
                self._cache.move_to_end(key)
                self.hits += 1
                return entry.items
            self.misses += 1
        # Scoring happens outside the lock: it dominates the miss path
        # and must not serialise concurrent readers.  The snapshot is
        # immutable, so the answer stays exact for its version even if
        # another thread publishes or caches meanwhile.
        scores = self.scores(snapshot, user)
        positions, kth = self._top_k_exact(scores, k)
        items = self.candidates[positions]
        if self.cache_size > 0:
            with self._lock:
                self._store_entry(key, CacheEntry(snapshot.version, items, kth))
        return items

    def _store_entry(self, key: Tuple[int, int], entry: CacheEntry) -> None:
        """Insert an answer, evicting least-recently-used entries past
        ``cache_size`` (lock held)."""
        self._cache.pop(key, None)
        self._cache[key] = entry
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
            self.evictions += 1

    def warm(self, snapshot: Snapshot, users: Iterable[int], k: int = WARM_K) -> int:
        """Pre-compute and cache top-``k`` answers for ``users``.

        Users whose cached answer is already exact for this snapshot
        version are skipped.  Warm fills are tallied in ``warmed``
        rather than ``hits``/``misses`` — they are speculative work
        done off the serving path, not traffic.  Returns the number of
        entries actually computed.
        """
        if self.cache_size <= 0:
            return 0
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        count = 0
        for user in users:
            key = (int(user), int(k))
            with self._lock:
                entry = self._cache.get(key)
                if entry is not None and entry.version == snapshot.version:
                    continue
            scores = self.scores(snapshot, int(user))
            positions, kth = self._top_k_exact(scores, k)
            items = self.candidates[positions]
            with self._lock:
                self._store_entry(key, CacheEntry(snapshot.version, items, kth))
                self.warmed += 1
            count += 1
        return count

    # ----------------------------------------------------------- invalidation

    def invalidate(
        self,
        snapshot: Snapshot,
        touched_users: Optional[Iterable[int]] = None,
        touched_items: Optional[Iterable[int]] = None,
    ) -> int:
        """Drop exactly the cache entries the last update made stale.

        ``snapshot`` is the newly published version; surviving entries
        are re-stamped to it.  ``None`` for either set means *every*
        node changed (decayed serving: the clock moved every embedding),
        which leaves nothing to decide per entry — the cache is cleared
        in O(entries).  Returns the number of dropped entries.
        """
        if touched_users is None or touched_items is None:
            with self._lock:
                dropped = len(self._cache)
                self._cache.clear()
                self.invalidations += dropped
            return dropped
        users = set(int(u) for u in touched_users)
        items = np.asarray(
            sorted(self._candidate_set.intersection(int(i) for i in touched_items)),
            dtype=np.int64,
        )
        item_set = set(int(i) for i in items)
        dropped = 0
        new_scores: Dict[int, np.ndarray] = {}
        # Writer path: staleness decisions and the re-stamp must be
        # atomic against concurrent readers, so the whole sweep holds
        # the lock (the per-user rescoring touches only the immutable
        # snapshot).
        with self._lock:
            for key in list(self._cache):
                user, _ = key
                entry = self._cache[key]
                if user in users:
                    stale = True
                elif item_set and any(int(i) in item_set for i in entry.items):
                    stale = True
                elif items.size:
                    scores = new_scores.get(user)
                    if scores is None:
                        query = np.asarray(snapshot.row(user), dtype=np.float64)
                        scores = snapshot.rows(items) @ query
                        new_scores[user] = scores
                    # >= : a tie with the cached boundary can reorder the list
                    stale = bool(np.any(scores >= entry.kth_score))
                else:
                    stale = False
                if stale:
                    del self._cache[key]
                    dropped += 1
                else:
                    self._cache[key] = entry._replace(version=snapshot.version)
            self.invalidations += dropped
        return dropped

    # -------------------------------------------------------------- inspection

    def cached_keys(self) -> Tuple[Tuple[int, int], ...]:
        """Current ``(user, k)`` cache keys, oldest first."""
        with self._lock:
            return tuple(self._cache.keys())

    def cache_entry(self, user: int, k: int) -> Optional[CacheEntry]:
        """The cached entry for ``(user, k)``, if any (no LRU effect)."""
        with self._lock:
            return self._cache.get((int(user), int(k)))

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0
