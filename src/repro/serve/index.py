"""Cached top-K retrieval over a snapshot of item embeddings.

Scoring is the paper's Eq. 15 inner product, computed blockwise over the
candidate catalogue (``np.argpartition`` selects the top ``k`` without a
full sort) and tie-broken exactly like the offline ranking pipeline
(``np.argsort(-scores, kind="stable")``), so a cached answer and an
offline recomputation agree list-for-list.

The index holds one frozen catalogue matrix — the candidates' Eq. 14
rows under one snapshot version — gathered on the first miss of that
version and sliced ``SCORE_BLOCK`` rows at a time by every later miss on
it.  Each slice is a C-contiguous ``(≤ SCORE_BLOCK, d)`` array, the shape
a fresh per-chunk gather has, so the scores keep their bits.  The matrix
serves only its own version: a reader pinned to an older snapshot
gathers its own rows and never replaces a newer matrix, and
:meth:`TopKIndex.invalidate` drops it.

Each ``(user, k)`` answer is frozen and cached with the snapshot version
it was computed on, and served only while that version is live.  Every
publish clears the cache (:meth:`TopKIndex.invalidate`); once
``cache_size`` entries are held the least recently used is *evicted*.
Neither makes an answer wrong — both only cost a recomputation — and the
two are tallied separately.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.serve.store import DecayedSnapshot

#: Candidate rows scored per matmul block; fixes the gemv shape, and so
#: the bits, of every served score.
SCORE_BLOCK = 512


class CacheEntry(NamedTuple):
    """One cached top-K answer and the snapshot version it is exact for."""

    version: int
    items: np.ndarray


class Catalogue(NamedTuple):
    """The candidates' rows under one snapshot version (read-only)."""

    version: int
    rows: np.ndarray


class TopKIndex:
    """Top-K retrieval over a fixed candidate catalogue.

    Parameters
    ----------
    candidates:
        Global node ids of the retrievable items (the catalogue).
    cache_size:
        Maximum number of ``(user, k)`` entries kept in the LRU cache
        (``>= 0``); 0 disables caching.
    """

    def __init__(self, candidates: np.ndarray, cache_size: int = 1024):
        self.candidates = np.asarray(candidates, dtype=np.int64)
        if self.candidates.ndim != 1 or self.candidates.size == 0:
            raise ValueError("candidates must be a non-empty 1-D id array")
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self.cache_size = int(cache_size)
        # Innermost serve-path lock (DESIGN.md §12): guards the LRU cache,
        # the held catalogue and the tallies.  Gathering and scoring run
        # *outside* it — only bookkeeping serialises, so concurrent
        # readers never wait on a gather or a matmul.
        self._lock = threading.Lock()
        self._cache: "OrderedDict[Tuple[int, int], CacheEntry]" = OrderedDict()
        self._catalogue: Optional[Catalogue] = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    # ---------------------------------------------------------------- scoring

    def _catalogue_rows(self, snapshot: DecayedSnapshot) -> np.ndarray:
        """The candidates' rows under ``snapshot`` (read-only), gathered
        once per version: the held matrix if it is this version's, else
        a fresh gather that replaces it unless it is older."""
        with self._lock:
            held = self._catalogue
        if held is not None and held.version == snapshot.version:
            return held.rows
        rows = snapshot.rows(self.candidates)
        rows.setflags(write=False)
        with self._lock:
            held = self._catalogue
            if held is None or held.version < snapshot.version:
                self._catalogue = Catalogue(snapshot.version, rows)
        return rows

    def scores(self, snapshot: DecayedSnapshot, user: int) -> np.ndarray:
        """Eq. 15 scores of every candidate for ``user``, blockwise."""
        query = np.asarray(snapshot.row(user), dtype=np.float64)
        rows = self._catalogue_rows(snapshot)
        out = np.empty(self.candidates.size, dtype=np.float64)
        for lo in range(0, self.candidates.size, SCORE_BLOCK):
            out[lo : lo + SCORE_BLOCK] = rows[lo : lo + SCORE_BLOCK] @ query
        return out

    def _top_k_exact(self, scores: np.ndarray, k: int) -> np.ndarray:
        """Positions of the top ``k`` scores in offline (stable) order.

        Matches ``np.argsort(-scores, kind="stable")[:k]`` exactly:
        ``argpartition`` preselects ``k`` candidates, and a full stable
        sort is used only when ties straddle the cut boundary.
        """
        if k >= scores.size:
            return np.argsort(-scores, kind="stable")
        part = np.argpartition(-scores, k - 1)[:k]
        if np.count_nonzero(scores >= scores[part].min()) > k:
            return np.argsort(-scores, kind="stable")[:k]
        # lexsort: primary key -score, ties broken by ascending position
        return part[np.lexsort((part, -scores[part]))]

    def top_k(self, snapshot: DecayedSnapshot, user: int, k: int) -> np.ndarray:
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
        items = self.candidates[self._top_k_exact(scores, k)]
        # frozen: the caller holds the same array the next hit serves
        items.setflags(write=False)
        if self.cache_size > 0:
            with self._lock:
                # insert, evicting least-recently-used entries past cache_size
                self._cache.pop(key, None)
                self._cache[key] = CacheEntry(snapshot.version, items)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
                    self.evictions += 1
        return items

    # ----------------------------------------------------------- invalidation

    def invalidate(self, snapshot: DecayedSnapshot) -> int:
        """Drop every cached answer and the held catalogue now that
        ``snapshot`` is published.

        Under inference-time decay a publish's clock advance moves every
        served embedding, so no entry survives it; the version checks on
        cached answers and on the held catalogue already refuse an older
        snapshot's answer or rows, and clearing here only frees the
        memory early.  Returns the number of dropped answers (tallied in
        ``invalidations``).
        """
        with self._lock:
            dropped = len(self._cache)
            self._cache.clear()
            self._catalogue = None
            self.invalidations += dropped
        return dropped

    # -------------------------------------------------------------- inspection

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0
