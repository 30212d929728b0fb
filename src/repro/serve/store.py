"""The serve store: versioned, copy-on-write snapshots of Eq. 14 inputs.

The serving hot path must never observe a half-applied update: while the
background InsLearn step rewrites memory rows, concurrent ``recommend``
calls keep reading a consistent embedding table.  The service serves
every model through :class:`DecayedEmbeddingStore`, which versions the
time-free components ``concat(h^L, h^S, c^r)`` and reads Eq. 14 through
:func:`repro.core.updater.final_embedding_rows` at each snapshot's clock.
Its components live in a :class:`VersionedEmbeddingStore`, which gets
consistency from block-granular copy-on-write:

* the logical ``(num_rows, dim)`` matrix is stored as fixed-size row
  blocks, each frozen (``writeable=False``) once published;
* a :class:`Snapshot` is an immutable tuple of block references plus a
  version number — readers pin one by simply holding it;
* :meth:`VersionedEmbeddingStore.publish` copies only the blocks
  containing updated rows, writes the new values, refreezes them and
  swaps in the new snapshot under a lock with a single reference
  assignment, so publication is atomic for readers.

Blocks untouched by an update are shared structurally between
consecutive snapshots, so a publish that touches ``m`` rows costs
``O(ceil(m / block) * block * dim)`` — not ``O(num_rows * dim)``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.config import SUPAConfig
from repro.core.updater import final_embedding_rows

#: Rows per copy-on-write block.
BLOCK_SIZE = 256


def _runs(block_ids: np.ndarray) -> List[Tuple[int, int]]:
    """``[lo, hi)`` positions of each maximal run of equal (``>= 0``) block ids."""
    starts = np.flatnonzero(np.diff(block_ids, prepend=-1)).tolist()
    return list(zip(starts, starts[1:] + [block_ids.size]))


class Snapshot:
    """An immutable, versioned view of the full embedding matrix.

    A :class:`DecayedSnapshot` reads it block by block; the backing
    arrays are read-only, so a pinned snapshot can never change
    underneath its holder.
    """

    def __init__(
        self,
        version: int,
        blocks: Tuple[np.ndarray, ...],
        block_size: int,
        num_rows: int,
    ):
        self.version = version
        self._blocks = blocks
        self._block_size = block_size
        self.num_rows = num_rows
        self.dim = int(blocks[0].shape[1]) if blocks else 0

    def block(self, index: int) -> np.ndarray:
        """The ``index``-th row block (read-only array)."""
        return self._blocks[index]

    def block_rows(self, index: int) -> Tuple[int, int]:
        """Half-open global row range ``[lo, hi)`` covered by a block."""
        lo = index * self._block_size
        return lo, min(lo + self._block_size, self.num_rows)


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class VersionedEmbeddingStore:
    """Copy-on-write embedding table with atomic snapshot publication.

    Parameters
    ----------
    initial:
        The seed ``(num_rows, dim)`` matrix (copied); becomes version 0.
    block_size:
        Rows per copy-on-write block.  Smaller blocks copy less per
        update but cost more gather overhead per read.
    """

    def __init__(self, initial: np.ndarray, block_size: int = BLOCK_SIZE):
        initial = np.asarray(initial, dtype=np.float64)
        if initial.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {initial.shape}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.num_rows, self.dim = initial.shape
        self._block_size = block_size
        self._lock = threading.Lock()
        blocks = tuple(
            _freeze(initial[lo : lo + block_size].copy())
            for lo in range(0, self.num_rows, block_size)
        )
        self._current = Snapshot(0, blocks, block_size, self.num_rows)

    def snapshot(self) -> Snapshot:
        """The latest published snapshot; holding it pins the version.

        Deliberately lock-free: publication is a single reference
        assignment to an immutable snapshot (the GIL makes the read
        atomic), so readers never block on a publish — the serve path's
        never-blocks-on-learning guarantee depends on this.
        """
        return self._current  # reprolint: disable=lock-discipline

    def publish(self, rows: Sequence[int], values: np.ndarray) -> Snapshot:
        """Atomically publish new ``values`` for ``rows``.

        Only blocks containing an updated row are copied; the rest are
        shared with the previous snapshot.  Returns the new snapshot.
        An empty ``rows`` republishes the current blocks under a bumped
        version (useful to mark an update that changed nothing).
        """
        rows = np.asarray(rows, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (rows.size, self.dim):
            raise ValueError(
                f"values shape {values.shape} does not match ({rows.size}, {self.dim})"
            )
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_rows):
            raise IndexError("row index outside the store")
        # Last write wins: keep each row's final occurrence, in row order,
        # so every dirty block is one run and one fancy-assign.
        last = rows.size - 1 - np.unique(rows[::-1], return_index=True)[1]
        rows, values = rows[last], values[last]
        block_ids, offsets = np.divmod(rows, self._block_size)
        with self._lock:
            old = self._current
            blocks: List[np.ndarray] = list(old._blocks)
            for lo, hi in _runs(block_ids):
                b = int(block_ids[lo])
                writable = blocks[b].copy()
                writable[offsets[lo:hi]] = values[lo:hi]
                blocks[b] = _freeze(writable)
            new = Snapshot(old.version + 1, tuple(blocks), self._block_size, self.num_rows)
            self._current = new
            return new

    def publish_parts(
        self, parts: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> Snapshot:
        """Publish several ``(rows, values)`` stripes as ONE snapshot.

        The stripes are concatenated in the order given into a single
        atomic :meth:`publish` — bitwise identical to publishing the
        concatenation, and readers never observe a partially published
        update.  Nothing in ``repro`` calls it; the benchmark spine's
        probes bind it by name (ROADMAP item 1(b) retires both).
        """
        if not parts:
            return self.publish(
                np.empty(0, dtype=np.int64), np.empty((0, self.dim), dtype=np.float64)
            )
        rows = np.concatenate([np.asarray(r, dtype=np.int64) for r, _ in parts])
        values = np.concatenate(
            [np.asarray(v, dtype=np.float64).reshape(-1, self.dim) for _, v in parts],
            axis=0,
        )
        return self.publish(rows, values)


class DecayedSnapshot:
    """The served snapshot: Eq. 14 materialised lazily over a component :class:`Snapshot`.

    Wraps a component snapshot whose rows are ``concat(h^L, h^S, c^r)``
    (width ``3d``) plus the decay inputs frozen at publish time — the
    clock, per-node last-interaction times and the alpha parameters —
    and the model's :class:`~repro.core.config.SUPAConfig`.  Blocks of
    the logical ``(num_rows, d)`` Eq. 14 matrix are computed on first
    access (:func:`repro.core.updater.final_embedding_rows`) and cached;
    materialisation is a pure function of the frozen inputs, so racing
    readers compute identical bits and keep-first caching is harmless.
    """

    def __init__(
        self,
        components: Snapshot,
        clock: float,
        last_times: np.ndarray,
        alpha: np.ndarray,
        alpha_slots: np.ndarray,
        config: SUPAConfig,
    ):
        if components.dim % 3:
            raise ValueError(f"component width {components.dim} is not 3 * dim")
        self._components = components
        self.version = components.version
        self.num_rows = components.num_rows
        self.dim = components.dim // 3
        self.clock = float(clock)
        self._last_times = last_times
        self._alpha = alpha
        self._slots = alpha_slots
        self._config = config
        self._block_size = components._block_size
        # Guards the lazy block cache only; materialisation runs outside
        # it (pure, race-benign) so readers never wait on a rebuild.
        self._lock = threading.Lock()
        self._cache: Dict[int, np.ndarray] = {}

    def _materialize(self, index: int) -> np.ndarray:
        comp = self._components.block(index)
        lo, hi = self._components.block_rows(index)
        d = self.dim
        return _freeze(
            final_embedding_rows(
                comp[:, :d],
                comp[:, d : 2 * d],
                comp[:, 2 * d :],
                self._alpha,
                self._slots[lo:hi],
                self.clock - self._last_times[lo:hi],
                self._config,
            )
        )

    def block(self, index: int) -> np.ndarray:
        """The ``index``-th Eq. 14 row block (read-only, cached)."""
        with self._lock:
            cached = self._cache.get(index)
        if cached is not None:
            return cached
        computed = self._materialize(index)
        with self._lock:
            return self._cache.setdefault(index, computed)

    def row(self, index: int) -> np.ndarray:
        """One Eq. 14 embedding row (read-only view)."""
        if not 0 <= index < self.num_rows:
            raise IndexError(f"row {index} outside store of {self.num_rows} rows")
        block, offset = divmod(index, self._block_size)
        return self.block(block)[offset]

    def rows(self, indices: Sequence[int]) -> np.ndarray:
        """Gather ``indices`` into a fresh ``(len(indices), dim)`` array.

        One fancy-index per run of consecutive indices in the same block,
        so a sorted or contiguous gather touches each block once.
        """
        indices = np.asarray(indices, dtype=np.int64)
        outside = (indices < 0) | (indices >= self.num_rows)
        if outside.any():
            raise IndexError(
                f"row {indices[outside][0]} outside store of {self.num_rows} rows"
            )
        out = np.empty((indices.size, self.dim), dtype=np.float64)
        block_ids, offsets = np.divmod(indices, self._block_size)
        for lo, hi in _runs(block_ids):
            out[lo:hi] = self.block(int(block_ids[lo]))[offsets[lo:hi]]
        return out


class DecayedEmbeddingStore:
    """The service's one store: time-free components, Eq. 14 on read.

    Publishing final Eq. 14 embeddings under inference-time decay is
    pathological for a copy-on-write store: every update advances the
    clock, which moves *every* node's decayed embedding, so each publish
    would rewrite the full matrix.  This store factors time out of the
    stored value: an inner :class:`VersionedEmbeddingStore` versions the
    components ``concat(h^L, h^S, c^r)`` — touched rows only,
    O(touched) per publish — while the cheap decay inputs (clock,
    last-interaction times, alpha) ride along as per-snapshot metadata.
    Readers get a :class:`DecayedSnapshot` that materialises Eq. 14
    block-by-block on demand through the model's own formula and
    ``config`` (the model's :class:`~repro.core.config.SUPAConfig`, so
    ablations without decay serve ``h^L + h^S`` or ``h^L``), bitwise
    equal to ``SUPA.final_embeddings`` at the snapshot clock.

    The per-publish metadata cost is ``O(num_rows)`` *scalars* (the
    last-time vector copy), and the component blocks stay structurally
    shared between consecutive snapshots.
    """

    #: The store never compacts.  Kept at 0 only because the traced pass
    #: of ``benchmarks/spine/worker.py`` reads ``service.store.compactions``;
    #: it goes with ROADMAP item 1's metrics that measure nothing.
    compactions = 0

    def __init__(
        self,
        components: np.ndarray,
        last_times: np.ndarray,
        alpha: np.ndarray,
        alpha_slots: np.ndarray,
        config: SUPAConfig,
        clock: float = 0.0,
        block_size: int = BLOCK_SIZE,
    ):
        components = np.asarray(components, dtype=np.float64)
        if components.ndim != 2 or components.shape[1] % 3:
            raise ValueError(
                "components must be (num_rows, 3 * dim), got shape "
                f"{components.shape}"
            )
        self._inner = VersionedEmbeddingStore(components, block_size=block_size)
        self.num_rows = self._inner.num_rows
        self.dim = components.shape[1] // 3
        last_times = np.asarray(last_times, dtype=np.float64)
        if last_times.shape != (self.num_rows,):
            raise ValueError(
                f"last_times shape {last_times.shape} != ({self.num_rows},)"
            )
        self._slots = _freeze(np.asarray(alpha_slots, dtype=np.int64).copy())
        if self._slots.shape != (self.num_rows,):
            raise ValueError(
                f"alpha_slots shape {self._slots.shape} != ({self.num_rows},)"
            )
        self._config = config
        self._lock = threading.Lock()
        self._current = DecayedSnapshot(
            self._inner.snapshot(),
            clock,
            _freeze(last_times.copy()),
            _freeze(np.asarray(alpha, dtype=np.float64).copy()),
            self._slots,
            config,
        )

    @property
    def version(self) -> int:
        # Wait-free like snapshot(): one atomic reference read.
        return self._current.version  # reprolint: disable=lock-discipline

    def snapshot(self) -> DecayedSnapshot:
        """The latest published snapshot; holding it pins the version.

        Wait-free for the same reason as
        :meth:`VersionedEmbeddingStore.snapshot`: publication swaps one
        reference to an immutable snapshot.
        """
        return self._current  # reprolint: disable=lock-discipline

    def publish(
        self,
        rows: Sequence[int],
        components: np.ndarray,
        last_times: np.ndarray,
        alpha: np.ndarray,
        clock: float,
    ) -> DecayedSnapshot:
        """Publish new component rows plus the decay inputs at ``clock``.

        ``components`` are ``concat(h^L, h^S, c^r)`` rows for ``rows``;
        ``last_times`` their new last-interaction times; ``alpha`` the
        full (tiny) forgetting-parameter vector.  Only the touched
        component blocks are copied — the clock advance that moves every
        decayed embedding costs snapshot metadata, not a matrix rewrite.
        """
        rows = np.asarray(rows, dtype=np.int64)
        with self._lock:
            old = self._current
            if rows.size:
                new_last = old._last_times.copy()
                new_last[rows] = np.asarray(last_times, dtype=np.float64)
                _freeze(new_last)
            else:
                new_last = old._last_times
            snap = DecayedSnapshot(
                self._inner.publish(rows, components),
                clock,
                new_last,
                _freeze(np.asarray(alpha, dtype=np.float64).copy()),
                self._slots,
                self._config,
            )
            self._current = snap
            return snap
