import threading

import numpy as np

from repro.core.config import SUPAConfig
from repro.serve.store import DecayedEmbeddingStore


def make_decayed_store(num_rows, dim, block_size, seed=0):
    """A ``DecayedEmbeddingStore`` over random components and decay
    inputs: its snapshot's rows are the lazily materialised Eq. 14
    embeddings the service serves by default."""
    rng = np.random.default_rng(seed)
    return DecayedEmbeddingStore(
        rng.normal(size=(num_rows, 3 * dim)),
        last_times=rng.uniform(0.0, 5.0, size=num_rows),
        alpha=rng.normal(size=3),
        alpha_slots=rng.integers(0, 3, size=num_rows),
        config=SUPAConfig(),
        clock=6.0,
        block_size=block_size,
    )


class ServedMatrix:
    """A ``DecayedEmbeddingStore`` that serves ``matrix`` bitwise.

    Short-term memory is off, so a served row is ``0.5 * (h^L + c^r)``;
    with ``h^L = 2 * matrix`` and ``c^r = 0`` that is ``matrix`` exactly.
    ``publish(rows, values)`` writes served rows the same way.
    """

    CONFIG = SUPAConfig(use_short_term=False)

    def __init__(self, matrix, block_size):
        matrix = np.asarray(matrix, dtype=np.float64)
        num_rows, self.dim = matrix.shape
        self.store = DecayedEmbeddingStore(
            self._components(matrix),
            last_times=np.zeros(num_rows),
            alpha=np.zeros(1),
            alpha_slots=np.zeros(num_rows, dtype=np.int64),
            config=self.CONFIG,
            block_size=block_size,
        )

    def _components(self, values):
        values = np.asarray(values, dtype=np.float64).reshape(-1, self.dim)
        return np.concatenate([2.0 * values, np.zeros((len(values), 2 * self.dim))], axis=1)

    def snapshot(self):
        return self.store.snapshot()

    def publish(self, rows, values):
        return self.store.publish(
            rows, self._components(values), np.zeros(len(rows)), np.zeros(1), 0.0
        )


def full_matrix(snapshot):
    """Every served row of ``snapshot``, gathered through ``rows``."""
    return snapshot.rows(np.arange(snapshot.num_rows, dtype=np.int64))


def component_matrix(snapshot):
    """A component ``Snapshot``'s whole matrix, read block by block."""
    blocks, covered = [], 0
    while covered < snapshot.num_rows:
        blocks.append(snapshot.block(len(blocks)))
        covered = snapshot.block_rows(len(blocks) - 1)[1]
    return np.concatenate(blocks) if blocks else np.empty((0, snapshot.dim))


def dispatch_threads():
    """The live ``repro-dispatch`` threads (what a ``DispatchWorker``
    names its worker): a started worker shows one, a closed one none."""
    return [t for t in threading.enumerate() if t.name == "repro-dispatch"]
