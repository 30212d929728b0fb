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


def dispatch_threads():
    """The live ``repro-dispatch`` threads (what a ``DispatchWorker``
    names its worker): a started worker shows one, a closed one none."""
    return [t for t in threading.enumerate() if t.name == "repro-dispatch"]
