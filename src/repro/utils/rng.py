"""Deterministic random number generation helpers.

Every stochastic component in this library receives an explicit
:class:`numpy.random.Generator`.  These helpers create them from integer
seeds and derive stable sub-seeds for independent child streams, so
experiments are reproducible end to end while components never share a
stream accidentally.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def new_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (OS entropy), an ``int``, or an existing
    generator (returned unchanged, so callers can pass either form).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(seed: Optional[int], *salt: int) -> Optional[int]:
    """Mix ``salt`` integers into ``seed`` to derive a stable sub-seed.

    Returns ``None`` unchanged so "no seed requested" propagates.
    """
    if seed is None:
        return None
    mask = (1 << 64) - 1
    mixed = int(seed) & mask
    for s in salt:
        mixed = (mixed * 6364136223846793005 + int(s) + 1442695040888963407) & mask
    return mixed % (2**63 - 1)
