"""Served ≡ offline, and recovered or promoted ≡ never stopped.

:func:`parity_matches` counts users served exactly the offline Eq. 15
ranking (the gate of ``repro serve-replay``); :func:`state_fingerprint`
hashes a service's learned state and :func:`compare_services` adds both
RNG streams and the served top-K: the bitwise-parity comparison behind
``replicate follower`` / ``promote --verify-parity``.  The fault
injector that drives crashes, recoveries and promotions against it is a
model-based test, ``tests/resilience/test_service_machine.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.resilience.checkpoint import _flatten
from repro.serve.service import RecommendationService


def parity_matches(
    service: RecommendationService,
    users: Iterable[int],
    k: int,
    golden: Optional[RecommendationService] = None,
) -> int:
    """How many of ``users`` are served exactly the offline ranking.

    A user matches when ``service``'s served top-``k`` equals its own
    brute-force ``offline_top_k`` — and, given a ``golden`` service,
    that service's served list as well.
    """
    matches = 0
    for user in users:
        served = service.recommend(int(user), k)
        if np.array_equal(served, service.offline_top_k(int(user), k)) and (
            golden is None
            or np.array_equal(served, golden.recommend(int(user), k))
        ):
            matches += 1
    return matches


def state_fingerprint(service: RecommendationService) -> str:
    """SHA-256 over the model's flattened ``state_dict`` arrays, read in
    place (``state_views``: a quiesced service, no copy).

    Bitwise: two services fingerprint equal iff every parameter and
    optimiser-moment array matches byte for byte.
    """
    flat: Dict[str, np.ndarray] = {}
    _flatten(service.model.state_views(), "", flat)
    digest = hashlib.sha256()
    for name in sorted(flat):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(flat[name]))
    return digest.hexdigest()


@dataclass(frozen=True)
class ServiceComparison:
    """What :func:`compare_services` found."""

    #: ``state_fingerprint`` of the service under test
    fingerprint: str
    #: it equals the reference's (vacuously true without a reference)
    fingerprint_match: bool
    #: model and trainer RNG streams equal the reference's (likewise)
    rng_match: bool
    users: int
    #: users served exactly the offline top-K (and the reference's list)
    matches: int

    @property
    def identical(self) -> bool:
        return (
            self.fingerprint_match
            and self.rng_match
            and self.matches == self.users
        )


def compare_services(
    service: RecommendationService,
    users: Iterable[int],
    k: int,
    reference: Optional[RecommendationService] = None,
) -> ServiceComparison:
    """The bitwise-parity comparison: learned state, both RNG streams
    and served top-``k`` of ``service`` against ``reference`` — or, with
    no reference, served top-``k`` against the offline ranking alone."""

    def rng_streams(s: RecommendationService) -> Tuple[object, object]:
        return s.model.rng.bit_generator.state, s.trainer.rng_state()

    users = [int(user) for user in users]
    fingerprint = state_fingerprint(service)
    return ServiceComparison(
        fingerprint=fingerprint,
        fingerprint_match=(
            reference is None or fingerprint == state_fingerprint(reference)
        ),
        rng_match=(
            reference is None or rng_streams(service) == rng_streams(reference)
        ),
        users=len(users),
        matches=parity_matches(service, users, k, golden=reference),
    )
