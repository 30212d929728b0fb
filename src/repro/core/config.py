"""SUPA hyper-parameters and the ablation toggles of Tables VII/VIII."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


def g_decay(x):
    """The paper's decreasing function ``g(x) = 1 / log(e + x)`` (Eq. 5/8)."""
    return 1.0 / np.log(np.e + x)


def g_decay_derivative(x):
    """``g'(x) = -1 / ((e + x) * log(e + x)^2)`` — used by the analytic
    gradient of the node-type parameters ``alpha_o``."""
    log_term = np.log(np.e + x)
    return -1.0 / ((np.e + x) * log_term**2)


def tau_from_g(value: float) -> float:
    """Invert ``g``: the threshold ``tau`` with ``g(tau) = value``.

    The paper sets ``tau`` from ``g(tau) = 0.3`` (Section IV-C), i.e.
    ``tau = exp(1/0.3) - e ~= 25.31``.
    """
    if not 0.0 < value <= 1.0:
        raise ValueError(f"g ranges in (0, 1]; cannot invert at {value}")
    return float(np.exp(1.0 / value) - np.e)


#: the paper's propagation cut-off, ``g(TAU) = 0.3`` (Section IV-C)
TAU = tau_from_g(0.3)


@dataclass
class SUPAConfig:
    """Hyper-parameters of the SUPA model.

    Model parameters (paper defaults noted; CPU-scale defaults are
    smaller where the paper used a GPU):

    - ``dim``: embedding size ``d`` (paper: 128).
    - ``num_walks``: paths ``k`` sampled per interactive node.
    - ``walk_length``: walk length ``l``.
    - ``num_negatives``: negative samples ``N_neg`` per side (paper: 5).
    - ``tau``: propagation termination threshold (paper: :data:`TAU`,
      ``g(tau) = 0.3``; ``inf`` never cuts propagation off).

    Adam's settings (paper: lr 3e-3, weight decay 1e-4) are
    :class:`~repro.core.memory.MemoryOptimizer`'s defaults.

    Ablation toggles (all ``True``/default in full SUPA):

    - ``use_inter`` / ``use_prop`` / ``use_neg``: the three losses
      (Table VII variants).
    - ``typed_alpha``: per-node-type forgetting parameters; ``False`` is
      SUPA_sn (one shared alpha).
    - ``typed_context``: relation-specific context embeddings; ``False``
      is SUPA_se (one shared context embedding).
    - ``use_short_term``: short-term memory; ``False`` is SUPA_nf.
    - ``use_propagation_decay``: attenuation ``g`` and filter ``D`` while
      propagating; ``False`` is SUPA_nd.
    - ``use_forgetting``: time-based short-term forgetting (Eq. 5) in
      the updater and in scored rows; ``False`` freezes ``gamma = 1``
      (part of SUPA_nt), so scoring reads Eq. 14's plain ``h^L + h^S``.
    """

    dim: int = 32
    num_walks: int = 4
    walk_length: int = 3
    num_negatives: int = 5
    tau: float = TAU
    use_inter: bool = True
    use_prop: bool = True
    use_neg: bool = True
    typed_alpha: bool = True
    typed_context: bool = True
    use_short_term: bool = True
    use_propagation_decay: bool = True
    use_forgetting: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.num_walks < 0 or self.walk_length < 1:
            raise ValueError(
                f"bad walk settings: k={self.num_walks}, l={self.walk_length}"
            )
        if self.num_negatives < 0:
            raise ValueError(f"num_negatives must be >= 0, got {self.num_negatives}")
        # refuses NaN too: no ``delta_e <= tau`` would hold, silently
        if not self.tau >= 0:
            raise ValueError(f"tau must be >= 0 (inf = no cut-off), got {self.tau}")
        if not (self.use_inter or self.use_prop or self.use_neg):
            raise ValueError("at least one loss must be enabled")

    def with_overrides(self, **kwargs) -> "SUPAConfig":
        """A copy with the given fields replaced (ablation helper)."""
        return replace(self, **kwargs)
