"""SUPA hyper-parameters and the ablation toggles of Tables VII/VIII."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

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
    ``tau = exp(1/0.3) - e ~= 25.35``.
    """
    if not 0.0 < value <= 1.0:
        raise ValueError(f"g ranges in (0, 1]; cannot invert at {value}")
    return float(np.exp(1.0 / value) - np.e)


@dataclass
class SUPAConfig:
    """Hyper-parameters of the SUPA model.

    Model parameters (paper defaults noted; CPU-scale defaults are
    smaller where the paper used a GPU):

    - ``dim``: embedding size ``d`` (paper: 128).
    - ``num_walks``: paths ``k`` sampled per interactive node.
    - ``walk_length``: walk length ``l``.
    - ``num_negatives``: negative samples ``N_neg`` per side (paper: 5).
    - ``tau``: propagation termination threshold; ``None`` derives it
      from ``g(tau) = tau_g_value`` per the paper.
    - ``learning_rate`` / ``weight_decay``: Adam settings (paper: 3e-3 /
      1e-4).

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
    - ``use_forgetting``: time-based short-term forgetting in the
      updater; ``False`` freezes ``gamma = 1`` (part of SUPA_nt).
    """

    dim: int = 32
    num_walks: int = 4
    walk_length: int = 3
    num_negatives: int = 5
    tau: Optional[float] = None
    tau_g_value: float = 0.3
    learning_rate: float = 3e-3
    weight_decay: float = 1e-4
    init_std: float = 0.1
    noise_power: float = 0.75
    negative_table_refresh: int = 1024
    use_inter: bool = True
    use_prop: bool = True
    use_neg: bool = True
    typed_alpha: bool = True
    typed_context: bool = True
    use_short_term: bool = True
    use_propagation_decay: bool = True
    use_forgetting: bool = True
    #: Whether scoring applies Eq. 5's short-term forgetting with the
    #: time since the node's last interaction.  Eq. 14 writes the final
    #: embedding as ``1/2 (h^L + h^S + c^r)`` — implicitly gamma = 1,
    #: valid right after an update (Delta ~= 0); for nodes scored long
    #: after their last activity the decayed form is the natural reading
    #: of Definition 2's time-dependent representations and measures
    #: better on the drifting datasets, so it is the default.
    decay_at_inference: bool = True
    #: Record ``repro.obs`` spans while training.  Off by default: the
    #: no-op tracer keeps instrumented hot paths free (DESIGN §10's
    #: overhead budget); flip on for per-phase wall-time attribution.
    #: Tracing never touches model RNG, so results are bitwise identical
    #: either way.
    trace: bool = False
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
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (self.use_inter or self.use_prop or self.use_neg):
            raise ValueError("at least one loss must be enabled")
        if self.tau is None:
            self.tau = tau_from_g(self.tau_g_value)

    def with_overrides(self, **kwargs) -> "SUPAConfig":
        """A copy with the given fields replaced (ablation helper)."""
        return replace(self, **kwargs)
