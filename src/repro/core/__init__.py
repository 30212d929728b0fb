"""SUPA: the sample-update-propagate model and the InsLearn workflow.

This package is the paper's primary contribution (Section III): the
Influenced Graph Sampling Module (``repro.graph.sampling``), the
Relation-specific Update Module and the Time-aware Propagation Module
(Eq. 5-12 as the row kernels of :mod:`repro.core.engine.kernels`, run by
:mod:`repro.core.engine`; Eq. 14 in :mod:`repro.core.updater`), the
combined model with hand-derived analytic gradients
(:mod:`repro.core.model`), the single-pass InsLearn training workflow
(:mod:`repro.core.inslearn`, Algorithm 1), and every ablation variant of
Tables VII/VIII (:mod:`repro.core.variants`).  The readable per-edge
form of each equation is the test oracle in ``tests/oracle/``.
"""

from repro.core.config import SUPAConfig, tau_from_g
from repro.core.inslearn import InsLearnConfig, InsLearnTrainer, train_conventional
from repro.core.model import SUPA
from repro.core.variants import VARIANT_BUILDERS, make_variant

__all__ = [
    "SUPA",
    "SUPAConfig",
    "tau_from_g",
    "InsLearnTrainer",
    "InsLearnConfig",
    "train_conventional",
    "VARIANT_BUILDERS",
    "make_variant",
]
