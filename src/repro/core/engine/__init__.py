"""Batched execution layer for the sample-update-propagate hot path.

- :mod:`repro.core.engine.kernels` — the vectorised numpy kernels every
  float on the training path flows through (both engines share them);
- :mod:`repro.core.engine.plan` — micro-batch compilation into the
  round-major :class:`~repro.core.engine.plan.BatchPlan` a round is a
  contiguous slice of;
- :mod:`repro.core.engine.schedule` — the conflict-free round
  partition the plan is laid out by;
- :mod:`repro.core.engine.engine` — :class:`BatchedEngine`, which every
  model runs, and :class:`ReferenceEngine`, its per-edge oracle.

No eager re-exports: the per-edge reference modules
(:mod:`repro.core.updater`, :mod:`repro.core.propagation`) import the
kernels, so pulling :mod:`~repro.core.engine.engine` in at package
import time would close an import cycle.  Import the submodules
directly.
"""
