"""Batched execution layer for the sample-update-propagate hot path.

- :mod:`repro.core.engine.kernels` — the vectorised numpy kernels every
  float on the training path flows through;
- :mod:`repro.core.engine.plan` — micro-batch compilation into the
  round-major :class:`~repro.core.engine.plan.BatchPlan` a round is a
  contiguous slice of;
- :mod:`repro.core.engine.schedule` — the conflict-free round
  partition the plan is laid out by;
- :mod:`repro.core.engine.engine` — :class:`BatchedEngine`, which every
  model runs (its per-edge oracle is ``tests/oracle/engine.py``).

No eager re-exports: import the submodules directly.
"""
