"""The readable per-edge oracles the gates compare production against.

Code here is specification, not system: nothing in ``src/repro`` imports
it (``tests/test_reachability.py`` checks that), so an installed package
never carries it.

- :mod:`tests.oracle.engine` — :class:`ReferenceEngine`, the per-edge
  engine (``tests.core.build_model(..., "reference")`` installs it), and
  :func:`optimizer_step`, its per-edge optimiser apply;
- :mod:`tests.oracle.updater`, :mod:`tests.oracle.interactor`,
  :mod:`tests.oracle.propagation` — Eq. 5, Eq. 7 and Eq. 8-10 one edge
  at a time, as one-edge calls of :mod:`repro.core.engine.kernels`;
- :mod:`tests.oracle.sampling` — the object walker of Eq. 1-3 that
  :func:`repro.graph.sampling.sample_pass_walks` must match hop for hop;
- :mod:`tests.oracle.obs` — the round-trip oracles of the histogram
  (:func:`exact_percentile`) and the Prometheus exporter
  (:func:`parse_prometheus_text`).
"""
