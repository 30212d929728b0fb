"""runcensus: which ``src/repro`` functions no entrypoint executes.

A development tool beside :mod:`reprolint`, not part of the package.  It
runs every entrypoint CI runs (:mod:`runcensus.entrypoints`) in a
subprocess whose start-up installs a profile hook
(``runcensus/hook/sitecustomize.py``), collects the functions each
process entered, and reports every function or method in ``src/repro``
that none entered and no :data:`~runcensus.kept.KEPT` row spares.

Usage, from the repository root::

    PYTHONPATH=src:tools python -m runcensus
"""

from runcensus.census import function_defs, iter_defs, read_sites, report, stale_keys, unrun
from runcensus.kept import KEPT, KINDS, kept_problems

__all__ = [
    "KEPT",
    "KINDS",
    "function_defs",
    "iter_defs",
    "kept_problems",
    "read_sites",
    "report",
    "stale_keys",
    "unrun",
]
