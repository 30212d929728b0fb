"""reprolint: AST-based static analysis for this repository's invariants.

A development tool, not part of the ``repro`` package: it reads the
source tree (and, through the runtime lock sanitizer, drives the
serving classes under test), and nothing the service runs imports it.

Usage, with ``src`` and ``tools`` on ``PYTHONPATH``::

    from reprolint import run_lint
    result = run_lint(["src/repro"])
    assert result.ok, [v.format() for v in result.violations]

or from a shell: ``python -m reprolint src/repro``.
See :mod:`reprolint.rules` for the rule set and how to add one.
"""

from reprolint.core import (
    LintResult,
    Rule,
    SourceFile,
    Violation,
    get_rules,
    register_rule,
    render_text,
    run_lint,
)
from reprolint.sanitizer import (
    Audit,
    LockMonitor,
    SanitizedLock,
    default_audits,
    threadcheck,
)

__all__ = [
    "Audit",
    "LintResult",
    "LockMonitor",
    "Rule",
    "SanitizedLock",
    "SourceFile",
    "Violation",
    "default_audits",
    "get_rules",
    "register_rule",
    "render_text",
    "run_lint",
    "threadcheck",
]
