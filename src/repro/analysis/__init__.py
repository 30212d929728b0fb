"""reprolint: AST-based static analysis for this reproduction's invariants.

Usage::

    from repro.analysis import run_lint
    result = run_lint(["src/repro"])
    assert result.ok, [v.format() for v in result.violations]

or from a shell: ``repro lint src/repro``.
See :mod:`repro.analysis.rules` for the rule set and how to add one.
"""

from repro.analysis.core import (
    LintResult,
    Rule,
    SourceFile,
    Violation,
    get_rules,
    register_rule,
    render_text,
    run_lint,
)
from repro.analysis.sanitizer import (
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
]
