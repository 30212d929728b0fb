"""Render :class:`~repro.analysis.core.LintResult` as text or JSON.

The JSON form is stable and machine-readable (``--format json`` /
``--output FILE``) so tooling can track violation counts across PRs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterable, Union

from repro.analysis.core import LintResult

#: bumped whenever the JSON layout changes incompatibly
JSON_SCHEMA_VERSION = 1


def render_text(result: LintResult) -> str:
    """``path:line:col: [rule] message`` lines plus a one-line summary."""
    lines = [v.format() for v in result.violations]
    if result.ok:
        lines.append(
            f"reprolint: clean ({result.files_checked} files, "
            f"{len(result.rules)} rules)"
        )
    else:
        counts = ", ".join(
            f"{rule}={n}" for rule, n in result.counts_by_rule().items()
        )
        lines.append(
            f"reprolint: {len(result.violations)} violation"
            f"{'s' if len(result.violations) != 1 else ''} "
            f"in {result.files_checked} files ({counts})"
        )
    return "\n".join(lines)


def to_dict(result: LintResult) -> Dict:
    """A JSON-serialisable summary of one lint run.

    ``counts_by_rule`` carries an explicit zero for every rule that ran —
    a clean concurrency pass records ``lock-discipline: 0`` rather than
    omitting the rule, so report consumers can tell "ran clean" from
    "never ran".
    """
    counts = {rule: 0 for rule in result.rules}
    counts.update(result.counts_by_rule())
    return {
        "schema_version": JSON_SCHEMA_VERSION,
        "root": str(result.root),
        "files_checked": result.files_checked,
        "rules": list(result.rules),
        "ok": result.ok,
        "total_violations": len(result.violations),
        "counts_by_rule": dict(sorted(counts.items())),
        "violations": [
            {
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "rule": v.rule,
                "message": v.message,
            }
            for v in result.violations
        ],
    }


def render_json(result: LintResult) -> str:
    return json.dumps(to_dict(result), indent=2, sort_keys=True) + "\n"


def write_json(result: LintResult, path: Union[str, Path]) -> Path:
    """Write the JSON report to ``path``, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_json(result), encoding="utf-8")
    return path


# --------------------------------------------------------------------- output
# The emit helpers below are the lint driver's one sanctioned stdout /
# stderr surface (this module and cli.py are the only places repro code
# may print — enforced by the metrics-discipline rule).


def emit_report(result: LintResult, fmt: str = "text") -> None:
    """Print the rendered report to stdout."""
    print(render_json(result) if fmt == "json" else render_text(result))


def emit_error(message: str) -> None:
    """Print a driver error to stderr."""
    print(f"repro-lint: error: {message}", file=sys.stderr)


def emit_rule_list(rules: Iterable) -> None:
    """Print ``id: description`` for each rule."""
    for rule in rules:
        print(f"{rule.id}: {rule.description}")
