"""Tier-1 gate: the real ``src/repro`` tree must be reprolint-clean.

The JSON report is written under ``tmp_path``: tests never touch the
work tree, and no report is tracked (``repro lint --output FILE`` writes
one where it is told to).
"""

import json
from pathlib import Path

from repro.analysis import run_lint, write_json

REPO = Path(__file__).resolve().parents[2]


def test_src_tree_is_lint_clean(tmp_path):
    result = run_lint([REPO / "src" / "repro"], project_root=REPO)
    report = write_json(result, tmp_path / "lint_report.json")
    payload = json.loads(report.read_text())
    assert payload["total_violations"] == len(result.violations)
    assert result.ok, "reprolint violations:\n" + "\n".join(
        v.format() for v in result.violations
    )
