"""Tier-1 gate: the real ``src/repro`` tree must be reprolint-clean."""

from pathlib import Path

from reprolint import run_lint

REPO = Path(__file__).resolve().parents[2]


def test_src_tree_is_lint_clean():
    result = run_lint([REPO / "src" / "repro"], project_root=REPO)
    assert result.ok, "reprolint violations:\n" + "\n".join(
        v.format() for v in result.violations
    )
