"""DESIGN.md stays under its line cap.

The design document is meant to get shorter as the code does (ROADMAP
aim 2): a change that needs more room has to make it by cutting
elsewhere, not by raising the cap.
"""

from pathlib import Path

DESIGN = Path(__file__).resolve().parents[1] / "DESIGN.md"
#: the most lines DESIGN.md may have
MAX_LINES = 800


def test_design_doc_within_its_line_cap():
    lines = len(DESIGN.read_text(encoding="utf-8").splitlines())
    assert lines <= MAX_LINES, f"DESIGN.md has {lines} lines, cap {MAX_LINES}"
