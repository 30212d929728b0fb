"""The text report ``python -m reprolint`` prints."""

from reprolint import render_text

FILES_CLEAN = {"src/repro/core/clean.py": "x = 1\n"}
FILES_DIRTY = {
    "src/repro/core/alloc.py": """
    import numpy as np
    a = np.zeros(3)
    b = np.random.rand(3)
    """
}


class TestText:
    def test_clean_summary(self, lint):
        out = render_text(lint(FILES_CLEAN))
        assert "reprolint: clean" in out

    def test_violation_lines_and_counts(self, lint):
        out = render_text(lint(FILES_DIRTY))
        assert "core/alloc.py:2" in out
        assert "[explicit-dtype]" in out and "[rng-discipline]" in out
        assert "2 violations" in out
        assert "explicit-dtype=1" in out
