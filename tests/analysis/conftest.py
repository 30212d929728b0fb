"""Fixture-project builder shared by the reprolint tests."""

import textwrap
from pathlib import Path

import pytest


@pytest.fixture
def make_project(tmp_path):
    """Materialise a throwaway repo: ``{relpath: source}`` -> project root.

    A ``pyproject.toml`` marks the root so project-root discovery and
    rule scoping behave exactly as in the real tree.
    """

    def _make(files):
        (tmp_path / "pyproject.toml").write_text("[project]\nname = 'fixture'\n")
        for rel, text in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text).lstrip("\n"))
        return tmp_path

    return _make


@pytest.fixture
def lint(make_project):
    """Build a fixture project and lint its ``src/repro`` tree."""
    from reprolint import run_lint

    def _lint(files, **kwargs):
        root = make_project(files)
        return run_lint([root / "src" / "repro"], project_root=root, **kwargs)

    return _lint
