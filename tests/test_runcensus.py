"""Self-tests of the run census (``tools/runcensus``): what it reports over
a planted package, that its ``KEPT`` table names live defs, and that its
start-up hook records what a process runs.

The census itself (``python -m runcensus``) runs every entrypoint, so it
is a CI job of its own, not a tier-1 test.
"""

import sys
from pathlib import Path

import pytest

from runcensus import (
    KEPT,
    KINDS,
    function_defs,
    kept_problems,
    read_sites,
    report,
    stale_keys,
    unrun,
)
from runcensus.entrypoints import run

SRC = Path(__file__).resolve().parents[1] / "src"

PLANTED = '''\
CONSTANT = 1


def entered():
    return 1


def unrun_function():
    return 2


def kept_function():
    return 3


class Widget:
    def __init__(self):
        self.size = 1

    def __repr__(self):
        return "Widget()"

    def entered_method(self):
        return 4

    def unrun_method(self):
        return 5

    class Part:
        def unrun_nested_method(self):
            return 6
'''

#: what a run of the planted package entered, as the hook writes it
ENTERED = {("mod.py", "<module>"), ("mod.py", "entered"), ("mod.py", "Widget.entered_method")}
PLANTED_KEPT = {"mod.py::kept_function": ("error-path", "runs only when something fails")}


@pytest.fixture
def planted(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(PLANTED)
    return package


@pytest.fixture
def planted_report(planted):
    return unrun(function_defs(planted), ENTERED, PLANTED_KEPT)


def test_an_unrun_function_is_reported(planted_report):
    assert ("mod.py", "unrun_function") in planted_report


@pytest.mark.parametrize("qualname", ["Widget.unrun_method", "Widget.Part.unrun_nested_method"])
def test_an_unrun_method_is_reported(planted_report, qualname):
    assert ("mod.py", qualname) in planted_report


def test_a_kept_row_is_spared(planted_report):
    assert ("mod.py", "kept_function") not in planted_report


def test_dunders_and_names_are_ignored(planted_report):
    """``__init__`` and ``__repr__`` never ran, and a constant is no
    function: the report is exactly the three unrun defs."""
    assert planted_report == [
        ("mod.py", "Widget.Part.unrun_nested_method"),
        ("mod.py", "Widget.unrun_method"),
        ("mod.py", "unrun_function"),
    ]


def test_a_kept_row_naming_no_def_is_stale(planted):
    defs = function_defs(planted)
    stale = {**PLANTED_KEPT, "mod.py::renamed_away": ("error-path", "a reason")}
    assert stale_keys(defs, stale) == ["mod.py::renamed_away"]
    assert kept_problems(defs, stale) == ["KEPT row names no def: mod.py::renamed_away"]


def test_a_kept_row_needs_a_known_kind_and_a_reason(planted):
    bad = {"mod.py::kept_function": ("rarely-used", "")}
    (problem,) = kept_problems(function_defs(planted), bad)
    assert problem.startswith("KEPT row needs a kind from")


def test_every_kept_row_names_a_def_with_a_kind_and_a_reason():
    """A rename in ``src/repro`` cannot leave a stale row behind."""
    assert kept_problems(function_defs(SRC / "repro")) == []
    assert {kind for kind, _ in KEPT.values()} <= set(KINDS)


def test_a_kept_def_a_run_entered_is_noted_not_failed(planted):
    defs = function_defs(planted)
    entered = ENTERED | {("mod.py", "kept_function")}
    everything = entered | {(rel, name) for rel, name in defs if "unrun" in name}
    lines, code = report(defs, everything, [], PLANTED_KEPT)
    assert code == 0
    assert lines[0] == "note: KEPT mod.py::kept_function (error-path) was entered by this run"
    lines, code = report(defs, ENTERED, [], PLANTED_KEPT)
    assert code == 1
    assert [line.split()[-1] for line in lines if line.startswith("unrun:")] == [
        "Widget.Part.unrun_nested_method",
        "Widget.unrun_method",
        "unrun_function",
    ]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="the hook reads co_qualname")
def test_the_hook_records_what_a_subprocess_called(planted, tmp_path):
    """A planted script run under the hook: the functions it called (one
    on a thread) are recorded, the ones it skipped are not."""
    script = tmp_path / "script.py"
    script.write_text(
        "import threading\n"
        "from pkg.mod import Widget, entered\n"
        "entered()\n"
        "worker = threading.Thread(target=Widget().entered_method)\n"
        "worker.start()\n"
        "worker.join()\n"
    )
    records, scratch = tmp_path / "records", tmp_path / "scratch"
    code, _ = run("planted", [str(script)], {}, tmp_path, planted, records, scratch)
    assert code == 0
    recorded = read_sites(records)
    assert ENTERED | {("__init__.py", "<module>"), ("mod.py", "Widget.__init__")} <= recorded
    assert not {name for rel, name in recorded if "unrun" in name or "kept" in name}
