"""reprolint CLI: exit codes, formats, rule listing, module entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.cli import main

REPO = Path(__file__).resolve().parents[2]

CLEAN = {"src/repro/core/clean.py": "x = 1\n"}
DIRTY = {
    "src/repro/core/alloc.py": """
    import numpy as np
    buf = np.zeros(3)
    """
}


class TestExitCodes:
    def test_clean_tree_exits_zero(self, make_project, capsys):
        root = make_project(CLEAN)
        code = main([str(root / "src" / "repro"), "--project-root", str(root)])
        assert code == 0
        assert "reprolint: clean" in capsys.readouterr().out

    def test_violations_exit_one_with_locations(self, make_project, capsys):
        root = make_project(DIRTY)
        code = main([str(root / "src" / "repro"), "--project-root", str(root)])
        assert code == 1
        out = capsys.readouterr().out
        assert "core/alloc.py:2" in out and "[explicit-dtype]" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["definitely/not/here"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, make_project, capsys):
        root = make_project(CLEAN)
        code = main(
            [str(root / "src" / "repro"), "--select", "bogus-rule"]
        )
        assert code == 2


class TestOutputs:
    def test_json_format(self, make_project, capsys):
        root = make_project(DIRTY)
        main(
            [
                str(root / "src" / "repro"),
                "--project-root",
                str(root),
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts_by_rule"]["explicit-dtype"] == 1
        # every rule that ran appears, zero-filled when clean
        assert set(payload["counts_by_rule"]) == set(payload["rules"])
        assert sum(payload["counts_by_rule"].values()) == 1

    def test_output_file_written(self, make_project, capsys):
        root = make_project(DIRTY)
        report = root / "benchmarks" / "results" / "lint_report.json"
        code = main(
            [
                str(root / "src" / "repro"),
                "--project-root",
                str(root),
                "--output",
                str(report),
            ]
        )
        assert code == 1
        assert json.loads(report.read_text())["total_violations"] == 1

    def test_concurrency_bundle_writes_nothing_unless_told(
        self, make_project, monkeypatch
    ):
        """``--concurrency`` used to drop ``benchmarks/results/lint_report.json``
        into whatever checkout it ran from."""
        root = make_project(CLEAN)
        results = root / "benchmarks" / "results"
        results.mkdir(parents=True)
        monkeypatch.chdir(root)
        assert main(["src/repro", "--concurrency"]) == 0
        assert list(results.iterdir()) == []

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "rng-discipline",
            "explicit-dtype",
            "autograd-backward",
            "inplace-mutation",
            "baseline-registry",
            "public-api",
        ):
            assert rule in out

    def test_ignore_silences_rule(self, make_project):
        root = make_project(DIRTY)
        code = main(
            [
                str(root / "src" / "repro"),
                "--project-root",
                str(root),
                "--ignore",
                "explicit-dtype",
            ]
        )
        assert code == 0


class TestModuleEntryPoint:
    def test_python_dash_m_repro_lint(self):
        """The acceptance-criterion invocation, end to end."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src/repro"],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "reprolint: clean" in proc.stdout
