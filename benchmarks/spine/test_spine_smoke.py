"""Smoke test of the benchmark spine (outside tier-1: ``pytest benchmarks/spine``).

One ``--quick`` run of all four workloads untraced and one traced, then
checks on what they printed, on what they left on disk, and on the manifest.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import schema

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: directories a run may write to, relative to the repo
_SKIPPED = (".git", os.path.join("benchmarks", "spine", "out"), ".pytest_cache", ".hypothesis")


def _tree_state():
    """path -> (size, mtime) of every file a run must not touch."""
    state = {}
    for root, dirs, files in os.walk(REPO):
        relative = os.path.relpath(root, REPO)
        dirs[:] = [
            d for d in dirs
            if d != "__pycache__" and os.path.normpath(os.path.join(relative, d)) not in _SKIPPED
        ]
        for name in files:
            if name.endswith(".pyc"):
                continue
            path = os.path.join(root, name)
            stat = os.stat(path)
            state[os.path.relpath(path, REPO)] = (stat.st_size, stat.st_mtime_ns)
    return state


@pytest.fixture(scope="module")
def quick_runs():
    """(completed process, summary) of the untraced and of the traced pass,
    and the state of the tree before and after both."""
    before = _tree_state()
    passes = []
    for flags in ([], ["--trace"]):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--seed", "3", "--quick"] + flags,
            cwd=REPO, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        passes.append((done, json.loads(done.stdout.strip().splitlines()[-1])))
    return passes, before, _tree_state()


def test_manifest_matches_schema():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == schema.manifest()


def test_names_units_and_counts():
    workloads = schema.workload_names()
    end_to_end = [m.name for m in schema.END_TO_END]
    per_layer = [m.name for m in schema.PER_LAYER]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = workloads + end_to_end + per_layer
    assert len(set(names)) == len(names), "a name is used twice"
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m.unit) for m in schema.END_TO_END + schema.PER_LAYER)
    assert all(m.better in ("higher", "lower") for m in schema.END_TO_END + schema.PER_LAYER)
    assert all(0 < m.bound <= 0.25 for m in schema.END_TO_END)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in schema.WORKLOADS)
    setup = [m for m in schema.END_TO_END if m.name == "setup_s"]
    assert setup and setup[0].unit == "s" and setup[0].better == "lower"
    assert setup[0].bound == max(m.bound for m in schema.END_TO_END)


def test_quick_runs_are_correct_and_complete(quick_runs):
    passes, _before, _after = quick_runs
    for (done, summary), key, table in zip(
        passes, ("end_to_end", "per_layer"), (schema.END_TO_END, schema.PER_LAYER)
    ):
        assert done.returncode == 0, done.stdout[-3000:]
        assert summary["correct"] is True
        assert list(summary)[-1] == "claim" and summary["claim"] is None
        assert sorted(summary["workloads"]) == sorted(schema.workload_names())
        for name, result in summary["workloads"].items():
            assert result["failed"] == 0 and result["attempted"] > 0, name
            assert sorted(result[key]) == sorted(m.name for m in table), name
        # every metric is printed by name exactly once, with its unit
        for metric in table:
            rows = [
                line for line in done.stdout.splitlines()
                if line.split()[:2] == [metric.name, metric.unit]
            ]
            assert len(rows) == 1, metric.name
    untraced, traced = passes[0][1], passes[1][1]
    for name, result in untraced["workloads"].items():
        assert all(v > 0 for v in result["end_to_end"].values()), (name, result["end_to_end"])
    # end-to-end metrics are never taken from a traced pass
    assert all(result["end_to_end"] is None for result in traced["workloads"].values())


def test_quick_runs_write_only_under_out(quick_runs):
    _passes, before, after = quick_runs
    assert before == after, sorted(set(before.items()) ^ set(after.items()))[:10]
    for workload in schema.workload_names():
        with open(os.path.join(OUT_DIR, f"trace_{workload}.json"), encoding="utf-8") as fh:
            trace = json.load(fh)
        names = {span["name"] for span in trace["spans"]}
        assert {"serve.service.ingest", "serve.service.update", "core.engine.train_batch"} <= names
        assert all(span["end"] >= span["start"] for span in trace["spans"])
    assert not os.path.exists(os.path.join(OUT_DIR, "tmp")) or not os.listdir(
        os.path.join(OUT_DIR, "tmp")
    )


def test_wrappers_are_removed():
    sys.path.insert(0, os.path.join(REPO, "src"))
    try:
        from probes import Recorder
        from repro.core import inslearn
        from repro.serve.ingest import EventQueue
        from repro.serve.service import RecommendationService

        watched = [
            (RecommendationService, "ingest"), (EventQueue, "put"), (EventQueue, "pending"),
            (inslearn, "validation_mrr"),
        ]
        originals = [vars(owner)[attr] for owner, attr in watched]
        recorder = Recorder()
        recorder.install()
        assert recorder.installed > 20
        assert all(vars(o)[a] is not orig for (o, a), orig in zip(watched, originals))
        recorder.remove()
        assert recorder.installed == 0
        assert all(vars(o)[a] is orig for (o, a), orig in zip(watched, originals))
    finally:
        sys.path.remove(os.path.join(REPO, "src"))


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: no result line, exit code != 0."""
    spine = tmp_path / "benchmarks" / "spine"
    spine.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (spine / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    done = subprocess.run(
        [sys.executable, str(spine / "run.py"), "--workload", "steady", "--seed", "1",
         "--seconds", "2", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
