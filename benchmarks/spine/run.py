"""The benchmark spine: one command for every performance number.

    python benchmarks/spine/run.py --seed 1                  # four workloads, end-to-end table
    python benchmarks/spine/run.py --seed 1 --trace          # traced pass: per-layer table, span files
    python benchmarks/spine/run.py --seed 1 --workload steady
    python benchmarks/spine/run.py --seed 1 --agree          # two sets, compared to the bounds
    python benchmarks/spine/run.py --seed 1 --quick          # 2 s per workload (smoke)

Every workload runs in its own fresh interpreter (``worker.py``) with
``OMP_NUM_THREADS=1``, once per invocation: untraced, which gives the
end-to-end metrics, or with ``--trace`` under the benchmark's span
wrappers, which gives the per-layer metrics and writes
``out/trace_<workload>.json``.  End-to-end metrics are never taken from
a traced pass.  Every metric is printed by name with its unit, outputs
are checked for correctness, and the exit code is non-zero on any
failure.

The last line of stdout is one JSON object.  With ``--workload`` it is
``{"correct", "attempted", "failed", "metrics"}`` -- every end-to-end
metric of BENCHMARK.json with ``--trace 0``, every per-layer metric with
``--trace 1``.  Without ``--workload`` it is a summary of all four that
ends with ``"claim": null``: this harness measures, it claims nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

import schema

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
#: at the manifest's --seconds; the driver allows a run 180 s
PASS_TIMEOUT_SECONDS = 150
QUICK_SECONDS = 2
AGREE_RUNS = 3


class WorkerFailed(RuntimeError):
    """A worker exited non-zero, timed out or printed no result."""


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, object]:
    """One pass in a fresh interpreter; returns the worker's result."""
    print(f"== {workload} (seed {seed}, {seconds:g}s" + (", traced)" if traced else ")"),
          file=sys.stderr)
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--traced", str(int(traced)), "--out", OUT_DIR,
    ]
    timeout = PASS_TIMEOUT_SECONDS * max(1.0, seconds / schema.RUN_SECONDS)
    try:
        done = subprocess.run(
            command, env=env, cwd=REPO, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload}: worker exceeded {timeout:.0f}s") from exc
    if done.returncode != 0:
        raise WorkerFailed(f"{workload}: worker exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise WorkerFailed(f"{workload}: worker printed no result") from exc


def failures_of(result: Dict[str, object]) -> List[str]:
    """Why ``result`` is not a correct run (empty when it is)."""
    problems = list(result["notes"])
    if result["failed"] and not problems:
        problems.append(f"{result['failed']} operations failed")
    if result["traced"]:
        if result["wrappers_left"]:
            problems.append(f"{result['wrappers_left']} wrappers still installed after the run")
    else:
        for name, value in result["end_to_end"].items():
            if not value > 0:
                problems.append(f"{name} = {value!r} is not a positive measurement")
    return problems


# -------------------------------------------------------------------- printing


def print_end_to_end(results: Sequence[Dict[str, object]]) -> None:
    names = [r["workload"] for r in results]
    print(f"\n{'end-to-end metric':<20}{'unit':>7}" + "".join(f"{n:>16}" for n in names))
    for metric in schema.END_TO_END:
        row = "".join(f"{r['end_to_end'][metric.name]:>16.4f}" for r in results)
        print(f"{metric.name:<20}{metric.unit:>7}{row}")
    shares = "".join(f"{r['failed'] / max(1, r['attempted']):>16.6f}" for r in results)
    print(f"{'failed_share':<20}{'share':>7}{shares}")
    print("times are at nominal host speed (hostspeed.py); the raw seconds of each phase:")
    for r in results:
        walls = " ".join(f"{k}={v:.2f}s" for k, v in r["phase_wall_s"].items())
        print(f"\n[{r['workload']}] phases: {walls}; attempted={r['attempted']} failed={r['failed']}")
        for name, note in r["samples"].items():
            print(f"    {name:<18} {note}")


def print_per_layer(results: Sequence[Dict[str, object]]) -> None:
    names = [r["workload"] for r in results]
    print(f"\n{'per-layer metric':<28}{'unit':>7}" + "".join(f"{n:>16}" for n in names))
    layer = None
    for metric in schema.PER_LAYER:
        if metric.layer != layer:
            layer = metric.layer
            print(f"-- {layer}")
        row = "".join(f"{r['per_layer'][metric.name]:>16.4f}" for r in results)
        print(f"{metric.name:<28}{metric.unit:>7}{row}")
    print("\nshare of the live phase's wall, traced pass:")
    for r in results:
        share = r["live_share"]
        engine = share["core.engine.train_batch"]
        print(
            f"  [{r['workload']}] live={r['phase_wall_s']['live']:.2f}s"
            f" engine.train_batch={engine:.1%}"
            f" (compile={share['core.engine.compile']:.1%}"
            f" execute={engine - share['core.engine.compile']:.1%})"
            f" state_copy={share['core.inslearn.state_copy']:.1%}"
            f" index.top_k+store.snapshot="
            f"{share['serve.index.top_k'] + share['serve.store.snapshot']:.1%}"
            f" index.invalidate={share['serve.index.invalidate']:.1%}"
            f" wal.append={share['resilience.wal.append']:.1%}"
            f" checkpoint.save={share['resilience.checkpoint.save']:.1%}"
            f"; children cover {r['update_child_coverage']:.1%} of serve.service.update"
        )
        print(
            "      self time (all phases): "
            + " ".join(f"{name}={seconds:.2f}s" for name, seconds in r["self_time_s"].items())
        )
    print("\nhow the layers interact:")
    for note in schema.INTERACTION_NOTES:
        print(f"  - {note}")


# ----------------------------------------------------------------------- modes


def contract_line(result: Dict[str, object]) -> str:
    """The driver's result line for one workload."""
    if result["traced"]:
        table, values = schema.PER_LAYER, result["per_layer"]
    else:
        table, values = schema.END_TO_END, result["end_to_end"]
    return json.dumps(
        {
            "correct": not failures_of(result),
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in table},
        }
    )


def report(results: Sequence[Dict[str, object]]) -> List[str]:
    print("host: " + ", ".join(f"{k}={v}" for k, v in results[0]["host"].items()))
    if results[0]["traced"]:
        print_per_layer(results)
    else:
        print_end_to_end(results)
    problems = [f"[{r['workload']}] {p}" for r in results for p in failures_of(r)]
    for problem in problems:
        print(f"FAILED {problem}")
    return problems


def agree(names: Sequence[str], seed: int, seconds: float) -> int:
    """Two full sets on the same code: do they agree within the bounds?

    A set is ``AGREE_RUNS`` runs of every workload, compared by their
    medians, as the driver compares medians of ten.  The two sets take
    turns, run by run, so that neither gets the host of one quarter of
    an hour to itself.
    """
    sets: List[List[List[Dict[str, object]]]] = [[], []]
    for _ in range(AGREE_RUNS):
        for runs in sets:
            runs.append([run_workload(name, seed, seconds, traced=False) for name in names])
    problems = [
        f"[{r['workload']}] {p}" for runs in sets for results in runs for r in results
        for p in failures_of(r)
    ]

    def median(runs, index: int, metric: str) -> float:
        return statistics.median(r[index]["end_to_end"][metric] for r in runs)

    print(f"{'metric':<20}{'workload':<15}{'first':>14}{'second':>14}{'diff':>9}{'bound':>8}")
    for index, workload in enumerate(names):
        for metric in schema.END_TO_END:
            x, y = median(sets[0], index, metric.name), median(sets[1], index, metric.name)
            diff = abs(y - x) / x if x else float("inf")
            verdict = "" if diff <= metric.bound else "  EXCEEDS"
            print(
                f"{metric.name:<20}{workload:<15}{x:>14.4f}{y:>14.4f}"
                f"{diff:>9.2%}{metric.bound:>8.0%}{verdict}"
            )
            if verdict:
                problems.append(f"[{workload}] {metric.name} differs by {diff:.2%}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(json.dumps({"agree": not problems, "problems": problems, "claim": None}))
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, required=True, help="every input is generated from it")
    parser.add_argument("--workload", choices=schema.workload_names(), help="default: all four")
    parser.add_argument("--seconds", type=float, default=schema.RUN_SECONDS,
                        help="length of each workload's live phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="run the traced pass (per-layer metrics, span files) instead")
    parser.add_argument("--agree", action="store_true",
                        help=f"run two sets of {AGREE_RUNS} runs and compare their medians")
    parser.add_argument("--quick", action="store_true", help=f"{QUICK_SECONDS} s per workload")
    args = parser.parse_args(argv)
    seconds = QUICK_SECONDS if args.quick else args.seconds
    names = [args.workload] if args.workload else schema.workload_names()

    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        print(f"no program to measure: {os.path.join(REPO, 'src', 'repro')} is missing", file=sys.stderr)
        return 2
    try:
        if args.agree:
            return agree(names, args.seed, seconds)
        results = [run_workload(name, args.seed, seconds, bool(args.trace)) for name in names]
    except WorkerFailed as exc:
        print(f"FAILED {exc}", file=sys.stderr)
        return 1
    problems = report(results)
    if args.workload:
        print(contract_line(results[0]))
    else:
        print(json.dumps({
            "seed": args.seed,
            "seconds": seconds,
            "traced": bool(args.trace),
            "workloads": {
                r["workload"]: {
                    "end_to_end": None if r["traced"] else r["end_to_end"],
                    "per_layer": r["per_layer"],
                    "attempted": r["attempted"],
                    "failed": r["failed"],
                }
                for r in results
            },
            "correct": not problems,
            "claim": None,
        }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
