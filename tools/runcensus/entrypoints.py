"""The entrypoints the run census executes: what CI runs, one subprocess each.

Each command runs from the repository root with the recorder's directory
first on ``PYTHONPATH``.  ``{tmp}`` in an argument is a scratch directory
that lives for the whole census.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HOOK = Path(__file__).resolve().parent / "hook"

#: the CLI's small, fast settings (the CI smoke jobs' ``--scale 0.1 --dim 16``)
_SMALL = ["--dataset", "uci", "--scale", "0.1", "--dim", "16"]
_REPLICATE = ["-m", "repro", "replicate"]
_BENCH_ENV = {"REPRO_BENCH_SCALE": "0.1", "REPRO_BENCH_QUERIES": "30"}

#: ``(label, python arguments, extra environment)``; ``examples/*.py`` are
#: added by :func:`commands`.
COMMANDS: Tuple[Tuple[str, Sequence[str], Dict[str, str]], ...] = (
    ("repro datasets", ["-m", "repro", "datasets", "--scale", "0.1"], {}),
    ("repro train", ["-m", "repro", "train", "--dataset", "uci", "--scale", "0.1",
                     "--dim", "16", "--max-queries", "30"], {}),
    ("repro compare", ["-m", "repro", "compare", "--dataset", "uci", "--scale", "0.1",
                       "--dim", "16", "--max-queries", "30"], {}),
    ("repro mine", ["-m", "repro", "mine", "--dataset", "taobao", "--scale", "0.1"], {}),
    ("repro export", ["-m", "repro", "export", "--dataset", "uci", "--scale", "0.1",
                      "--output", "{tmp}/edges.tsv"], {}),
    ("repro serve-replay", ["-m", "repro", "serve-replay", *_SMALL], {}),
    ("repro serve-replay --trace", ["-m", "repro", "serve-replay", *_SMALL, "--trace",
                                    "--output-dir", "{tmp}/trace"], {}),
    ("replicate primary", [*_REPLICATE, "primary", *_SMALL, "--state-dir", "{tmp}/primary",
                           "--events", "120"], {}),
    ("replicate follower", [*_REPLICATE, "follower", *_SMALL, "--state-dir", "{tmp}/primary",
                            "--probes", "8"], {}),
    ("replicate promote", [*_REPLICATE, "promote", *_SMALL, "--state-dir", "{tmp}/primary",
                           "--replica-dir", "{tmp}/replica", "--resume-from", "120",
                           "--verify-parity", "--probes", "8"], {}),
    ("bench_replication.py", ["benchmarks/bench_replication.py"], _BENCH_ENV),
    ("paper benches", ["-m", "pytest", "benchmarks", "--ignore=benchmarks/spine",
                       "--benchmark-disable", "-q", "-p", "no:cacheprovider"], _BENCH_ENV),
    ("spine --quick", ["benchmarks/spine/run.py", "--seed", "1", "--quick"], {}),
    ("spine --quick --trace", ["benchmarks/spine/run.py", "--seed", "1", "--quick",
                               "--trace"], {}),
)


def commands(root: Path) -> List[Tuple[str, List[str], Dict[str, str]]]:
    """Every example, then :data:`COMMANDS`."""
    examples = [
        (f"examples/{path.name}", [f"examples/{path.name}"], {})
        for path in sorted((root / "examples").glob("*.py"))
    ]
    return [*examples, *((label, list(args), env) for label, args, env in COMMANDS)]


def run(
    label: str,
    args: Sequence[str],
    extra_env: Dict[str, str],
    root: Path,
    package: Path,
    records: Path,
    tmp: Path,
) -> Tuple[int, float]:
    """Run one command under the recorder; its rows land in ``records``.

    Returns the exit code and the wall time; the command's output goes
    to this process's stderr so stdout stays the census report.
    """
    records.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(extra_env)
    inherited = [p for p in [env.get("PYTHONPATH")] if p]
    env["PYTHONPATH"] = os.pathsep.join([str(HOOK), str(package.parent), *inherited])
    env["RUNCENSUS_PACKAGE"] = str(package)
    env["RUNCENSUS_OUT"] = str(records)
    argv = [sys.executable, *(arg.replace("{tmp}", str(tmp)) for arg in args)]
    print(f"== {label}", file=sys.stderr, flush=True)
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=root, env=env, stdout=2, stderr=2)
    return done.returncode, time.perf_counter() - started
