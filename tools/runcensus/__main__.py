"""``python -m runcensus``: run every entrypoint, report the functions none entered.

Run it from anywhere with ``src`` and ``tools`` on ``PYTHONPATH``
(Python 3.11 or later: the recorder reads ``co_qualname``).  Each
entrypoint's output goes to stderr; stdout is the report.  Exit codes:
0 when every function and method in ``src/repro`` was entered or is
``KEPT``; 1 when one was not, an entrypoint failed, or a ``KEPT`` row is
stale or malformed; 2 on an interpreter too old to record.

The paper benches and ``bench_replication.py`` rewrite
``benchmarks/results/``, as they do under CI's ``paper-bench-smoke``;
restore it afterwards with ``git checkout -- benchmarks/results && git
clean -fq -- benchmarks/results``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from runcensus.census import function_defs, read_sites, report
from runcensus.entrypoints import commands, run
from runcensus.kept import KEPT, kept_problems

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    if sys.version_info < (3, 11):
        print("runcensus: needs Python 3.11+ (co_qualname)", file=sys.stderr)
        return 2
    package = ROOT / "src" / "repro"
    defs = function_defs(package)
    problems = kept_problems(defs)
    with tempfile.TemporaryDirectory(prefix="runcensus-") as tmp:
        records, scratch = Path(tmp) / "records", Path(tmp) / "scratch"
        scratch.mkdir()
        for label, args, env in commands(ROOT):
            code, seconds = run(label, args, env, ROOT, package, records, scratch)
            print(f"ran {label:<32} exit {code}  {seconds:6.1f} s", flush=True)
            if code:
                problems.append(f"entrypoint failed: {label} (exit {code})")
        entered = read_sites(records)
    lines, code = report(defs, entered, problems, KEPT)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
