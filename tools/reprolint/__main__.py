"""``python -m reprolint [paths] [--select RULE...] [--ignore RULE...]
[--project-root DIR]``: lint the source tree.

Exit codes: 0 on a clean tree, 1 on violations, 2 on a usage error (an
unknown rule or a missing path).  Run it with ``src`` and ``tools`` on
``PYTHONPATH`` from the repository root.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from reprolint.core import render_text, run_lint


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint", description="run the reprolint static-analysis suite"
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"], help="files/dirs (default: src/repro)"
    )
    parser.add_argument(
        "--select", nargs="+", metavar="RULE", help="run only these rules"
    )
    parser.add_argument("--ignore", nargs="+", metavar="RULE", help="skip these rules")
    parser.add_argument(
        "--project-root",
        help="repository root (default: walk up to pyproject.toml/.git)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Exit 0 on a clean tree, 1 on violations, 2 on a usage error."""
    args = build_parser().parse_args(argv)
    try:
        result = run_lint(
            args.paths,
            project_root=args.project_root,
            select=args.select,
            ignore=args.ignore,
        )
    except (FileNotFoundError, KeyError) as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2
    print(render_text(result))
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
