"""reprolint command line: ``python -m repro.lint`` / ``repro-lint``.

Exit status: 0 on a clean tree, 1 when violations are reported, 2 on
usage errors (unknown rule, missing path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.core import get_rules, run_lint
from repro.analysis.reporters import (
    emit_error,
    emit_report,
    emit_rule_list,
    write_json,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "reprolint: AST lint + contract checks for numerical, RNG, and "
            "autograd correctness"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro, else .)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write a JSON report to FILE",
    )
    parser.add_argument(
        "--select", nargs="+", metavar="RULE", help="run only these rules"
    )
    parser.add_argument(
        "--concurrency",
        action="store_true",
        help="run only the concurrency rules (lock-discipline, "
        "lock-ordering, hold-and-call)",
    )
    parser.add_argument(
        "--ignore", nargs="+", metavar="RULE", help="skip these rules"
    )
    parser.add_argument(
        "--project-root",
        metavar="DIR",
        help="repository root (default: walk up to pyproject.toml/.git)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule set and exit"
    )
    return parser


def default_paths() -> List[str]:
    return ["src/repro"] if Path("src/repro").is_dir() else ["."]


def run(
    paths: List[str],
    fmt: str = "text",
    output: Optional[str] = None,
    select: Optional[List[str]] = None,
    ignore: Optional[List[str]] = None,
    project_root: Optional[str] = None,
    concurrency: bool = False,
) -> int:
    """Shared driver behind ``repro-lint`` and the ``repro lint`` subcommand."""
    if concurrency:
        from repro.analysis.concurrency import CONCURRENCY_RULES

        select = list(CONCURRENCY_RULES) + [
            r for r in (select or []) if r not in CONCURRENCY_RULES
        ]
    try:
        result = run_lint(
            paths or default_paths(),
            project_root=Path(project_root) if project_root else None,
            select=select,
            ignore=ignore,
        )
    except (FileNotFoundError, KeyError, ValueError) as exc:
        emit_error(str(exc))
        return 2
    if output:
        write_json(result, output)
    emit_report(result, fmt)
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        emit_rule_list(get_rules())
        return 0
    return run(
        args.paths,
        fmt=args.format,
        output=args.output,
        select=args.select,
        ignore=args.ignore,
        project_root=args.project_root,
        concurrency=args.concurrency,
    )


if __name__ == "__main__":
    sys.exit(main())
