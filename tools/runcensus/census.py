"""The def enumerator both censuses share, and the run census's report.

:func:`iter_defs` lists what a module defines.  The def census
(``tests/test_reachability.py``) asks whether anything *names* each def;
the run census asks whether any entrypoint *enters* each function or
method, from the ``(path, qualname)`` rows the hook
(``runcensus/hook/sitecustomize.py``) recorded.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Set, Tuple

#: ``(path relative to the package directory, co_qualname)``
Site = Tuple[str, str]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def iter_defs(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """``(qualified name, node)`` of every function, method, class and
    module-level assigned name (under module-level ``if`` / ``try`` too),
    dunders aside.  Functions nested in functions are part of their
    enclosing def and are not listed."""

    def visit(body: List[ast.stmt], prefix: str, in_class: bool):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield prefix + node.name, node
                if isinstance(node, ast.ClassDef):
                    yield from visit(node.body, f"{prefix}{node.name}.", True)
            elif in_class:
                continue
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            yield prefix + name.id, node
            elif isinstance(node, (ast.If, ast.Try)):
                for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                    yield from visit(block, prefix, False)
                for handler in getattr(node, "handlers", []):
                    yield from visit(handler.body, prefix, False)

    for qualname, node in visit(tree.body, "", False):
        if not _is_dunder(qualname.rsplit(".", 1)[-1]):
            yield qualname, node


def function_defs(package: Path) -> Dict[Site, int]:
    """Every function and method :func:`iter_defs` lists in ``package``,
    mapped to its line."""
    found: Dict[Site, int] = {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        rel = path.relative_to(package).as_posix()
        for qualname, node in iter_defs(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.setdefault((rel, qualname), node.lineno)
    return found


def read_sites(records: Path) -> Set[Site]:
    """The sites every ``*.tsv`` file the hook wrote under ``records`` names."""
    entered: Set[Site] = set()
    for path in sorted(records.rglob("*.tsv")):
        for line in path.read_text(encoding="utf-8").splitlines():
            rel, qualname = line.split("\t")
            entered.add((rel, qualname))
    return entered


def parse_key(key: str) -> Site:
    """``"serve/store.py::Snapshot.scores"`` -> ``("serve/store.py", "Snapshot.scores")``."""
    rel, _, qualname = key.partition("::")
    return rel, qualname


def unrun(defs: Iterable[Site], entered: Set[Site], kept: Iterable[str]) -> List[Site]:
    """The defs nothing entered, minus the ``kept`` keys, sorted."""
    spared = {parse_key(key) for key in kept}
    return sorted(site for site in defs if site not in entered and site not in spared)


def stale_keys(defs: Iterable[Site], kept: Iterable[str]) -> List[str]:
    """The ``kept`` keys that name no def: a rename left them behind."""
    known = set(defs)
    return sorted(key for key in kept if parse_key(key) not in known)


def report(
    defs: Dict[Site, int],
    entered: Set[Site],
    problems: List[str],
    kept: Mapping[str, Tuple[str, str]],
) -> Tuple[List[str], int]:
    """The report's lines and the exit code.  A kept def some run entered
    is noted, not failed: whether admission sheds, say, depends on the
    host's speed."""
    missing = unrun(defs, entered, kept)
    lines = [
        f"note: KEPT {key} ({kept[key][0]}) was entered by this run"
        for key in sorted(kept)
        if parse_key(key) in entered
    ]
    lines += [f"unrun: src/repro/{rel}:{defs[rel, name]} {name}" for rel, name in missing]
    lines += problems
    lines.append(
        f"runcensus: {len(defs)} functions, {len(entered.intersection(defs))} entered, "
        f"{len(kept)} kept, {len(missing)} unrun"
    )
    return lines, 1 if missing or problems else 0
