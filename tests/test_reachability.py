"""Reachability census: every ``src/repro`` module is reached by an entrypoint.

Walks the static import graph (``ast``, lazy imports inside functions
included) from the things a user or CI job actually runs — the
``repro`` command line, ``examples/``,
``benchmarks/*.py`` and ``benchmarks/spine/`` — and fails on any module
nothing reaches.  A package ``__init__`` does not count as a reacher:
``from repro.obs import Tracer`` is an edge to the module that defines
``Tracer``, not to everything ``obs/__init__`` re-exports, so a module
that is only re-exported (and imported by its own tests, which are not
entrypoints) is reported.  There are no exceptions: code only tests run
lives under ``tests/`` (the per-edge oracles in ``tests/oracle/``) or
``tools/`` (the linter and its lock sanitizer), and the package imports
neither, so an installed wheel needs neither.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: module files run as programs (``python -m repro``, ``python -m repro.cli``).
ENTRY_MODULES = ("repro.__main__", "repro.cli")
#: script directories whose files are each an entrypoint.
ENTRY_DIRS = ("examples", "benchmarks", "benchmarks/spine")
#: top-level packages outside ``src`` that the package must never import.
DEV_ONLY = ("tests", "reprolint")


def _module_table() -> Dict[str, Path]:
    """Dotted name -> file, a package named by its ``__init__``."""
    table: Dict[str, Path] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        table[".".join(parts)] = path
    return table


MODULES = _module_table()


def _is_package(name: str) -> bool:
    return name in MODULES and MODULES[name].name == "__init__.py"


def _imports(path: Path) -> Iterator[Tuple[str, Optional[str]]]:
    """``(module, imported name or None)`` for every import in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            # the tree uses absolute imports only; a relative or star
            # import would hide edges from this walk
            assert node.level == 0 and node.names[0].name != "*", (
                f"{path}:{node.lineno}: relative / star import"
            )
            for alias in node.names:
                yield node.module, alias.name


def _resolve(module: str, name: Optional[str]) -> Optional[str]:
    """The ``src/repro`` module an import really depends on, if any.

    ``import a.b`` -> ``a.b``.  ``from a import b`` -> the submodule
    ``a.b`` when there is one; else, when ``a`` is a package, whichever
    module its ``__init__`` takes ``b`` from (followed transitively);
    else ``a`` itself.
    """
    if module not in MODULES:
        return None
    if name is None:
        return module
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if _is_package(module):
        for source, imported in _imports(MODULES[module]):
            if imported == name and source != module:
                return _resolve(source, name)
    return module  # defined right there


def _edges(path: Path) -> Set[str]:
    targets = {_resolve(module, name) for module, name in _imports(path)}
    return targets - {None}


def reached_modules() -> Set[str]:
    frontier: List[str] = []
    reached: Set[str] = set()

    def visit(targets: Set[str]) -> None:
        for target in targets - reached:
            reached.add(target)
            frontier.append(target)

    visit({name for name in ENTRY_MODULES if name in MODULES})
    for directory in ENTRY_DIRS:
        for script in sorted((ROOT / directory).glob("*.py")):
            visit(_edges(script))
    while frontier:
        name = frontier.pop()
        visit(_edges(MODULES[name]))
    return reached


def unreached_modules() -> List[str]:
    reached = reached_modules()
    return sorted(
        name
        for name, path in MODULES.items()
        if name not in reached and path.name not in ("__init__.py", "__main__.py")
    )


def test_entrypoints_exist():
    missing = [name for name in ENTRY_MODULES if name not in MODULES]
    assert not missing, f"entrypoint modules gone: {missing}"
    for directory in ENTRY_DIRS:
        assert list((ROOT / directory).glob("*.py")), f"no scripts under {directory}/"


def test_every_module_is_reached_by_an_entrypoint():
    orphans = unreached_modules()
    assert not orphans, (
        "modules no entrypoint reaches (only their own tests or a package "
        f"__init__ import them): {orphans}.  Delete them, wire them into an "
        "entrypoint, or move them beside the tests that use them."
    )


def test_package_imports_neither_tests_nor_tools():
    """An installed ``repro`` needs nothing from ``tests/`` or ``tools/``."""
    bad = sorted(
        f"{name} -> {module}"
        for name, path in MODULES.items()
        for module, _ in _imports(path)
        if module.split(".")[0] in DEV_ONLY
    )
    assert not bad, f"package modules importing dev-only code: {bad}"
