"""Reachability census: every ``src/repro`` module and def is reached by an
entrypoint.

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
``tools/`` (the linter, its lock sanitizer and the run census), and the package imports
neither, so an installed wheel needs neither.

The def census (:func:`unreached_defs`) goes one level down: every
function, method, class and module-level assigned name in the package
(dunders aside) must be *used* somewhere in the package or an entrypoint
script, outside its own body.  A use is a name or attribute reference, an
import of the name (not in a package ``__init__``), or a string constant
spelling it (the spine binds probes by name: ``wrap(X, "publish_parts")``).
Uses are matched by name alone, so the census under-reports (two defs
sharing a name cover each other) but never reports a def something uses;
the run census (``python -m runcensus``, which lists defs with the same
:func:`runcensus.iter_defs`) closes that gap for functions and methods by
recording what the entrypoints execute.
A package ``__init__`` re-export or ``__all__`` entry is no use, and
tests are not entrypoints: an API only tests call goes, or its tests
assert a public effect instead.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import pytest

from runcensus import iter_defs


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: module files run as programs (``python -m repro``, ``python -m repro.cli``).
ENTRY_MODULES = ("repro.__main__", "repro.cli")
#: script directories whose files are each an entrypoint.
ENTRY_DIRS = ("examples", "benchmarks", "benchmarks/spine")
#: top-level packages outside ``src`` that the package must never import.
DEV_ONLY = ("tests", "reprolint", "runcensus")


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


def entry_scripts() -> List[Path]:
    """Every script under :data:`ENTRY_DIRS`."""
    return [path for directory in ENTRY_DIRS for path in sorted((ROOT / directory).glob("*.py"))]


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
    for script in entry_scripts():
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


def _uses(node: ast.AST, in_init: bool) -> Counter:
    """How often each name is used inside ``node`` (see the module doc)."""
    found: Counter = Counter()
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in current.targets
        ):
            continue  # an export list names, it does not use
        if isinstance(current, ast.Name):
            found[current.id] += 1
        elif isinstance(current, ast.Attribute):
            found[current.attr] += 1
        elif isinstance(current, (ast.Import, ast.ImportFrom)) and not in_init:
            found.update(alias.name.rsplit(".", 1)[-1] for alias in current.names)
        elif (
            isinstance(current, ast.Constant)
            and isinstance(current.value, str)
            and current.value.isidentifier()
        ):
            found[current.value] += 1
        stack.extend(ast.iter_child_nodes(current))
    return found


def unreached_defs(package: Path, entrypoints: Iterable[Path]) -> List[str]:
    """``path:line qualname`` of every def in ``package`` that neither the
    package nor an ``entrypoints`` script uses outside the def's own body."""
    modules = sorted(package.rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in modules}
    used: Counter = Counter()
    for path in [*modules, *entrypoints]:
        tree = trees.get(path) or ast.parse(path.read_text(encoding="utf-8"), str(path))
        used += _uses(tree, path.name == "__init__.py")
    unreached = []
    for path, tree in trees.items():
        for qualname, node in iter_defs(tree):
            name = qualname.rsplit(".", 1)[-1]
            if used[name] <= _uses(node, path.name == "__init__.py")[name]:
                where = path.relative_to(package.parent)
                unreached.append(f"{where}:{node.lineno} {qualname}")
    return unreached


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


def test_every_def_is_reached():
    orphans = unreached_defs(SRC / "repro", entry_scripts())
    assert not orphans, (
        "defs nothing but their own body, a package __init__ or the tests "
        f"use: {orphans}.  Delete them, or test the public effect they stand "
        "for; a helper only the oracle needs lives in tests/oracle/."
    )


#: The planted package's orphans: each kind of unreached def, one apiece.
PLANTED_ORPHANS = {
    "unreached function": "unreached_function",
    "unreached method": "Kept.unreached_method",
    "orphaned constant": "ORPHAN",
    "used only in its own body": "recurses",
    "only re-exported by __init__": "only_reexported",
}


@pytest.fixture
def planted_report(tmp_path) -> Set[str]:
    """The qualnames the census reports over a planted package and one
    script that uses ``Kept``, ``Kept.used_method`` and (through a string
    constant only) ``bound_by_string``."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from pkg.mod import Kept, only_reexported\n"
        "__all__ = ['Kept', 'only_reexported']\n"
    )
    (package / "mod.py").write_text(
        "ORPHAN = 3\n"
        "\n"
        "def unreached_function():\n"
        "    return 1\n"
        "\n"
        "def only_reexported():\n"
        "    return 2\n"
        "\n"
        "def recurses(n):\n"
        "    return recurses(n - 1) if n else 0\n"
        "\n"
        "def bound_by_string():\n"
        "    return 3\n"
        "\n"
        "class Kept:\n"
        "    def used_method(self):\n"
        "        return 4\n"
        "\n"
        "    def unreached_method(self):\n"
        "        return 5\n"
    )
    script = tmp_path / "run.py"
    script.write_text(
        "import pkg.mod\n"
        "from pkg.mod import Kept\n"
        "Kept().used_method()\n"
        "wrap(pkg.mod, 'bound_by_string')\n"
    )
    return {line.split()[1] for line in unreached_defs(package, [script])}


@pytest.mark.parametrize("qualname", list(PLANTED_ORPHANS.values()), ids=list(PLANTED_ORPHANS))
def test_def_census_reports_what_it_should(planted_report, qualname):
    """Each planted kind of unreached def is reported."""
    assert qualname in planted_report


def test_def_census_spares_a_name_only_a_string_reaches(planted_report):
    """A name a script reaches only through a string constant (a probe
    binding) is no orphan."""
    assert "bound_by_string" not in planted_report


def test_def_census_reports_only_the_planted_orphans(planted_report):
    """Nothing the script reaches is reported: the census has no false
    positive on the planted package."""
    assert planted_report == set(PLANTED_ORPHANS.values())
