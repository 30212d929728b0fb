"""reprolint core: source model, rule registry, suppressions, driver.

The framework is deliberately small and dependency-free: rules receive
parsed :mod:`ast` trees (never import the code under analysis), look at
one module at a time (``check_file``), report :class:`Violation`
records, and can be silenced per line or per file with
``# reprolint: disable=<rule>[,<rule>...]`` comments.

``run_lint`` is the single entry point used by ``python -m reprolint``
(:mod:`reprolint.__main__`) and the tier-1 gate test; ``render_text`` is
its report.
"""

from __future__ import annotations

import ast
import functools
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: rule id used for files that cannot be parsed at all
PARSE_ERROR_RULE = "parse-error"
#: rule id used for a suppression comment that silenced nothing
UNUSED_SUPPRESSION_RULE = "unused-suppression"

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable|disable-file)="
    r"(?P<rules>[A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
)


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit at ``path:line:col``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    """A parsed module plus its suppression directives."""

    path: Path
    rel: str
    text: str
    tree: Optional[ast.Module]
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    file_suppressions: Set[str] = field(default_factory=set)

    @property
    def package_rel(self) -> str:
        """Path relative to the innermost ``repro`` package directory.

        ``.../src/repro/core/model.py`` -> ``core/model.py``; files not
        under a ``repro`` directory keep their project-relative path.
        Rules use this to scope themselves (e.g. dtype hygiene only in
        ``core/`` and ``autograd/``).
        """
        parts = Path(self.rel).parts
        for i in range(len(parts) - 1, -1, -1):
            if parts[i] == "repro":
                return "/".join(parts[i + 1 :])
        return "/".join(parts)

    def suppressor(self, rule_id: str, line: int) -> Optional[Tuple[int, str]]:
        """The directive silencing ``rule_id`` at ``line``, if any, as
        ``(line, name)`` — line 0 for a ``disable-file``."""
        on_line = self.line_suppressions.get(line, ())
        for name in (rule_id, "all"):
            if name in self.file_suppressions:
                return 0, name
            if name in on_line:
                return line, name
        return None

    def directives(self) -> Iterator[Tuple[int, str]]:
        """Every suppression directive, in :meth:`suppressor`'s form."""
        for name in self.file_suppressions:
            yield 0, name
        for line, names in self.line_suppressions.items():
            for name in names:
                yield line, name

    @functools.cached_property
    def imports(self) -> Dict[str, str]:
        """Local name -> the dotted path it was imported as, anywhere in
        the file: ``import numpy.random as npr`` binds ``npr`` to
        ``numpy.random``, ``from time import perf_counter`` binds
        ``perf_counter`` to ``time.perf_counter``."""
        bound: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        bound[head] = head
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        return bound


def _parse_suppressions(text: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract ``# reprolint: disable[-file]=...`` directives.

    Uses the tokenizer so directives inside string literals are ignored;
    on tokenisation failure (syntactically broken file) no suppressions
    are recorded — the parse error is reported anyway.
    """
    line_rules: Dict[int, Set[str]] = {}
    file_rules: Set[str] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return line_rules, file_rules
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if not match:
            continue
        rules = {r.strip() for r in match.group("rules").split(",") if r.strip()}
        if match.group("kind") == "disable-file":
            file_rules.update(rules)
        else:
            line_rules.setdefault(tok.start[0], set()).update(rules)
    return line_rules, file_rules


def load_source_file(path: Path, root: Path) -> SourceFile:
    """Read and parse ``path``; a syntax error leaves ``tree`` as None."""
    text = path.read_text(encoding="utf-8")
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError:
        tree = None
    line_rules, file_rules = _parse_suppressions(text)
    return SourceFile(
        path=path,
        rel=rel,
        text=text,
        tree=tree,
        line_suppressions=line_rules,
        file_suppressions=file_rules,
    )


class Rule:
    """Base class: subclass, set ``id``/``description``, override
    ``check_file`` (and ``applies_to`` to scope it)."""

    id: str = ""
    description: str = ""

    def applies_to(self, sf: SourceFile) -> bool:
        return True

    def check_file(self, sf: SourceFile) -> Iterator[Violation]:
        return iter(())


_REGISTRY: Dict[str, Rule] = {}


def register_rule(cls):
    """Class decorator adding a rule (by its ``id``) to the registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has an empty id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return cls


def get_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Rule]:
    """Registered rules, optionally filtered by ``select`` / ``ignore``."""
    # Importing the rule modules populates the registry on first use.
    from reprolint import concurrency as _concurrency  # noqa: F401
    from reprolint import rules as _rules  # noqa: F401

    known = set(_REGISTRY)
    for name in list(select or []) + list(ignore or []):
        if name not in known:
            raise KeyError(f"unknown rule {name!r}; known: {sorted(known)}")
    chosen = sorted(_REGISTRY.values(), key=lambda r: r.id)
    if select:
        chosen = [r for r in chosen if r.id in set(select)]
    if ignore:
        chosen = [r for r in chosen if r.id not in set(ignore)]
    return chosen


@dataclass
class LintResult:
    """Outcome of one ``run_lint`` invocation."""

    violations: List[Violation]
    files_checked: int
    rules: List[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for v in self.violations:
            counts[v.rule] = counts.get(v.rule, 0) + 1
        return dict(sorted(counts.items()))


def discover_project_root(start: Path) -> Path:
    """Walk up from ``start`` to the directory holding pyproject.toml/.git."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in [current, *current.parents]:
        if (candidate / "pyproject.toml").exists() or (candidate / ".git").exists():
            return candidate
    return current


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into sorted ``*.py`` files, skipping caches."""
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for sub in sorted(path.rglob("*.py")):
            parts = sub.parts
            if "__pycache__" in parts or any(p.startswith(".") for p in parts):
                continue
            yield sub


def run_lint(
    paths: Sequence,
    project_root: Optional[Path] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint ``paths`` (files or directories) with the registered rules.

    Suppressed violations are dropped; files that fail to parse yield a
    single ``parse-error`` violation and are skipped by every rule.  A
    suppression comment that silenced nothing is itself reported
    (``unused-suppression``) when the rule it names ran — or is not a
    rule at all — so a stale directive cannot outlive the code it
    excused; ``all`` is judged only when the whole rule set ran.
    """
    path_objs = [Path(p) for p in paths]
    if not path_objs:
        raise ValueError("run_lint needs at least one path")
    root = Path(project_root) if project_root else discover_project_root(path_objs[0])
    files: List[SourceFile] = []
    seen: Set[Path] = set()
    for fp in iter_python_files(path_objs):
        resolved = fp.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        files.append(load_source_file(fp, root))

    rules = get_rules(select=select, ignore=ignore)
    violations: List[Violation] = []

    for sf in files:
        if sf.tree is None:
            violations.append(
                Violation(
                    path=sf.rel,
                    line=1,
                    col=0,
                    rule=PARSE_ERROR_RULE,
                    message="file could not be parsed as Python",
                )
            )

    used: Set[Tuple[str, int, str]] = set()
    for rule in rules:
        for sf in files:
            if sf.tree is None or not rule.applies_to(sf):
                continue
            for v in rule.check_file(sf):
                directive = sf.suppressor(v.rule, v.line)
                if directive is not None:
                    used.add((sf.rel, *directive))
                else:
                    violations.append(v)

    not_judged = set(_REGISTRY) - {r.id for r in rules}
    if not_judged:
        not_judged.add("all")  # the wildcard may cover a rule that did not run
    for sf in files:
        for line, name in sf.directives():
            if (sf.rel, line, name) not in used and name not in not_judged:
                violations.append(
                    Violation(
                        path=sf.rel,
                        line=max(line, 1),
                        col=0,
                        rule=UNUSED_SUPPRESSION_RULE,
                        message=f"suppression of {name!r} suppresses nothing "
                        "here; delete the comment",
                    )
                )

    return LintResult(
        violations=sorted(violations),
        files_checked=len(files),
        rules=[r.id for r in rules],
    )


def render_text(result: LintResult) -> str:
    """``path:line:col: [rule] message`` lines plus a one-line summary."""
    lines = [v.format() for v in result.violations]
    if result.ok:
        lines.append(
            f"reprolint: clean ({result.files_checked} files, "
            f"{len(result.rules)} rules)"
        )
    else:
        counts = ", ".join(
            f"{rule}={n}" for rule, n in result.counts_by_rule().items()
        )
        lines.append(
            f"reprolint: {len(result.violations)} violation"
            f"{'s' if len(result.violations) != 1 else ''} "
            f"in {result.files_checked} files ({counts})"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------- helpers


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def qualified_name(node: ast.AST, sf: SourceFile) -> Optional[str]:
    """:func:`dotted_name` with its head resolved through ``sf``'s imports.

    ``npr.rand`` after ``import numpy.random as npr`` is
    ``numpy.random.rand``, ``zeros`` after ``from numpy import zeros`` is
    ``numpy.zeros``; a head the file never imported is left as written.
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, dot, rest = dotted.partition(".")
    return sf.imports.get(head, head) + dot + rest


def build_parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """Child -> parent links for ancestry queries (e.g. no_grad contexts)."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents
