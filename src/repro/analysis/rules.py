"""The reprolint rule set: eight checks for this codebase's real hazards.

Three further concurrency-correctness rules — ``lock-discipline``,
``lock-ordering`` and ``hold-and-call`` — live in
:mod:`repro.analysis.concurrency` (selectable together via
``repro lint --concurrency``); their runtime counterpart is
:mod:`repro.analysis.sanitizer`.

====================  ======================================================
rule id               guards against
====================  ======================================================
rng-discipline        unseedable randomness (``np.random.*`` / stdlib
                      ``random`` outside ``utils/rng.py``)
explicit-dtype        silent float64/float32 drift from dtype-less array
                      constructors in ``core/``, ``autograd/``, ``serve/``
                      and ``resilience/``; ``core/engine/`` additionally
                      pins ``np.asarray`` and ``np.arange`` (plan arrays
                      cross the bitwise-parity gate as raw bytes)
autograd-backward     a differentiable op whose forward is taped via
                      ``Tensor._make`` without a wired ``backward`` closure
inplace-mutation      augmented assignment on a tensor's backing ``.data``
                      array outside ``no_grad()`` — corrupts saved
                      activations; in ``core/engine/`` also any subscript
                      write to an attribute-held array (kernels must
                      return gradients and route memory writes through
                      the optimizer, never scatter into shared state)
baseline-registry     a ``baselines/`` module missing from ``registry.py``
                      or without a ``tests/baselines/test_<module>.py``
                      file
public-api            ``repro.__all__`` names that do not resolve or lack
                      docstrings
metrics-discipline    ad-hoc telemetry: ``print()`` in library code
                      (allowed only in ``cli.py`` and
                      ``analysis/reporters.py``) and raw ``time.time()`` /
                      ``time.perf_counter()`` outside ``utils/timer.py`` /
                      ``obs/`` — timings must flow through the Timer /
                      span / metrics APIs so they land in the shared
                      registry
exception-discipline  error paths that hide failures: bare ``except:``
                      (catches ``KeyboardInterrupt``/``SystemExit``) and
                      handlers that silently swallow — a body with no
                      raise / return / call / assignment / control flow,
                      i.e. nothing that records, translates or reacts to
                      the error
====================  ======================================================

Every rule honours ``# reprolint: disable=<id>`` on the reported line
and ``# reprolint: disable-file=<id>`` anywhere in the reported file.
To add a rule: subclass :class:`~repro.analysis.core.Rule`, set ``id``
and ``description``, implement ``check_file`` and/or ``check_project``,
and decorate with :func:`~repro.analysis.core.register_rule`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import (
    Project,
    Rule,
    SourceFile,
    Violation,
    build_parent_map,
    dotted_name,
    register_rule,
)

# ------------------------------------------------------------- rng-discipline


@register_rule
class RngDisciplineRule(Rule):
    """All randomness must flow through ``repro.utils.rng`` generators."""

    id = "rng-discipline"
    description = (
        "no np.random.* calls or stdlib `random` usage outside utils/rng.py; "
        "pass a seeded numpy Generator from repro.utils.rng instead"
    )

    #: the one module allowed to touch the global numpy RNG machinery
    EXEMPT = "utils/rng.py"

    def applies_to(self, sf: SourceFile) -> bool:
        return sf.package_rel != self.EXEMPT

    def check_file(self, sf: SourceFile) -> Iterator[Violation]:
        stdlib_random_names: Set[str] = set()
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        stdlib_random_names.add(alias.asname or alias.name.split(".")[0])
                        yield self._violation(
                            sf, node, "stdlib `random` imported; use repro.utils.rng"
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield self._violation(
                        sf, node, "stdlib `random` imported; use repro.utils.rng"
                    )
                elif node.module == "numpy" and node.level == 0:
                    for alias in node.names:
                        if alias.name == "random":
                            yield self._violation(
                                sf,
                                node,
                                "`from numpy import random` defeats seed discipline; "
                                "use repro.utils.rng",
                            )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                if dotted.startswith(("np.random.", "numpy.random.")):
                    yield self._violation(
                        sf,
                        node,
                        f"call to {dotted}() bypasses seed discipline; "
                        "take an rng from repro.utils.rng.new_rng",
                    )
                else:
                    head = dotted.split(".")[0]
                    if head in stdlib_random_names and "." in dotted:
                        yield self._violation(
                            sf,
                            node,
                            f"call to stdlib {dotted}() is unseeded per-process "
                            "state; use repro.utils.rng",
                        )

    def _violation(self, sf: SourceFile, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=sf.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


# -------------------------------------------------------------- explicit-dtype


@register_rule
class ExplicitDtypeRule(Rule):
    """Hot-path allocations must pin their dtype explicitly."""

    id = "explicit-dtype"
    description = (
        "np.zeros/np.empty/np.ones/np.full in core/, autograd/, serve/, "
        "resilience/ and replicate/ must pass an explicit dtype= so the "
        "analytic-gradient, autograd, serving-snapshot, checkpoint-parity "
        "and replica-fingerprint paths cannot drift between float32 and "
        "float64; core/engine/ additionally requires "
        "dtype= on np.asarray/np.arange because plan and schedule arrays "
        "feed the engines' bitwise-parity contract"
    )

    #: constructor -> index of the positional dtype argument
    CONSTRUCTORS = {"zeros": 1, "ones": 1, "empty": 1, "full": 2}
    #: engine plans are compared as raw bytes across engines, so even
    #: coercions/ranges must pin their dtype (platform default int drift
    #: would silently break the parity gate, not just precision).
    ENGINE_CONSTRUCTORS = {**CONSTRUCTORS, "asarray": 1, "arange": 3}
    SCOPES = ("core/", "autograd/", "serve/", "resilience/", "replicate/", "obs/")
    ENGINE_SCOPE = "core/engine/"

    def applies_to(self, sf: SourceFile) -> bool:
        return sf.package_rel.startswith(self.SCOPES)

    def check_file(self, sf: SourceFile) -> Iterator[Violation]:
        engine = sf.package_rel.startswith(self.ENGINE_SCOPE)
        constructors = self.ENGINE_CONSTRUCTORS if engine else self.CONSTRUCTORS
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) != 2 or parts[0] not in ("np", "numpy"):
                continue
            position = constructors.get(parts[1])
            if position is None:
                continue
            if len(node.args) > position:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            yield Violation(
                path=sf.rel,
                line=node.lineno,
                col=node.col_offset,
                rule=self.id,
                message=f"{dotted}() without an explicit dtype=",
            )


# ----------------------------------------------------------- autograd-backward


@register_rule
class AutogradBackwardRule(Rule):
    """Every taped forward must wire a ``backward`` closure into ``_make``."""

    id = "autograd-backward"
    description = (
        "functions in autograd/tensor.py and autograd/functional.py that build "
        "outputs via Tensor._make must define a local `backward` closure and "
        "pass it to _make"
    )

    SCOPED_FILES = ("autograd/tensor.py", "autograd/functional.py")

    def applies_to(self, sf: SourceFile) -> bool:
        return sf.package_rel in self.SCOPED_FILES

    def check_file(self, sf: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.FunctionDef) and node.name != "backward":
                yield from self._check_forward(sf, node)

    def _check_forward(
        self, sf: SourceFile, func: ast.FunctionDef
    ) -> Iterator[Violation]:
        make_calls: List[ast.Call] = []
        has_backward_def = False
        for node in self._walk_own_scope(func):
            if isinstance(node, ast.FunctionDef) and node.name == "backward":
                has_backward_def = True
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is not None and dotted.endswith("._make"):
                    make_calls.append(node)
        if not make_calls:
            return
        wired = any(
            isinstance(arg, ast.Name) and arg.id == "backward"
            for call in make_calls
            for arg in list(call.args) + [kw.value for kw in call.keywords]
        )
        if not has_backward_def:
            yield Violation(
                path=sf.rel,
                line=func.lineno,
                col=func.col_offset,
                rule=self.id,
                message=(
                    f"{func.name}() tapes a forward via _make but defines no "
                    "`backward` closure"
                ),
            )
        elif not wired:
            yield Violation(
                path=sf.rel,
                line=func.lineno,
                col=func.col_offset,
                rule=self.id,
                message=(
                    f"{func.name}() defines `backward` but never passes it to "
                    "_make — the gradient is silently dropped"
                ),
            )

    @staticmethod
    def _walk_own_scope(func: ast.FunctionDef) -> Iterator[ast.AST]:
        """Walk ``func`` including nested-def headers but not their bodies
        (except we still note a nested def named ``backward``)."""
        stack: List[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # closure bodies are a separate scope
            stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------- inplace-mutation


@register_rule
class InplaceMutationRule(Rule):
    """In-place updates of tensor storage must be fenced off the tape."""

    id = "inplace-mutation"
    description = (
        "augmented assignment targeting a `.data` backing array outside a "
        "`with no_grad():` block mutates values saved by backward closures; "
        "in core/engine/ any subscript write to an "
        "attribute-held array is also banned — kernels return gradients, "
        "the optimizer owns writes"
    )

    ENGINE_SCOPE = "core/engine/"

    def check_file(self, sf: SourceFile) -> Iterator[Violation]:
        parents = build_parent_map(sf.tree)
        engine = sf.package_rel.startswith(self.ENGINE_SCOPE)
        for node in ast.walk(sf.tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [
                element
                for t in targets
                for element in (t.elts if isinstance(t, (ast.Tuple, ast.List)) else (t,))
            ]
            if isinstance(node, ast.AugAssign) and self._targets_data(node.target):
                if self._inside_no_grad(node, parents):
                    continue
                yield Violation(
                    path=sf.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.id,
                    message=(
                        "augmented assignment mutates a tensor's .data in place; "
                        "wrap in `with no_grad():` or route through the tape"
                    ),
                )
            elif engine and any(self._writes_attribute_array(t) for t in targets):
                yield Violation(
                    path=sf.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.id,
                    message=(
                        "subscript write to an attribute-held array inside "
                        "core/engine/; kernels must return gradients and route "
                        "memory writes through SparseAdam.update_rows"
                    ),
                )

    @staticmethod
    def _writes_attribute_array(target: ast.AST) -> bool:
        """True for ``obj.attr[...] = ...`` / ``obj.attr[...] += ...``.

        Subscript writes to *local* arrays (``ast.Name`` bases) are the
        engine's bread and butter and stay allowed; only writes that
        reach through an attribute — shared model/memory state — fire.
        """
        if not isinstance(target, ast.Subscript):
            return False
        base = target.value
        while isinstance(base, ast.Subscript):
            base = base.value
        return isinstance(base, ast.Attribute)

    @staticmethod
    def _targets_data(target: ast.AST) -> bool:
        for node in ast.walk(target):
            if isinstance(node, ast.Attribute) and node.attr == "data":
                return True
        return False

    @staticmethod
    def _inside_no_grad(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
        current = parents.get(node)
        while current is not None:
            if isinstance(current, (ast.With, ast.AsyncWith)):
                for item in current.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call):
                        dotted = dotted_name(expr.func)
                        if dotted is not None and dotted.split(".")[-1] == "no_grad":
                            return True
            current = parents.get(current)
        return False


# ---------------------------------------------------------- baseline-registry


@register_rule
class BaselineRegistryRule(Rule):
    """Every baseline implementation is registered and has its own tests."""

    id = "baseline-registry"
    description = (
        "each baselines/ module defining a BaselineModel subclass must appear "
        "in registry.py BASELINE_BUILDERS and have tests/baselines/"
        "test_<module>.py"
    )

    BASE_NAMES = ("BaselineModel", "EmbeddingModel")
    #: infrastructure modules that define (rather than implement) the API
    EXEMPT_MODULES = ("base", "registry", "__init__")

    def check_project(self, project: Project) -> Iterator[Violation]:
        registry_sf = project.find("baselines/registry.py")
        if registry_sf is None or registry_sf.tree is None:
            return
        registered_modules = self._registered_modules(registry_sf.tree)
        tests_dir = project.tests_dir() / "baselines"
        for sf in project.files:
            rel = sf.package_rel
            if not rel.startswith("baselines/") or sf.tree is None:
                continue
            stem = Path(rel).stem
            if stem in self.EXEMPT_MODULES:
                continue
            baseline_class = self._baseline_class(sf.tree)
            if baseline_class is None:
                continue
            if stem not in registered_modules:
                yield Violation(
                    path=sf.rel,
                    line=baseline_class.lineno,
                    col=baseline_class.col_offset,
                    rule=self.id,
                    message=(
                        f"baseline class {baseline_class.name} in {stem}.py is "
                        "not registered in baselines/registry.py "
                        "BASELINE_BUILDERS"
                    ),
                )
            test_file = tests_dir / f"test_{stem}.py"
            if not test_file.exists():
                yield Violation(
                    path=sf.rel,
                    line=baseline_class.lineno,
                    col=baseline_class.col_offset,
                    rule=self.id,
                    message=(
                        f"baseline module {stem}.py has no matching test file "
                        f"tests/baselines/test_{stem}.py"
                    ),
                )

    def _baseline_class(self, tree: ast.Module) -> Optional[ast.ClassDef]:
        """The first top-level class subclassing the baseline API, if any."""
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                name = dotted_name(base)
                if name is not None and name.split(".")[-1] in self.BASE_NAMES:
                    return node
        return None

    def _registered_modules(self, tree: ast.Module) -> Set[str]:
        """Module stems whose classes appear as BASELINE_BUILDERS values."""
        name_to_module: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    name_to_module[alias.asname or alias.name] = node.module
        registered: Set[str] = set()
        for node in ast.walk(tree):
            target_names = []
            if isinstance(node, ast.Assign):
                target_names = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
                value = node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                target_names = [node.target.id]
                value = node.value
            else:
                continue
            if "BASELINE_BUILDERS" not in target_names:
                continue
            if isinstance(value, ast.Dict):
                for v in value.values:
                    if isinstance(v, ast.Name) and v.id in name_to_module:
                        registered.add(name_to_module[v.id].split(".")[-1])
        return registered


# --------------------------------------------------------- metrics-discipline


@register_rule
class MetricsDisciplineRule(Rule):
    """Telemetry flows through the obs APIs, not prints and raw clocks."""

    id = "metrics-discipline"
    description = (
        "no print() in library code (only cli.py and analysis/reporters.py "
        "may print) and no raw time.time()/time.perf_counter() outside "
        "utils/timer.py and obs/ — report through Timer, tracer spans and "
        "the shared MetricsRegistry instead"
    )

    #: the only modules that own stdout
    PRINT_EXEMPT = ("cli.py", "analysis/reporters.py")
    #: the clock primitives wrapped by Timer / tracer spans
    CLOCK_CALLS = (
        "time.time",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
    )
    #: the modules allowed to touch the clock primitives directly
    CLOCK_EXEMPT_FILES = ("utils/timer.py",)
    CLOCK_EXEMPT_PREFIXES = ("obs/",)

    def check_file(self, sf: SourceFile) -> Iterator[Violation]:
        rel = sf.package_rel
        check_print = rel not in self.PRINT_EXEMPT
        check_clock = rel not in self.CLOCK_EXEMPT_FILES and not rel.startswith(
            self.CLOCK_EXEMPT_PREFIXES
        )
        if not (check_print or check_clock):
            return
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            if check_print and dotted == "print":
                yield Violation(
                    path=sf.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.id,
                    message=(
                        "print() in library code; emit through "
                        "analysis/reporters.py helpers or return data for "
                        "cli.py to render"
                    ),
                )
            elif check_clock and dotted in self.CLOCK_CALLS:
                yield Violation(
                    path=sf.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.id,
                    message=(
                        f"raw {dotted}() call; time through "
                        "repro.utils.timer.Timer or a repro.obs tracer span "
                        "so the measurement reaches the shared telemetry"
                    ),
                )


# ----------------------------------------------------------------- public-api


@register_rule
class PublicApiRule(Rule):
    """``repro.__all__`` must stay importable and documented."""

    id = "public-api"
    description = (
        "every name in repro/__init__.py __all__ must resolve to a definition "
        "in the source tree, and resolved classes/functions must carry "
        "docstrings"
    )

    MAX_DEPTH = 10

    def check_project(self, project: Project) -> Iterator[Violation]:
        init_sf = self._package_init(project)
        if init_sf is None or init_sf.tree is None:
            return
        package_dir = init_sf.path.resolve().parent
        exported = self._exported_names(init_sf.tree)
        for name, line in exported:
            problem = self._resolve(
                name, init_sf.tree, package_dir, package_dir, depth=0
            )
            if problem is not None:
                yield Violation(
                    path=init_sf.rel,
                    line=line,
                    col=0,
                    rule=self.id,
                    message=f"__all__ entry {name!r} {problem}",
                )

    def _package_init(self, project: Project) -> Optional[SourceFile]:
        for sf in project.files:
            if sf.package_rel == "__init__.py" and sf.path.parent.name == "repro":
                return sf
        return None

    def _exported_names(self, tree: ast.Module) -> List[Tuple[str, int]]:
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    return [
                        (elt.value, elt.lineno)
                        for elt in node.value.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    ]
        return []

    def _resolve(
        self,
        name: str,
        tree: ast.Module,
        top_dir: Path,
        module_dir: Path,
        depth: int,
    ) -> Optional[str]:
        """None when ``name`` resolves cleanly, else a problem description.

        ``top_dir`` is the root ``repro`` package directory (anchor for
        absolute imports); ``module_dir`` is the directory of the module
        currently being inspected (anchor for relative imports).
        """
        if depth > self.MAX_DEPTH:
            return "exceeds re-export resolution depth"
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name == name:
                    if not ast.get_docstring(node):
                        kind = "class" if isinstance(node, ast.ClassDef) else "function"
                        return f"resolves to an undocumented {kind} ({node.name})"
                    return None
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name) and t.id == name:
                        return None  # a plain value; no docstring possible
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.target.id == name:
                    return None
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        if alias.name == "*":
                            continue
                        source = self._module_source(node, top_dir, module_dir)
                        if source is None:
                            return (
                                f"is re-exported from unresolvable module "
                                f"{node.module!r}"
                            )
                        sub_tree, sub_dir = source
                        return self._resolve(
                            alias.name, sub_tree, top_dir, sub_dir, depth + 1
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if (alias.asname or alias.name.split(".")[0]) == name:
                        return None
        return "does not resolve to any definition"

    def _module_source(
        self, node: ast.ImportFrom, top_dir: Path, module_dir: Path
    ) -> Optional[Tuple[ast.Module, Path]]:
        """Parse the module an ImportFrom pulls from, rooted at the package."""
        module = node.module or ""
        if node.level > 0:
            base = module_dir
            for _ in range(node.level - 1):
                base = base.parent
            parts = module.split(".") if module else []
        else:
            parts = module.split(".")
            if not parts or parts[0] != top_dir.name:
                return None  # external dependency (numpy, scipy, ...)
            base = top_dir
            parts = parts[1:]
        target = base.joinpath(*parts) if parts else base
        for candidate, owner in (
            (target / "__init__.py", target),
            (target.with_suffix(".py"), target.parent),
        ):
            if candidate.exists():
                try:
                    tree = ast.parse(
                        candidate.read_text(encoding="utf-8"),
                        filename=str(candidate),
                    )
                except SyntaxError:
                    return None
                return tree, owner
        return None


# --------------------------------------------------------- exception-discipline


@register_rule
class ExceptionDisciplineRule(Rule):
    """Error paths must surface, translate or record — never vanish."""

    id = "exception-discipline"
    description = (
        "no bare `except:` (it catches KeyboardInterrupt/SystemExit) and no "
        "silently-swallowing handlers: an except body must raise, return, "
        "call something (log/metric/cleanup), assign state or branch control "
        "flow — a body of pass/constants makes failures undiagnosable, which "
        "the resilience layer's recovery guarantees cannot survive"
    )

    #: statement types that count as *reacting* to the caught exception
    HANDLED_STATEMENTS = (
        ast.Raise,
        ast.Return,
        ast.Break,
        ast.Continue,
        ast.Assign,
        ast.AugAssign,
        ast.AnnAssign,
        ast.Delete,
        ast.Assert,
    )
    #: expression types that count when they appear anywhere in the body
    HANDLED_EXPRESSIONS = (ast.Call, ast.Yield, ast.YieldFrom, ast.Await)

    def check_file(self, sf: SourceFile) -> Iterator[Violation]:
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield Violation(
                    path=sf.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.id,
                    message=(
                        "bare `except:` catches KeyboardInterrupt and "
                        "SystemExit; name the exception types (use "
                        "`except Exception` at the very least)"
                    ),
                )
            if not self._handles(node):
                yield Violation(
                    path=sf.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.id,
                    message=(
                        "exception silently swallowed: the handler body "
                        "neither raises, returns, records (call/assignment) "
                        "nor redirects control flow"
                    ),
                )

    def _handles(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, self.HANDLED_STATEMENTS) or isinstance(
                node, self.HANDLED_EXPRESSIONS
            ):
                return True
        return False
