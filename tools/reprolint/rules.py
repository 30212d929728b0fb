"""The reprolint rule set: six general checks for this codebase's hazards.

With the three concurrency-correctness rules in
:mod:`reprolint.concurrency` — ``lock-discipline``,
``lock-ordering`` and ``hold-and-call``, whose runtime counterpart is
:mod:`reprolint.sanitizer` — that makes nine.  Invariants a tier-1
test already checks at runtime (``repro.__all__`` documented, every
baseline registered and tested, every taped op gradchecked) are left to
those tests.

====================  ======================================================
rule id               guards against
====================  ======================================================
rng-discipline        unseedable randomness (``numpy.random.*`` calls /
                      stdlib ``random`` outside ``utils/rng.py``)
explicit-dtype        silent float64/float32 drift from dtype-less array
                      constructors in ``core/``, ``autograd/``, ``serve/``,
                      ``resilience/``, ``replicate/`` and ``obs/``;
                      ``core/engine/`` additionally pins ``asarray`` and
                      ``arange`` (plan arrays cross the bitwise-parity
                      gate as raw bytes)
inplace-mutation      augmented assignment on a tensor's backing ``.data``
                      array — corrupts saved activations (the optimiser's
                      post-backward step carries an inline suppression);
                      in ``core/engine/`` also any subscript
                      write to an attribute-held array (kernels must
                      return gradients and route memory writes through
                      the optimizer, never scatter into shared state)
metrics-discipline    ad-hoc telemetry: ``print()`` in library code
                      (allowed only in ``cli.py``) and raw ``time.time()``
                      / ``time.perf_counter()`` outside ``utils/timer.py``
                      / ``obs/`` — timings must flow through the Timer /
                      span / metrics APIs so they land in the shared
                      registry
exception-discipline  error paths that hide failures: bare ``except:``
                      (catches ``KeyboardInterrupt``/``SystemExit``) and
                      handlers that silently swallow — a body with no
                      raise / return / call / assignment / control flow,
                      i.e. nothing that records, translates or reacts to
                      the error
unused-import         a module-level import (outside a package
                      ``__init__``) whose name the module never
                      references — it hides dead code from the def census
====================  ======================================================

The numpy and clock checks match calls by
:func:`~reprolint.core.qualified_name`, so an aliased import
(``import numpy as xp``, ``from time import perf_counter``) is seen
through.  Every rule honours ``# reprolint: disable=<id>`` on the
reported line and ``# reprolint: disable-file=<id>`` anywhere in the
reported file.  To add a rule: subclass
:class:`~reprolint.core.Rule`, set ``id`` and ``description``,
implement ``check_file``, and decorate with
:func:`~reprolint.core.register_rule`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from reprolint.core import (
    Rule,
    SourceFile,
    Violation,
    dotted_name,
    qualified_name,
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
                name = qualified_name(node.func, sf)
                if name.startswith("numpy.random."):
                    yield self._violation(
                        sf,
                        node,
                        f"call to {name}() bypasses seed discipline; "
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
            name = qualified_name(node.func, sf)
            if name is None:
                continue
            parts = name.split(".")
            if len(parts) != 2 or parts[0] != "numpy":
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
                message=f"{name}() without an explicit dtype=",
            )


# ----------------------------------------------------------- inplace-mutation


@register_rule
class InplaceMutationRule(Rule):
    """In-place updates of tensor storage must be fenced off the tape."""

    id = "inplace-mutation"
    description = (
        "augmented assignment targeting a `.data` backing array mutates "
        "values saved by backward closures; "
        "in core/engine/ any subscript write to an "
        "attribute-held array is also banned — kernels return gradients, "
        "the optimizer owns writes"
    )

    ENGINE_SCOPE = "core/engine/"

    def check_file(self, sf: SourceFile) -> Iterator[Violation]:
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
                yield Violation(
                    path=sf.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.id,
                    message=(
                        "augmented assignment mutates a tensor's .data in place; "
                        "route it through the tape, or, for a write that runs "
                        "strictly after backward() (an optimiser step), say so "
                        "with `# reprolint: disable=inplace-mutation`"
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


# --------------------------------------------------------- metrics-discipline


@register_rule
class MetricsDisciplineRule(Rule):
    """Telemetry flows through the obs APIs, not prints and raw clocks."""

    id = "metrics-discipline"
    description = (
        "no print() in library code (only cli.py may print) and no raw "
        "time.time()/time.perf_counter() outside "
        "utils/timer.py and obs/ — report through Timer, tracer spans and "
        "the shared MetricsRegistry instead"
    )

    #: the only module that owns stdout
    PRINT_EXEMPT = "cli.py"
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
        check_print = rel != self.PRINT_EXEMPT
        check_clock = rel not in self.CLOCK_EXEMPT_FILES and not rel.startswith(
            self.CLOCK_EXEMPT_PREFIXES
        )
        if not (check_print or check_clock):
            return
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            name = qualified_name(node.func, sf)
            if name is None:
                continue
            if check_print and name == "print":
                yield Violation(
                    path=sf.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.id,
                    message=(
                        "print() in library code; return data for cli.py "
                        "to render"
                    ),
                )
            elif check_clock and name in self.CLOCK_CALLS:
                yield Violation(
                    path=sf.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.id,
                    message=(
                        f"raw {name}() call; time through "
                        "repro.utils.timer.Timer or a repro.obs tracer span "
                        "so the measurement reaches the shared telemetry"
                    ),
                )


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


# -------------------------------------------------------------- unused-import


@register_rule
class UnusedImportRule(Rule):
    """An import the module never uses is dead weight that hides dead code."""

    id = "unused-import"
    description = (
        "a module-level import whose name the module never references "
        "(a string annotation counts) reads as a use to the def census; "
        "package __init__ files, whose imports are re-exports, are exempt"
    )

    def applies_to(self, sf: SourceFile) -> bool:
        return sf.path.name != "__init__.py"

    def check_file(self, sf: SourceFile) -> Iterator[Violation]:
        used = self._references(sf.tree)
        for node in self._module_level(sf.tree.body):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    yield Violation(
                        path=sf.rel,
                        line=alias.lineno,
                        col=alias.col_offset,
                        rule=self.id,
                        message=f"{bound!r} is imported but never used; delete the import",
                    )

    def _module_level(self, body) -> Iterator[ast.stmt]:
        """Imports in the module body, under module-level ``if`` / ``try`` too."""
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node
            elif isinstance(node, (ast.If, ast.Try)):
                for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                    yield from self._module_level(block)
                for handler in getattr(node, "handlers", []):
                    yield from self._module_level(handler.body)

    @staticmethod
    def _references(tree: ast.Module) -> Set[str]:
        """Every name the module loads, plus the names inside string
        annotations and the entries of ``__all__``."""
        names: Set[str] = set()
        annotations = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                annotations.append(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
                annotations.append(node.returns)
            elif isinstance(node, ast.AnnAssign):
                annotations.append(node.annotation)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(
                    c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
                )
        for annotation in annotations:
            for const in ast.walk(annotation):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    try:
                        parsed = ast.parse(const.value, mode="eval")
                    except SyntaxError:
                        continue
                    names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
        return names
