"""Each reprolint rule: a violating fixture fires, a clean or suppressed
fixture stays silent."""

import pytest


def rules_hit(result):
    return sorted({v.rule for v in result.violations})


# ------------------------------------------------------------- rng-discipline


class TestRngDiscipline:
    def test_np_random_call_fires(self, lint):
        result = lint(
            {
                "src/repro/core/foo.py": """
                import numpy as np
                x = np.random.rand(3)
                """
            }
        )
        assert rules_hit(result) == ["rng-discipline"]
        v = result.violations[0]
        assert v.line == 2 and "numpy.random.rand" in v.message

    def test_stdlib_random_import_and_call_fire(self, lint):
        result = lint(
            {
                "src/repro/core/foo.py": """
                import random
                random.shuffle([1, 2])
                """
            }
        )
        assert len(result.violations) == 2
        assert rules_hit(result) == ["rng-discipline"]

    @pytest.mark.parametrize(
        "source, lines",
        [
            ("import numpy.random as npr\nx = npr.rand(3)\n", [2]),
            (
                "from numpy.random import default_rng, rand\n"
                "rng = default_rng(0)\nx = rand(3)\n",
                [2, 3],
            ),
        ],
        ids=["module-alias", "from-import"],
    )
    def test_aliased_numpy_random_fires(self, lint, source, lines):
        result = lint({"src/repro/core/foo.py": source})
        assert [(v.rule, v.line) for v in result.violations] == [
            ("rng-discipline", line) for line in lines
        ]

    def test_rng_module_is_exempt(self, lint):
        result = lint(
            {
                "src/repro/utils/rng.py": """
                import numpy as np
                def new_rng(seed=None):
                    return np.random.default_rng(seed)
                """
            }
        )
        assert result.ok

    def test_generator_annotation_is_clean(self, lint):
        result = lint(
            {
                "src/repro/core/foo.py": """
                import numpy as np
                def walk(rng: np.random.Generator) -> None:
                    rng.random(3)
                """
            }
        )
        assert result.ok

    def test_suppression_comment_silences(self, lint):
        result = lint(
            {
                "src/repro/core/foo.py": """
                import numpy as np
                x = np.random.rand(3)  # reprolint: disable=rng-discipline
                """
            }
        )
        assert result.ok


# -------------------------------------------------------------- explicit-dtype


class TestExplicitDtype:
    def test_missing_dtype_fires_in_core(self, lint):
        result = lint(
            {
                "src/repro/core/alloc.py": """
                import numpy as np
                buf = np.zeros((4, 4))
                fill = np.full((2,), 7.0)
                """
            }
        )
        assert rules_hit(result) == ["explicit-dtype"]
        assert len(result.violations) == 2

    @pytest.mark.parametrize(
        "source",
        [
            "from numpy import zeros\nbuf = zeros(3)\n",
            "import numpy as xp\nbuf = xp.empty(2)\n",
        ],
        ids=["from-import", "module-alias"],
    )
    def test_aliased_constructor_fires(self, lint, source):
        result = lint({"src/repro/core/alloc.py": source})
        assert [(v.rule, v.line) for v in result.violations] == [
            ("explicit-dtype", 2)
        ]

    def test_explicit_dtype_is_clean(self, lint):
        result = lint(
            {
                "src/repro/autograd/alloc.py": """
                import numpy as np
                a = np.zeros((4, 4), dtype=np.float64)
                b = np.full((2,), 7.0, np.float32)
                """
            }
        )
        assert result.ok

    def test_outside_scoped_dirs_is_clean(self, lint):
        result = lint(
            {
                "src/repro/eval/alloc.py": """
                import numpy as np
                buf = np.zeros((4, 4))
                """
            }
        )
        assert result.ok

    def test_file_level_suppression(self, lint):
        result = lint(
            {
                "src/repro/core/alloc.py": """
                # reprolint: disable-file=explicit-dtype
                import numpy as np
                buf = np.zeros((4, 4))
                """
            }
        )
        assert result.ok

    def test_engine_scope_pins_asarray_and_arange(self, lint):
        result = lint(
            {
                "src/repro/core/engine/plan.py": """
                import numpy as np
                def compile_rows(rows, n):
                    a = np.asarray(rows)
                    b = np.arange(n)
                    return a, b
                """
            }
        )
        assert rules_hit(result) == ["explicit-dtype"]
        assert len(result.violations) == 2

    def test_engine_scope_with_dtype_is_clean(self, lint):
        result = lint(
            {
                "src/repro/core/engine/plan.py": """
                import numpy as np
                def compile_rows(rows, n):
                    a = np.asarray(rows, dtype=np.int64)
                    b = np.arange(n, dtype=np.int64)
                    return a, b
                """
            }
        )
        assert result.ok

    def test_asarray_outside_engine_is_not_pinned(self, lint):
        # The stricter constructor set applies to core/engine/ only;
        # plain core/ keeps the original zeros/ones/empty/full set.
        result = lint(
            {
                "src/repro/core/updater.py": """
                import numpy as np
                def coerce(rows):
                    return np.asarray(rows)
                """
            }
        )
        assert result.ok


# ----------------------------------------------------------- inplace-mutation


class TestInplaceMutation:
    def test_aug_assign_on_data_fires(self, lint):
        result = lint(
            {
                "src/repro/core/update.py": """
                def step(p, lr, grad):
                    p.data -= lr * grad
                """
            }
        )
        assert rules_hit(result) == ["inplace-mutation"]

    def test_subscript_on_data_fires(self, lint):
        result = lint(
            {
                "src/repro/core/update.py": """
                def scatter(p, rows, grad):
                    p.data[rows] += grad
                """
            }
        )
        assert rules_hit(result) == ["inplace-mutation"]

    def test_message_points_to_the_inline_suppression(self, lint):
        """No context manager exempts a write: the message names the
        tape and the optimiser's inline suppression, nothing else."""
        result = lint(
            {
                "src/repro/core/update.py": """
                def step(p, lr, grad):
                    p.data -= lr * grad
                """
            }
        )
        (violation,) = result.violations
        assert "# reprolint: disable=inplace-mutation" in violation.message
        assert "no_grad" not in violation.message

    def test_plain_array_aug_assign_is_clean(self, lint):
        result = lint(
            {
                "src/repro/core/update.py": """
                def accumulate(buf, grad):
                    buf += grad
                """
            }
        )
        assert result.ok

    def test_suppression_comment_silences(self, lint):
        result = lint(
            {
                "src/repro/core/update.py": """
                def step(p, lr, grad):
                    p.data -= lr * grad  # reprolint: disable=inplace-mutation
                """
            }
        )
        assert result.ok

    def test_engine_attribute_subscript_write_fires(self, lint):
        result = lint(
            {
                "src/repro/core/engine/engine.py": """
                def scatter(memory, rows, grads):
                    memory.long[rows] += grads
                """
            }
        )
        assert rules_hit(result) == ["inplace-mutation"]
        assert "SparseAdam.update_rows" in result.violations[0].message

    def test_engine_attribute_subscript_assign_fires(self, lint):
        result = lint(
            {
                "src/repro/core/engine/engine.py": """
                def overwrite(memory, slot, u, value):
                    memory.context[slot, u] = value
                """
            }
        )
        assert rules_hit(result) == ["inplace-mutation"]

    def test_engine_tuple_target_fires(self, lint):
        result = lint(
            {
                "src/repro/core/engine/plan.py": """
                def unpack(memory, row, pair):
                    memory.alpha[row], rest = pair
                """
            }
        )
        assert rules_hit(result) == ["inplace-mutation"]

    def test_engine_local_array_write_is_clean(self, lint):
        # Scatter into locally-allocated plan/gradient buffers is the
        # engine's bread and butter — only attribute-held state fires.
        result = lint(
            {
                "src/repro/core/engine/kernels.py": """
                import numpy as np
                def accumulate(rows, grads, n, dim):
                    out = np.zeros((n, dim), dtype=np.float64)
                    out[rows] = grads
                    out[rows] += grads
                    return out
                """
            }
        )
        assert result.ok

    def test_attribute_subscript_outside_engine_is_clean(self, lint):
        # The memory-write guard is scoped to core/engine/ only; the
        # optimizer itself legitimately writes attribute-held arrays.
        result = lint(
            {
                "src/repro/core/memory.py": """
                def update_rows(self, rows, grads):
                    self.values[rows] -= grads
                """
            }
        )
        assert result.ok


# --------------------------------------------------------- metrics-discipline


class TestMetricsDiscipline:
    def test_print_in_library_code_fires(self, lint):
        result = lint(
            {
                "src/repro/core/foo.py": """
                def report(x):
                    print("loss:", x)
                """
            }
        )
        assert rules_hit(result) == ["metrics-discipline"]
        assert "print()" in result.violations[0].message

    def test_only_cli_may_print(self, lint):
        result = lint(
            {
                "src/repro/cli.py": """
                print("table")
                """,
                "src/repro/analysis/core.py": """
                def emit(text):
                    print(text)
                """,
            }
        )
        assert [(v.rule, v.path) for v in result.violations] == [
            ("metrics-discipline", "src/repro/analysis/core.py")
        ]

    def test_raw_clock_call_fires(self, lint):
        result = lint(
            {
                "src/repro/eval/foo.py": """
                import time
                start = time.perf_counter()
                elapsed = time.perf_counter() - start
                """
            }
        )
        assert len(result.violations) == 2
        assert rules_hit(result) == ["metrics-discipline"]
        assert "time.perf_counter" in result.violations[0].message

    @pytest.mark.parametrize(
        "source",
        [
            "from time import perf_counter\nstart = perf_counter()\n",
            "import time as clock\nstart = clock.perf_counter()\n",
        ],
        ids=["from-import", "module-alias"],
    )
    def test_aliased_clock_fires(self, lint, source):
        result = lint({"src/repro/eval/foo.py": source})
        assert [(v.rule, v.line) for v in result.violations] == [
            ("metrics-discipline", 2)
        ]
        assert "time.perf_counter" in result.violations[0].message

    def test_timer_and_obs_modules_own_the_clock(self, lint):
        result = lint(
            {
                "src/repro/utils/timer.py": """
                import time
                def now():
                    return time.perf_counter()
                """,
                "src/repro/obs/trace.py": """
                import time
                def now():
                    return time.perf_counter()
                """,
            }
        )
        assert result.ok

    def test_suppression_comment_silences(self, lint):
        result = lint(
            {
                "src/repro/core/foo.py": """
                import time
                t = time.time()  # reprolint: disable=metrics-discipline
                """
            }
        )
        assert result.ok


# ------------------------------------------------------------------ framework


class TestFramework:
    def test_select_and_ignore(self, lint):
        files = {
            "src/repro/core/foo.py": """
            import numpy as np
            x = np.random.rand(3)
            buf = np.zeros(3)
            """
        }
        only_rng = lint(files, select=["rng-discipline"])
        assert rules_hit(only_rng) == ["rng-discipline"]
        without_rng = lint(files, ignore=["rng-discipline"])
        assert rules_hit(without_rng) == ["explicit-dtype"]

    def test_unknown_rule_raises(self, lint):
        with pytest.raises(KeyError):
            lint({"src/repro/core/foo.py": "x = 1\n"}, select=["no-such-rule"])

    def test_parse_error_reported(self, lint):
        result = lint({"src/repro/core/broken.py": "def oops(:\n"})
        assert rules_hit(result) == ["parse-error"]

    def test_violations_sorted_and_formatted(self, lint):
        result = lint(
            {
                "src/repro/core/foo.py": """
                import numpy as np
                a = np.zeros(3)
                b = np.zeros(3)
                """
            }
        )
        lines = [v.line for v in result.violations]
        assert lines == sorted(lines)
        formatted = result.violations[0].format()
        assert "core/foo.py" in formatted and "[explicit-dtype]" in formatted


# ------------------------------------------------------- exception-discipline


class TestExceptionDiscipline:
    def test_bare_except_fires(self, lint):
        result = lint(
            {
                "src/repro/serve/foo.py": """
                def load(path):
                    try:
                        return open(path)
                    except:
                        raise RuntimeError("boom")
                """
            }
        )
        assert rules_hit(result) == ["exception-discipline"]
        assert "bare `except:`" in result.violations[0].message

    def test_silent_swallow_fires(self, lint):
        result = lint(
            {
                "src/repro/serve/foo.py": """
                def load(path):
                    try:
                        return open(path)
                    except OSError:
                        pass
                """
            }
        )
        assert rules_hit(result) == ["exception-discipline"]
        assert "swallow" in result.violations[0].message

    def test_docstring_only_body_fires(self, lint):
        result = lint(
            {
                "src/repro/serve/foo.py": """
                def load(path):
                    try:
                        return open(path)
                    except OSError:
                        '''best effort'''
                """
            }
        )
        assert rules_hit(result) == ["exception-discipline"]

    def test_reacting_handlers_are_clean(self, lint):
        result = lint(
            {
                "src/repro/serve/foo.py": """
                def sweep(paths, log):
                    out = []
                    for path in paths:
                        try:
                            out.append(open(path))
                        except FileNotFoundError:
                            continue
                        except PermissionError as exc:
                            log(exc)
                        except OSError as exc:
                            raise RuntimeError(path) from exc
                    return out

                def probe(path, fallback):
                    try:
                        return open(path)
                    except OSError:
                        result = fallback
                        return result
                """
            }
        )
        assert result.ok

    def test_applies_outside_serve_too(self, lint):
        result = lint(
            {
                "src/repro/utils/foo.py": """
                def coerce(x):
                    try:
                        return int(x)
                    except ValueError:
                        pass
                """
            }
        )
        assert rules_hit(result) == ["exception-discipline"]

    def test_suppression_comment_silences(self, lint):
        result = lint(
            {
                "src/repro/serve/foo.py": """
                def load(path):
                    try:
                        return open(path)
                    except OSError:  # reprolint: disable=exception-discipline
                        pass
                """
            }
        )
        assert result.ok


# ---------------------------------------------------------- unused-suppression


class TestUnusedSuppression:
    def test_directive_that_silences_nothing_is_reported(self, lint):
        result = lint(
            {
                "src/repro/core/foo.py": """
                import numpy as np
                x = np.zeros(3, dtype=np.float64)  # reprolint: disable=explicit-dtype
                """
            }
        )
        assert rules_hit(result) == ["unused-suppression"]
        assert result.violations[0].line == 2
        assert "'explicit-dtype'" in result.violations[0].message

    def test_unused_file_directive_and_unknown_rule_name(self, lint):
        result = lint(
            {
                "src/repro/core/foo.py": """
                # reprolint: disable-file=rng-discipline
                x = 1  # reprolint: disable=no-such-rule
                """
            }
        )
        assert [(v.rule, v.line) for v in result.violations] == [
            ("unused-suppression", 1),
            ("unused-suppression", 2),
        ]

    def test_rule_that_did_not_run_is_not_judged(self, lint):
        files = {
            "src/repro/core/foo.py": """
            import numpy as np
            x = np.zeros(3)  # reprolint: disable=all
            y = np.zeros(3, dtype=np.float64)  # reprolint: disable=explicit-dtype
            """
        }
        assert lint(files, select=["rng-discipline"]).ok
        # with every rule running, ``all`` on line 2 is live and line 3 is not
        assert [(v.rule, v.line) for v in lint(files).violations] == [
            ("unused-suppression", 3)
        ]


# -------------------------------------------------------------- unused-import


class TestUnusedImport:
    def test_never_referenced_import_fires(self, lint):
        result = lint(
            {
                "src/repro/core/foo.py": """
                import numpy as np
                from typing import Dict, List
                from repro.graph.sampling import random_walk_corpus

                def f() -> Dict[str, int]:
                    return {}
                """
            }
        )
        assert rules_hit(result) == ["unused-import"]
        assert [(v.line, v.message.split()[0]) for v in result.violations] == [
            (1, "'np'"),
            (2, "'List'"),
            (3, "'random_walk_corpus'"),
        ]

    def test_every_kind_of_reference_is_clean(self, lint):
        """An attribute head, a string annotation, an ``__all__`` entry, a
        dotted import's head and ``__future__`` all count as used."""
        result = lint(
            {
                "src/repro/serve/foo.py": """
                from __future__ import annotations
                import os.path
                from collections import OrderedDict
                from typing import Tuple
                from repro.obs import Tracer

                __all__ = ["Tracer"]

                class Cache:
                    def __init__(self):
                        self._entries: "OrderedDict[Tuple[int, int], str]" = {}

                def here():
                    return os.path.dirname(__file__)
                """
            }
        )
        assert result.ok, [v.format() for v in result.violations]

    def test_package_init_and_function_level_imports_are_exempt(self, lint):
        result = lint(
            {
                "src/repro/core/__init__.py": """
                from repro.core.model import SUPA
                """,
                "src/repro/core/foo.py": """
                def f():
                    import json
                    return 1
                """,
            }
        )
        assert result.ok

    def test_module_level_if_and_try_imports_are_checked(self, lint):
        result = lint(
            {
                "src/repro/core/foo.py": """
                try:
                    import json
                except ImportError:
                    json = None
                if True:
                    import pickle
                try:
                    import csv
                except ImportError:
                    csv = None
                dump = json.dumps
                """
            }
        )
        # a fallback assignment is a binding, not a use
        assert [(v.rule, v.line) for v in result.violations] == [
            ("unused-import", 6),
            ("unused-import", 8),
        ]

    def test_suppression_comment_silences(self, lint):
        result = lint(
            {
                "src/repro/resilience/foo.py": """
                from repro.resilience.wal import (
                    scan,
                    iter_records,  # reprolint: disable=unused-import -- bound for a probe
                )
                scan("x")
                """
            }
        )
        assert result.ok
