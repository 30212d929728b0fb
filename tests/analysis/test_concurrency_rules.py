"""Fixture tests for the three concurrency rules (``analysis/concurrency.py``).

Each test materialises a tiny project via the shared ``lint`` fixture and
asserts on the precise violations (rule id + message fragments), covering
the inference machinery the real-tree gate exercises only indirectly:
guarded-set inference, lock inheritance of private helpers, the
``__init__`` exemption, cycle detection through call edges, reentrancy
documentation, and blocked-call classification.
"""

import pytest

CONCURRENCY_RULES = ("lock-discipline", "lock-ordering", "hold-and-call")


def _messages(result, rule):
    return [v.message for v in result.violations if v.rule == rule]


@pytest.fixture
def lint_conc(lint):
    """Lint a fixture tree with only the three concurrency rules active."""

    def _run(files):
        return lint(files, select=list(CONCURRENCY_RULES))

    return _run


class TestLockDiscipline:
    def test_unguarded_read_and_write_flagged(self, lint_conc):
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import threading

                class Q:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def inc(self):
                        with self._lock:
                            self.count += 1

                    def peek(self):
                        return self.count

                    def reset(self):
                        self.count = 0
                """
            }
        )
        messages = _messages(result, "lock-discipline")
        assert len(messages) == 2
        assert any("Q.peek" in m and "read without" in m for m in messages)
        assert any("Q.reset" in m and "written without" in m for m in messages)

    def test_guarded_everywhere_is_clean(self, lint_conc):
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import threading

                class Q:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def inc(self):
                        with self._lock:
                            self.count += 1

                    def peek(self):
                        with self._lock:
                            return self.count
                """
            }
        )
        assert result.ok

    def test_init_writes_are_exempt(self, lint_conc):
        # construction happens-before publication: __init__ never races
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import threading

                class Q:
                    def __init__(self, n):
                        self._lock = threading.Lock()
                        self.count = n * 2

                    def inc(self):
                        with self._lock:
                            self.count += 1
                """
            }
        )
        assert result.ok

    def test_private_helper_inherits_lock_from_all_callers(self, lint_conc):
        # _drain is only ever called under the lock -> caller-must-hold
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import threading

                class Q:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.buf = []

                    def put(self, x):
                        with self._lock:
                            self.buf.append(x)
                            self._drain()

                    def flush(self):
                        with self._lock:
                            self._drain()

                    def _drain(self):
                        while self.buf:
                            self.buf.pop()
                """
            }
        )
        assert result.ok

    def test_helper_with_one_unlocked_call_site_does_not_inherit(self, lint_conc):
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import threading

                class Q:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.buf = []

                    def put(self, x):
                        with self._lock:
                            self.buf.append(x)
                            self._drain()

                    def flush(self):
                        self._drain()

                    def _drain(self):
                        while self.buf:
                            self.buf.pop()
                """
            }
        )
        messages = _messages(result, "lock-discipline")
        # both the read (while self.buf) and the mutator pop are races now
        assert messages
        assert all("Q._drain" in m for m in messages)

    def test_mutator_and_subscript_writes_count(self, lint_conc):
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import threading

                class Q:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.slots = {}

                    def set(self, k, v):
                        with self._lock:
                            self.slots[k] = v

                    def wipe(self):
                        self.slots.clear()
                """
            }
        )
        messages = _messages(result, "lock-discipline")
        assert len(messages) == 1
        assert "Q.wipe" in messages[0] and "slots" in messages[0]

    def test_inline_suppression(self, lint_conc):
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import threading

                class Q:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def inc(self):
                        with self._lock:
                            self.count += 1

                    def peek(self):
                        return self.count  # reprolint: disable=lock-discipline
                """
            }
        )
        assert result.ok

    def test_unlocked_class_is_ignored(self, lint_conc):
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                class Plain:
                    def __init__(self):
                        self.count = 0

                    def inc(self):
                        self.count += 1
                """
            }
        )
        assert result.ok


class TestLockOrdering:
    def test_abba_cycle_through_call_edge(self, lint_conc):
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import threading

                class Q:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def forward(self):
                        with self._a:
                            with self._b:
                                pass

                    def backward(self):
                        with self._b:
                            self._under_b()

                    def _under_b(self):
                        with self._a:
                            pass
                """
            }
        )
        messages = _messages(result, "lock-ordering")
        assert len(messages) == 1
        assert "cycle" in messages[0]
        assert "_a" in messages[0] and "_b" in messages[0]

    def test_consistent_nesting_is_clean(self, lint_conc):
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import threading

                class Q:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def one(self):
                        with self._a:
                            with self._b:
                                pass

                    def two(self):
                        with self._a:
                            self._tail()

                    def _tail(self):
                        with self._b:
                            pass
                """
            }
        )
        assert result.ok

    def test_plain_lock_reacquisition_is_deadlock(self, lint_conc):
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import threading

                class Q:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def outer(self):
                        with self._lock:
                            self.inner()

                    def inner(self):
                        with self._lock:
                            pass
                """
            }
        )
        messages = _messages(result, "lock-ordering")
        assert len(messages) == 1
        assert "guaranteed" in messages[0] and "deadlock" in messages[0]

    def test_undocumented_rlock_flagged(self, lint_conc):
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import threading

                class Q:
                    def __init__(self):
                        self._lock = threading.RLock()

                    def work(self):
                        with self._lock:
                            pass
                """
            }
        )
        messages = _messages(result, "lock-ordering")
        assert len(messages) == 1
        assert "reentrant" in messages[0]

    def test_rlock_with_marker_above_creation_is_clean(self, lint_conc):
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import threading

                class Q:
                    def __init__(self):
                        # reentrant: work -> _helper -> work
                        self._lock = threading.RLock()

                    def work(self):
                        with self._lock:
                            self._helper()

                    def _helper(self):
                        with self._lock:
                            pass
                """
            }
        )
        assert result.ok

    def test_rlock_marker_on_creation_line_is_clean(self, lint_conc):
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import threading

                class Q:
                    def __init__(self):
                        self._lock = threading.RLock()  # reentrant: work -> work

                    def work(self):
                        with self._lock:
                            pass
                """
            }
        )
        assert result.ok


class TestHoldAndCall:
    def test_sleep_under_lock_flagged(self, lint_conc):
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import threading
                import time

                class Q:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def wait(self):
                        with self._lock:
                            time.sleep(0.1)

                    def nap(self):
                        time.sleep(0.1)
                """
            }
        )
        messages = _messages(result, "hold-and-call")
        assert len(messages) == 1
        assert "Q.wait" in messages[0] and "time.sleep" in messages[0]

    def test_open_and_os_calls_under_lock_flagged(self, lint_conc):
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import os
                import threading

                class Q:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def dump(self, path):
                        with self._lock:
                            with open(path, "w") as fh:
                                fh.write("x")
                            os.replace(path, path + ".bak")
                            name = os.path.basename(path)
                        return name
                """
            }
        )
        messages = _messages(result, "hold-and-call")
        # open() and os.replace flagged; os.path.basename is exempt
        assert len(messages) == 2
        assert any("open()" in m for m in messages)
        assert any("os.replace" in m for m in messages)

    def test_injected_callable_under_lock_flagged(self, lint_conc):
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import threading

                class Q:
                    def __init__(self, handler):
                        self._lock = threading.Lock()
                        self._handler = handler

                    def dispatch(self, batch):
                        with self._lock:
                            self._handler(batch)

                    def direct(self, batch):
                        self._handler(batch)
                """
            }
        )
        messages = _messages(result, "hold-and-call")
        assert len(messages) == 1
        assert "Q.dispatch" in messages[0]
        assert "injected callable `self._handler`" in messages[0]

    def test_inherited_lock_counts_as_held(self, lint_conc):
        # _emit inherits the lock from its only call site, so the sleep
        # inside it is a hold-and-call violation even with no `with` there
        result = lint_conc(
            {
                "src/repro/serve/q.py": """
                import threading
                import time

                class Q:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def flush(self):
                        with self._lock:
                            self._emit()

                    def _emit(self):
                        time.sleep(0.01)
                """
            }
        )
        messages = _messages(result, "hold-and-call")
        assert len(messages) == 1
        assert "Q._emit" in messages[0]
