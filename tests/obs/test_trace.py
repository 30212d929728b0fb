"""repro.obs.trace: span nesting, aggregation, the zero-cost null path."""

import sys
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    format_flame_table,
    format_span_tree,
)


class TestSpanTree:
    def test_nesting_builds_parent_child_tree(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
            with t.span("inner"):
                pass
        outer = t.root.children["outer"]
        assert outer.count == 1
        inner = outer.children["inner"]
        assert inner.count == 2
        assert "inner" not in t.root.children  # nested, not top-level

    def test_same_name_spans_aggregate_not_append(self):
        t = Tracer()
        for _ in range(100):
            with t.span("batch"):
                pass
        assert len(t.root.children) == 1
        assert t.root.children["batch"].count == 100

    def test_self_seconds_excludes_children(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        outer = t.root.children["outer"]
        inner = outer.children["inner"]
        assert outer.total_seconds >= inner.total_seconds
        assert (
            pytest.approx(outer.self_seconds, abs=1e-12)
            == outer.total_seconds - inner.total_seconds
        )

    def test_exception_unwinds_the_stack(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("outer"):
                with t.span("inner"):
                    raise RuntimeError("boom")
        # both spans closed despite the raise, and new spans attach at root
        assert t.root.children["outer"].count == 1
        assert t.root.children["outer"].children["inner"].count == 1
        with t.span("after"):
            pass
        assert "after" in t.root.children

    def test_threads_keep_their_own_stacks(self):
        """B's span opens first, A's opens while it is open, B's closes
        while A's is open.  With one shared stack A's span nested under
        B's, B's self time went negative, and B's node was never popped,
        so every later span nested under it."""
        t = Tracer()
        b_open, a_open, b_closed = (threading.Event() for _ in range(3))

        def thread_b():
            with t.span("b"):
                b_open.set()
                assert a_open.wait(5)
            b_closed.set()

        def thread_a():
            assert b_open.wait(5)
            with t.span("a"):
                a_open.set()
                assert b_closed.wait(5)
                time.sleep(0.02)

        threads = [threading.Thread(target=f) for f in (thread_b, thread_a)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5)
            assert not thread.is_alive()
        assert set(t.root.children) == {"a", "b"}
        for name in ("a", "b"):
            node = t.root.children[name]
            assert node.count == 1 and not node.children
            assert node.self_seconds >= 0
        with t.span("after"):
            pass
        assert "after" in t.root.children

    def test_threads_racing_to_create_a_child_share_one_node(self):
        """Eight threads open the same new span names at once: each gets
        the node the tree holds, so no thread records into an orphan."""
        t = Tracer()
        names = [f"span{j}" for j in range(200)]
        held = []

        def worker():
            nodes = []
            for name in names:
                with t.span(name) as node:
                    nodes.append(node)
            held.append(nodes)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(held) == 8
        assert set(t.root.children) == set(names)
        for nodes in held:
            assert all(node is t.root.children[node.name] for node in nodes)
            assert not any(node.children for node in nodes)

    def test_threads_sharing_a_span_lose_no_update(self):
        """Threads (more than cores) record the same span name into one
        node: every attribute sum and call count lands, none is
        overwritten by a racing read-modify-write."""
        t = Tracer()
        workers, calls = 4, 25_000

        def worker():
            for _ in range(calls):
                with t.span("x", n=1):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        node = t.root.children["x"]
        assert node.attrs["n"] == node.count == workers * calls

    def test_numeric_attrs_sum_others_keep_last(self):
        t = Tracer()
        with t.span("batch", edges=3, phase="warm", ok=True):
            pass
        with t.span("batch", edges=4, phase="steady", ok=False):
            pass
        attrs = t.root.children["batch"].attrs
        assert attrs["edges"] == 7
        assert attrs["phase"] == "steady"
        assert attrs["ok"] is False  # bools are not summed

    def test_wrap_records_each_call(self):
        t = Tracer()

        def kernel(x):
            return x + 1

        traced = t.wrap("kernel", kernel)
        assert traced(1) == 2 and traced(2) == 3
        assert t.root.children["kernel"].count == 2

    def test_wrap_records_a_call_that_raises(self):
        t = Tracer()

        def kernel():
            raise ValueError("bad batch")

        with pytest.raises(ValueError):
            t.wrap("kernel", kernel)()
        assert t.root.children["kernel"].count == 1
        with t.span("next"):  # the failed call's span is closed
            pass
        assert sorted(t.root.children) == ["kernel", "next"]

    def test_new_tracer_is_empty_and_keeps_its_registry(self):
        reg = MetricsRegistry()
        t = Tracer(registry=reg)
        assert t.as_dict() == {"spans": []}
        assert t.flame_rows() == []
        assert t.registry is reg
        assert isinstance(Tracer().registry, MetricsRegistry)

    def test_as_dict_shape(self):
        t = Tracer()
        with t.span("outer", edges=2):
            with t.span("inner"):
                pass
        d = t.as_dict()
        assert [s["name"] for s in d["spans"]] == ["outer"]
        outer = d["spans"][0]
        assert outer["count"] == 1 and outer["attrs"] == {"edges": 2}
        assert [c["name"] for c in outer["children"]] == ["inner"]
        assert "children" not in outer["children"][0]

    def test_flame_rows_merge_same_name_across_positions(self):
        t = Tracer()
        with t.span("a"):
            with t.span("shared"):
                pass
        with t.span("b"):
            with t.span("shared"):
                pass
        rows = {row[0]: row for row in t.flame_rows()}
        assert set(rows) == {"a", "b", "shared"}
        assert rows["shared"][1] == 2  # one merged row, two calls


class TestNullTracer:
    def test_is_disabled_and_shared(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.registry is None
        assert NULL_TRACER.span("x") is NULL_TRACER.span("y")

    def test_span_is_noop_context(self):
        with NULL_TRACER.span("x", edges=3) as node:
            assert node is None
        assert NULL_TRACER.as_dict() == {"spans": []}
        assert NULL_TRACER.flame_rows() == []

    def test_wrap_returns_function_unchanged(self):
        def fn():
            return 42

        assert NULL_TRACER.wrap("fn", fn) is fn


class TestRendering:
    def test_format_span_tree(self):
        t = Tracer()
        with t.span("outer", edges=2):
            with t.span("inner"):
                pass
        text = format_span_tree(t)
        lines = text.splitlines()
        assert lines[0].startswith("outer") and "{edges=2}" in lines[0]
        assert lines[1].startswith("  inner")
        assert "calls=1" in lines[0]

    def test_format_span_tree_edge_cases(self):
        assert format_span_tree(NullTracer()) == "(tracing disabled)"
        assert format_span_tree(Tracer()) == "(no spans recorded)"

    def test_format_flame_table(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        text = format_flame_table(t)
        assert "span self-times" in text
        assert "outer" in text and "inner" in text
        assert format_flame_table(Tracer()) == "(no spans recorded)"
