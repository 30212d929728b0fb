"""Nested span tracing with an aggregated parent/child span tree.

A span marks one timed region of a hot path::

    with tracer.span("core.engine.execute", edges=len(records)):
        ...

Spans nest: a span opened while another is active on the same thread
becomes its child (each thread keeps its own stack of open spans under
the one shared root), so a traced run yields a call tree — per node the
call count, total wall seconds, self seconds (total minus children) and
accumulated numeric attributes.  Same-named spans under the same parent
**aggregate** into one node (count += 1, total += elapsed) rather than
appending, which keeps the tree bounded no matter how many batches
replay through it.

Two tracer implementations share the interface:

* :class:`Tracer` (``enabled=True``) records spans on
  ``time.perf_counter`` and exposes the tree as JSON
  (:meth:`Tracer.as_dict`), an indented text rendering
  (:func:`format_span_tree`) and a self-time flame table
  (:func:`format_flame_table`).
* :class:`NullTracer` (``enabled=False``) is the default everywhere: its
  :meth:`~NullTracer.span` hands back one shared no-op context manager
  and :meth:`~NullTracer.wrap` returns the function unchanged, so
  instrumented code paths cost a single attribute check when tracing is
  off.  Hot loops that would pay even that per element should guard on
  ``tracer.enabled`` and skip instrumentation wholesale (the batched
  engine wraps its kernels only when enabled).

Tracing never touches model RNG streams — the bitwise engine-parity
contract (tests/core/test_engine_parity.py) holds with tracing on.

Span names follow ``layer.component.phase`` (DESIGN.md §10), e.g.
``core.inslearn.replay`` → ``core.engine.compile`` → ``core.plan.sample``.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.utils.tables import format_table


class SpanNode:
    """One aggregated node of the span tree."""

    __slots__ = ("name", "count", "total_seconds", "attrs", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_seconds = 0.0
        #: numeric attributes sum across calls; anything else keeps the
        #: most recent value.
        self.attrs: Dict[str, object] = {}
        self.children: Dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            # one dict operation: two threads creating the same child
            # both get the node that landed
            node = self.children.setdefault(name, SpanNode(name))
        return node

    @property
    def self_seconds(self) -> float:
        """Wall time spent in this span excluding its children."""
        return self.total_seconds - sum(
            c.total_seconds for c in self.children.values()
        )

    def merge_attrs(self, attrs: Dict[str, object]) -> None:
        for key, value in attrs.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                self.attrs[key] = value
            else:
                prior = self.attrs.get(key)
                if isinstance(prior, (int, float)) and not isinstance(prior, bool):
                    self.attrs[key] = prior + value
                else:
                    self.attrs[key] = value

    def as_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "name": self.name,
            "count": self.count,
            "total_seconds": self.total_seconds,
            "self_seconds": self.self_seconds,
        }
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        if self.children:
            d["children"] = [
                self.children[name].as_dict() for name in sorted(self.children)
            ]
        return d


class _Span:
    """Live context manager for one :meth:`Tracer.span` entry."""

    __slots__ = ("_stack", "_node", "_start", "_lock")

    def __init__(self, stack: List[SpanNode], node: SpanNode, lock: threading.Lock):
        self._stack = stack
        self._node = node
        self._start = 0.0
        self._lock = lock

    def __enter__(self) -> SpanNode:
        self._start = time.perf_counter()
        return self._node

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        node = self._node
        with self._lock:
            node.count += 1
            node.total_seconds += elapsed
        # Exception-safe unwind: the stack entry is removed even when the
        # body raised, so the tracer stays usable afterwards.
        stack = self._stack
        if stack and stack[-1] is node:
            stack.pop()


class _NullSpan:
    """Shared do-nothing context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


class Tracer:
    """Recording tracer: spans aggregate into a tree under ``root``.

    Optionally carries the :class:`MetricsRegistry` the instrumented
    code should report counters/gauges into — instrumentation sites ask
    ``tracer.registry`` rather than threading a second handle through
    every layer.
    """

    enabled = True

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.root = SpanNode("root")
        self._local = threading.local()
        # Guards every SpanNode's count / total / attrs: threads share
        # the tree, so same-named spans update one node.
        self._lock = threading.Lock()

    def _stack(self) -> List[SpanNode]:
        """The calling thread's open spans, from the shared root up."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [self.root]
        return stack

    def span(self, name: str, **attrs) -> _Span:
        stack = self._stack()
        node = stack[-1].child(name)
        if attrs:
            with self._lock:
                node.merge_attrs(attrs)
        stack.append(node)
        return _Span(stack, node, self._lock)

    def wrap(self, name: str, fn):
        """Wrap ``fn`` so every call is recorded as span ``name``.

        Used by the batched engine to attribute kernel self-times
        without touching the kernels themselves.
        """

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def as_dict(self) -> Dict[str, object]:
        """The span tree as JSON-ready nested dicts (top-level spans only)."""
        return {
            "spans": [
                self.root.children[name].as_dict()
                for name in sorted(self.root.children)
            ]
        }

    def flame_rows(self) -> List[List[object]]:
        """Rows (name, count, total s, self s) ordered by self time.

        Same-named spans at different tree positions (e.g. an update
        triggered by ingest vs by flush) merge into one row, so the
        table answers "where does the time go per instrument" while the
        tree keeps the positional breakdown.
        """
        merged: Dict[str, List[object]] = {}

        def visit(node: SpanNode) -> None:
            row = merged.get(node.name)
            if row is None:
                merged[node.name] = [
                    node.name,
                    node.count,
                    node.total_seconds,
                    node.self_seconds,
                ]
            else:
                row[1] += node.count
                row[2] += node.total_seconds
                row[3] += node.self_seconds
            for name in sorted(node.children):
                visit(node.children[name])

        for name in sorted(self.root.children):
            visit(self.root.children[name])
        rows = list(merged.values())
        rows.sort(key=lambda r: r[3], reverse=True)
        return rows


class NullTracer:
    """The zero-cost default: every operation is a no-op."""

    enabled = False
    registry = None
    _NULL_SPAN = _NullSpan()

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._NULL_SPAN

    def wrap(self, name: str, fn):
        return fn


#: Shared disabled tracer; instrumented modules default to this.
NULL_TRACER = NullTracer()


def format_span_tree(
    tracer: Union[Tracer, NullTracer], precision: int = 4
) -> str:
    """Indented text rendering of the span tree."""
    lines: List[str] = []

    def visit(node: SpanNode, depth: int) -> None:
        attrs = ""
        if node.attrs:
            attrs = "  {" + ", ".join(
                f"{k}={v}" for k, v in sorted(node.attrs.items())
            ) + "}"
        lines.append(
            f"{'  ' * depth}{node.name}  "
            f"calls={node.count}  "
            f"total={node.total_seconds:.{precision}f}s  "
            f"self={node.self_seconds:.{precision}f}s{attrs}"
        )
        for name in sorted(node.children):
            visit(node.children[name], depth + 1)

    if isinstance(tracer, NullTracer):
        return "(tracing disabled)"
    for name in sorted(tracer.root.children):
        visit(tracer.root.children[name], 0)
    if not lines:
        return "(no spans recorded)"
    return "\n".join(lines)


def format_flame_table(tracer: Tracer, precision: int = 4) -> str:
    """Self-time-ordered flat table of every span in the tree."""
    rows = tracer.flame_rows()
    if not rows:
        return "(no spans recorded)"
    return format_table(
        ["span", "calls", "total_s", "self_s"],
        rows,
        precision=precision,
        title="span self-times",
    )
