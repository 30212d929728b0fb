"""Benchmark-owned spans around the public functions of each layer.

Nothing under ``src/`` knows about this file.  :class:`Recorder` swaps a
timing wrapper in for each function named in ``install()`` — on the
class, so objects that ``recover()`` builds internally are covered like
the live service — and puts the originals back in ``remove()``.  A span
is ``(name, start, end, parent, request)``; spans live in per-thread
lists (the driver thread and the service's dispatcher thread never
share one, so recording takes no lock) and are written out after the
run.  The program's own ``repro.obs`` tracer stays off.

Self time of a span = its duration minus the time its child spans
cover; counts come from the same wrappers.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

_clock = time.perf_counter

# span fields
NAME, START, END, PARENT, REQUEST, EXTRA = range(6)


class _ThreadLog:
    """Spans opened by one thread, and the stack of those still open."""

    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.spans: List[list] = []
        self.stack: List[int] = []
        #: request id new spans inherit: "e<i>" / "q<i>" set by the load
        #: driver, "b<k>" while an update runs
        self.request = ""

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, _clock(), 0.0, parent, self.request, None])
        self.stack.append(index)
        return index

    def close(self, index: int) -> list:
        end = _clock()
        # a span abandoned by an exception further down closes with us
        while self.stack:
            top = self.stack.pop()
            self.spans[top][END] = end
            if top == index:
                break
        return self.spans[index]


class Recorder:
    """Installs and removes the wrappers; owns the recorded spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []
        self.update_count = 0
        #: perf_counter stamps of the accepts that completed a batch, each
        #: consumed by the dispatch_next that cuts it (dispatch.wake_*)
        self._batch_ready_at: Deque[float] = deque()
        self.wake_waits: List[float] = []

    # ------------------------------------------------------------ recording

    def log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._logs_lock:
                self._logs.append(log)
        return log

    def set_request(self, request: str) -> None:
        self.log().request = request

    # ------------------------------------------------------------ patching

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patched.append((owner, attr, _original(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_exit: Optional[Callable[[list, tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper (the plain
        form stays free of the ``on_exit`` call: it sits on per-event paths)."""
        original = _original(owner, attr)
        get_log = self.log

        if on_exit is None:

            def wrapper(*args, **kwargs):
                log = get_log()
                index = log.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    log.close(index)

        else:

            def wrapper(*args, **kwargs):
                log = get_log()
                index = log.open(name)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    on_exit(log.close(index), args, result)

        wrapper.__wrapped__ = original
        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary (see the table in README.md)."""
        from repro.core import inslearn
        from repro.core.engine import engine
        from repro.core.inslearn import InsLearnTrainer
        from repro.core.model import SUPA
        from repro.resilience import recovery
        from repro.resilience.checkpoint import CheckpointManager
        from repro.resilience.wal import WriteAheadLog
        from repro.serve.admission import AdmissionController
        from repro.serve.index import TopKIndex
        from repro.serve.ingest import EventQueue
        from repro.serve.service import RecommendationService
        from repro.serve.store import DecayedEmbeddingStore, VersionedEmbeddingStore

        wrap = self._wrap
        wrap(RecommendationService, "ingest", "serve.service.ingest")
        wrap(RecommendationService, "query", "serve.service.query")
        wrap(RecommendationService, "flush", "serve.service.flush")
        wrap(RecommendationService, "apply_recovered_batch", "resilience.recovery.replay",
             on_exit=lambda span, args, _: _set(span, events=len(args[1])))
        wrap(AdmissionController, "admit", "serve.admission.admit")
        for kind in ("accept", "evict", "shed", "throttle", "batch"):
            wrap(WriteAheadLog, f"append_{kind}", "resilience.wal.append")
        wrap(EventQueue, "put", "serve.ingest.put", on_exit=self._after_put)
        self._wrap_pending(EventQueue)
        self._wrap_dispatch_next(EventQueue)
        self._wrap_train_one_batch(InsLearnTrainer)
        wrap(inslearn, "validation_mrr", "core.inslearn.validate")
        wrap(SUPA, "state_dict", "core.inslearn.state_copy")
        wrap(SUPA, "load_state_dict", "core.inslearn.state_copy")
        wrap(SUPA, "observe", "graph.observe")
        wrap(SUPA, "train_batch", "core.engine.train_batch",
             on_exit=lambda span, args, _: _set(span, edges=len(args[1])))
        wrap(engine, "compile_plan", "core.engine.compile")
        wrap(DecayedEmbeddingStore, "publish", "serve.store.publish",
             on_exit=lambda span, args, _: _set(span, rows=len(args[1])))
        wrap(VersionedEmbeddingStore, "publish_parts", "serve.store.publish",
             on_exit=lambda span, args, _: _set(span, rows=sum(len(r) for r, _v in args[1])))
        wrap(DecayedEmbeddingStore, "snapshot", "serve.store.snapshot")
        wrap(VersionedEmbeddingStore, "snapshot", "serve.store.snapshot")
        self._wrap_top_k(TopKIndex)
        self._wrap_invalidate(TopKIndex)
        wrap(CheckpointManager, "save", "resilience.checkpoint.save",
             on_exit=lambda span, _a, path: _set(span, bytes=os.path.getsize(path) if path else 0))
        wrap(CheckpointManager, "latest", "resilience.checkpoint.load")
        wrap(recovery, "scan", "resilience.wal.scan")
        self._wrap_iter_records(recovery)

    def remove(self) -> None:
        """Put every original back (reverse order of installation)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patched)

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one recorded span adds to the call it wraps: a no-op
        timed bare and wrapped, in this process, after the run."""

        class Noop:
            def call(self) -> None:
                pass

        noop = Noop()
        seconds = []
        for wrapped in (False, True):
            if wrapped:
                self._wrap(Noop, "call", "calibration")
            start = _clock()
            for _ in range(calls):
                noop.call()
            seconds.append(_clock() - start)
        self._patched.pop()
        del self.log().spans[-calls:]
        return max(0.0, seconds[1] - seconds[0]) / calls

    # -------------------------------------------- wrappers with extra logic

    def _after_put(self, span: list, args: tuple, accepted: object) -> None:
        queue = args[0]
        # Unlocked reads of two ints: a stamp for dispatch.wake_*, not
        # accounting.  Holds while every batch is full, i.e. between
        # flushes of a queue whose warm-up was a whole number of batches.
        if accepted and queue.defer_dispatch and queue.accepted % queue.batch_size == 0:
            self._batch_ready_at.append(span[END])

    def _wrap_pending(self, queue_cls: type) -> None:
        """``queue.pending`` is a property that takes the queue lock, and
        ``ingest()``/``recommend()`` read it outside ``put()``: while an
        update holds the lock, this is where they wait."""
        original = _original(queue_cls, "pending")
        get_log = self.log

        def pending(queue):
            log = get_log()
            index = log.open("serve.ingest.pending")
            try:
                return original.fget(queue)
            finally:
                log.close(index)

        self._patch(queue_cls, "pending", property(pending, doc=original.__doc__))

    def _wrap_dispatch_next(self, queue_cls: type) -> None:
        original = _original(queue_cls, "dispatch_next")
        recorder = self

        def dispatch_next(queue):
            entered = _clock()
            log = recorder.log()
            index = log.open("serve.dispatch.dispatch_next")
            cut = 0
            try:
                cut = original(queue)
                return cut
            finally:
                span = log.close(index)
                if cut:
                    if recorder._batch_ready_at:
                        ready = recorder._batch_ready_at.popleft()
                        recorder.wake_waits.append(max(0.0, entered - ready))
                    _set(span, events=cut)
                else:
                    # idle polls carry no work: drop the span
                    del log.spans[index:]

        dispatch_next.__wrapped__ = original
        self._patch(queue_cls, "dispatch_next", dispatch_next)

    def _wrap_train_one_batch(self, trainer_cls: type) -> None:
        """Opens the synthetic ``serve.service.update`` span as well.

        The service's update (``_apply_batch``) is private, but it starts
        by calling ``train_one_batch`` and its timed part ends when
        ``index.invalidate`` returns, so the span from one to the other
        is the update as the service's own ``latency.update_seconds``
        histogram sees it.  ``_wrap_invalidate`` closes it.
        """
        original = _original(trainer_cls, "train_one_batch")
        recorder = self

        def train_one_batch(trainer, batch, *args, **kwargs):
            log = recorder.log()
            outer_request = log.request
            log.request = f"b{recorder.update_count}"
            recorder.update_count += 1
            update = log.open("serve.service.update")
            log.spans[update][EXTRA] = {"events": len(batch), "outer_request": outer_request}
            index = log.open("core.inslearn.batch")
            report = None
            try:
                report = original(trainer, batch, *args, **kwargs)
                return report
            finally:
                span = log.close(index)
                if report is None:  # failed update: nothing will close it
                    log.close(update)
                    log.request = outer_request
                else:
                    _set(span, iterations=report.iterations_run)

        train_one_batch.__wrapped__ = original
        self._patch(trainer_cls, "train_one_batch", train_one_batch)

    def _wrap_invalidate(self, index_cls: type) -> None:
        original = _original(index_cls, "invalidate")
        recorder = self

        def invalidate(index, *args, **kwargs):
            log = recorder.log()
            span_index = log.open("serve.index.invalidate")
            try:
                return original(index, *args, **kwargs)
            finally:
                log.close(span_index)
                parent = log.spans[span_index][PARENT]
                if parent >= 0 and log.spans[parent][NAME] == "serve.service.update":
                    update = log.close(parent)
                    log.request = update[EXTRA].pop("outer_request")

        invalidate.__wrapped__ = original
        self._patch(index_cls, "invalidate", invalidate)

    def _wrap_top_k(self, index_cls: type) -> None:
        original = _original(index_cls, "top_k")
        recorder = self

        def top_k(index, *args, **kwargs):
            log = recorder.log()
            span_index = log.open("serve.index.top_k")
            misses = index.misses  # only the driver thread queries
            try:
                return original(index, *args, **kwargs)
            finally:
                span = log.close(span_index)
                if index.misses != misses:
                    _set(span, miss=1)

        top_k.__wrapped__ = original
        self._patch(index_cls, "top_k", top_k)

    def _wrap_iter_records(self, recovery_module) -> None:
        """``iter_records`` is a generator: its work happens in ``next()``,
        so every resumption is timed and one span is recorded when the
        generator ends, with the summed busy time as its duration."""
        original = recovery_module.iter_records
        recorder = self

        def iter_records(*args, **kwargs):
            busy = 0.0
            first = _clock()
            records = original(*args, **kwargs)
            try:
                while True:
                    start = _clock()
                    try:
                        record = next(records)
                    except StopIteration:
                        busy += _clock() - start
                        return
                    busy += _clock() - start
                    yield record
            finally:
                log = recorder.log()
                parent = log.stack[-1] if log.stack else -1
                log.spans.append(
                    ["resilience.wal.scan", first, first + busy, parent, log.request,
                     {"generator_busy": 1}]
                )

        iter_records.__wrapped__ = original
        self._patch(recovery_module, "iter_records", iter_records)

    # ------------------------------------------------------------- results

    def spans(self) -> List[dict]:
        """All spans as dicts with globally unique ids (per-thread ids
        are offset; parents only ever point inside their own thread)."""
        out: List[dict] = []
        offset = 0
        with self._logs_lock:
            logs = list(self._logs)
        for log in logs:
            for i, span in enumerate(log.spans):
                record = {
                    "id": offset + i,
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": offset + span[PARENT] if span[PARENT] >= 0 else None,
                    "request": span[REQUEST],
                    "thread": log.thread_name,
                }
                if span[EXTRA]:
                    record.update(span[EXTRA])
                out.append(record)
            offset += len(log.spans)
        return out

    def dump(self, path: str, header: Dict[str, object]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": self.spans()}, fh)


def _original(owner: object, attr: str) -> object:
    """The function as the class (or module) holds it, unbound."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _set(span: list, **extra) -> None:
    if span[EXTRA] is None:
        span[EXTRA] = extra
    else:
        span[EXTRA].update(extra)


class Summary:
    """Busy seconds, calls and self time per span name over a window."""

    def __init__(self, spans: List[dict], windows: List[Tuple[float, float]]):
        def inside(span: dict) -> bool:
            return any(lo <= span["start"] < hi for lo, hi in windows)

        self.spans = [s for s in spans if inside(s)]
        self.busy: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.self_time: Dict[str, float] = {}
        child_cover: Dict[int, float] = {}
        for span in self.spans:
            duration = span["end"] - span["start"]
            name = span["name"]
            self.busy[name] = self.busy.get(name, 0.0) + duration
            self.calls[name] = self.calls.get(name, 0) + 1
            if span["parent"] is not None:
                child_cover[span["parent"]] = child_cover.get(span["parent"], 0.0) + duration
        for span in self.spans:
            own = (span["end"] - span["start"]) - child_cover.get(span["id"], 0.0)
            self.self_time[span["name"]] = self.self_time.get(span["name"], 0.0) + own

    def durations(self, name: str, **where) -> List[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in where.items())
        ]

    def total(self, name: str, field: str) -> float:
        return float(sum(s.get(field, 0) for s in self.spans if s["name"] == name))

    def child_coverage(self, name: str) -> float:
        """Share of ``name``'s duration that its child spans cover."""
        busy = self.busy.get(name, 0.0)
        return 1.0 - self.self_time.get(name, 0.0) / busy if busy > 0 else 0.0
