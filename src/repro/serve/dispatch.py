"""Async micro-batch dispatch: a worker thread drains the event queue.

Inline dispatch (the default) runs the whole train/publish step inside
the producer's ``put()`` call — correct, but past saturation the
producer pays queue wait *and* service time per event.  The
:class:`DispatchWorker` decouples them: with the queue in
``defer_dispatch`` mode, ``ingest()`` returns right after the
WAL-journaled accept decision and this thread drains ready micro-batches
via :meth:`EventQueue.dispatch_next`.

Parity argument (DESIGN.md §8): batch boundaries are cut by *count*
over the accepted FIFO in both modes, and the WAL journals every
boundary, so once the worker is closed and the queue flushed
(*quiescence*) the async run's state, RNG positions and served top-K
are bitwise identical to the inline run over the same accepted events.
The worker adds no randomness and no clock reads of its own.

Failure routing: an exception escaping ``dispatch_next`` — e.g. a WAL
append failure while journaling a batch cut, which the inline path
would raise into the producer — lands in the ``on_error`` callback so
the service can count it toward the circuit breaker; the worker itself
never dies, it backs off to its poll interval (a paused queue yields no
batches, so an open breaker idles the thread at no cost).

Owner gone: the worker holds the queue, not the service, so a service
dropped without ``close()`` stops it through :meth:`stop`, which only
*signals* — it may run on any thread, the worker's own included — and
the worker checks the flag between batches as well as between polls.
Batches still buffered stay journaled for ``recover()``.

The worker's lock is leaf-like: never held while calling into the
queue, so the lock hierarchy (DESIGN.md §12) gains no new edges.
``dispatch_next`` itself trains under the queue's dispatch mutex with
the queue lock released, so producers and readers never wait on the
batch this thread is training.  Wake-ups use a dedicated :class:`threading.Event` — not a
condition on the queue's lock — plus a poll timeout as a liveness
backstop.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.serve.ingest import EventQueue

#: idle wake-up interval — the liveness backstop when no ``notify()``
#: arrives (``poll_seconds`` is per instance, so a test can shorten it
#: before the first ``start()``)
POLL_SECONDS = 0.05


class DispatchWorker:
    """Drain ready micro-batches from an :class:`EventQueue` on a thread.

    Parameters
    ----------
    queue:
        The queue to drain; normally constructed with
        ``defer_dispatch=True`` (the worker also composes with inline
        dispatch, where it simply finds nothing ready).
    on_error:
        Called with any exception escaping a dispatch round (see module
        docstring); exceptions it raises itself are swallowed.
    """

    def __init__(
        self,
        queue: EventQueue,
        on_error: Optional[Callable[[Exception], None]] = None,
    ):
        self._queue = queue
        self.poll_seconds = POLL_SECONDS
        self._on_error = on_error
        # Guards lifecycle state (_thread, _closing) and the drain
        # tallies.  Leaf lock by contract: never held across a call
        # into the queue, the handler or the error callback.
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._closing = False
        self.batches = 0
        self.events = 0
        self.errors = 0

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "DispatchWorker":
        """Start the worker thread (idempotent while running)."""
        with self._lock:
            if self._thread is not None:
                return self
            self._closing = False
            thread = threading.Thread(
                target=self._run, name="repro-dispatch", daemon=True
            )
            self._thread = thread
        thread.start()
        return self

    def close(self) -> None:
        """Stop the worker and join it (idempotent).

        Any micro-batches that became ready during shutdown are
        dispatched on the caller's thread, so close leaves at most a
        partial batch behind — exactly what a final ``flush()`` clears.
        The close/flush pair is the quiescence contract the parity gate
        relies on.
        """
        with self._lock:
            thread = self._thread
            if thread is None:
                return
            self._closing = True
        self._wake.set()
        thread.join()
        self._drain()
        with self._lock:
            self._thread = None

    def stop(self) -> None:
        """Signal the worker to exit; never joins and never drains.

        The finaliser of a service dropped without ``close()`` calls
        this, possibly on the worker thread itself, once the handler's
        target is gone: any batch cut now would die in a
        ``ReferenceError``, so the buffered events stay in the queue
        (and in the WAL, for ``recover()``).
        """
        with self._lock:
            self._closing = True
        self._wake.set()

    def notify(self) -> None:
        """Nudge the worker (cheap; called after every accepted event)."""
        self._wake.set()

    # ------------------------------------------------------------ the thread

    def _run(self) -> None:
        while True:
            # closing is checked *before* draining so a ``close`` wake-up
            # dispatches nothing: the closer's thread drains the buffered
            # batches after the join.
            with self._lock:
                if self._closing:
                    return
            drained = self._drain()
            if drained == 0:
                # nothing ready: sleep until a notify or the poll tick
                self._wake.wait(self.poll_seconds)
                self._wake.clear()

    def _drain(self) -> int:
        """Dispatch ready batches until the queue yields none (or, on
        the worker thread, until the worker is told to stop); returns
        events drained.  Runs on the worker thread and, during
        ``close()``, once on the closer's thread — never
        concurrently, because close joins the worker first."""
        total = 0
        while True:
            try:
                n = self._queue.dispatch_next()
            except Exception as exc:
                with self._lock:
                    self.errors += 1
                handler = self._on_error
                if handler is not None:
                    try:
                        handler(exc)
                    except Exception:
                        # error routing must not kill the worker; a
                        # failing callback is itself a dispatch error
                        with self._lock:
                            self.errors += 1
                return total
            if n == 0:
                return total
            total += n
            with self._lock:
                self.batches += 1
                self.events += n
                if self._closing and threading.current_thread() is self._thread:
                    return total
