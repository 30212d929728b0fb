"""Wall-clock timing helpers for the benchmark harnesses."""

from __future__ import annotations

import time
from typing import List


class Timer:
    """Accumulating stopwatch usable as a context manager.

    >>> t = Timer()
    >>> with t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.laps: List[float] = []
        self._start: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        lap = time.perf_counter() - self._start
        self.elapsed += lap
        self.laps.append(lap)
