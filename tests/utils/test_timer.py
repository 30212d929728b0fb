"""Tests for timers."""

import time

from repro.utils.timer import Timer


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.01)
        with t:
            time.sleep(0.01)
        assert t.elapsed >= 0.02
        assert len(t.laps) == 2

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.elapsed == 0.0
        assert t.laps == []
