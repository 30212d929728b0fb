"""Tests for timers."""

import time

import pytest

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

    def test_elapsed_is_the_sum_of_laps(self):
        t = Timer()
        for _ in range(3):
            with t:
                pass
        assert t.elapsed == sum(t.laps)

    def test_lap_recorded_when_the_body_raises(self):
        t = Timer()
        with pytest.raises(KeyError):
            with t:
                raise KeyError("boom")
        assert len(t.laps) == 1 and t.elapsed == t.laps[0] >= 0.0
