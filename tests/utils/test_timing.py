"""Tests for the timing helpers."""

from repro.utils.timing import Stopwatch


class TestStopwatch:
    def test_elapsed_non_negative(self):
        with Stopwatch() as watch:
            sum(range(100))
        assert watch.elapsed >= 0.0

    def test_lap_without_start(self):
        assert Stopwatch().lap() == 0.0

    def test_restart_resets(self):
        watch = Stopwatch()
        with watch:
            sum(range(100))
        watch.restart()
        assert watch.elapsed == 0.0
        assert watch.lap() >= 0.0
