"""Tests for the clock abstraction and stopwatch."""

from __future__ import annotations

import pytest

from repro.util.clock import SimulatedClock, Stopwatch, SystemClock


class TestSimulatedClock:
    def test_starts_at_configured_time(self):
        assert SimulatedClock().now() == 0.0
        assert SimulatedClock(start=100.0).now() == 100.0

    def test_advance_moves_time_forward(self):
        clock = SimulatedClock()
        clock.advance(5.0)
        assert clock.now() == 5.0

    def test_sleep_advances_without_blocking(self):
        clock = SimulatedClock()
        clock.sleep(3600.0)
        assert clock.now() == 3600.0

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1.0)


class TestSystemClock:
    def test_now_is_monotonic(self):
        clock = SystemClock()
        first = clock.now()
        second = clock.now()
        assert second >= first

    def test_sleep_accepts_zero_and_negative(self):
        clock = SystemClock()
        clock.sleep(0)
        clock.sleep(-1)  # must not raise


class TestStopwatch:
    def test_measures_elapsed_simulated_time(self):
        clock = SimulatedClock()
        watch = Stopwatch(clock).start()
        clock.advance(4.0)
        assert watch.stop() == pytest.approx(4.0)

    def test_elapsed_while_running(self):
        clock = SimulatedClock()
        watch = Stopwatch(clock).start()
        clock.advance(1.5)
        assert watch.elapsed == pytest.approx(1.5)

    def test_accumulates_across_start_stop_cycles(self):
        clock = SimulatedClock()
        watch = Stopwatch(clock)
        watch.start()
        clock.advance(1.0)
        watch.stop()
        watch.start()
        clock.advance(2.0)
        assert watch.stop() == pytest.approx(3.0)

    def test_context_manager(self):
        clock = SimulatedClock()
        with Stopwatch(clock) as watch:
            clock.advance(2.0)
        assert watch.elapsed == pytest.approx(2.0)

    def test_stop_without_start_returns_zero(self):
        assert Stopwatch(SimulatedClock()).stop() == 0.0
