"""Clock abstraction used throughout the toolkit.

Chronos itself timestamps events, measures job durations and enforces
heartbeat timeouts.  The original system uses wall-clock time; a reproduction
that benchmarks simulated database engines needs a *controllable* clock so
that runs are fast and deterministic.  Two implementations are provided:

* :class:`SystemClock` -- thin wrapper over :func:`time.monotonic` /
  :func:`time.time`.
* :class:`SimulatedClock` -- a manually advanced virtual clock whose ``sleep``
  simply moves time forward.  All simulated costs (storage engine latencies,
  agent work) advance this clock instead of blocking the process.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod


class Clock(ABC):
    """Interface for obtaining timestamps and waiting."""

    @abstractmethod
    def now(self) -> float:
        """Return the current time in seconds (monotonic within one run)."""

    @abstractmethod
    def sleep(self, seconds: float) -> None:
        """Advance time by ``seconds``."""


class SystemClock(Clock):
    """Wall-clock implementation backed by :mod:`time`."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class SimulatedClock(Clock):
    """A virtual clock advanced explicitly or via :meth:`sleep`.

    The clock is thread-safe: concurrent agents executing simulated work can
    all advance it.  ``sleep`` never blocks the calling thread.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        with self._lock:
            self._now += seconds
            return self._now


class Stopwatch:
    """Measures elapsed time against any :class:`Clock`."""

    def __init__(self, clock: Clock):
        self._clock = clock
        self._start: float | None = None
        self._elapsed = 0.0

    def start(self) -> "Stopwatch":
        self._start = self._clock.now()
        return self

    def stop(self) -> float:
        """Stop the watch and return total elapsed seconds."""
        if self._start is not None:
            self._elapsed += self._clock.now() - self._start
            self._start = None
        return self._elapsed

    @property
    def elapsed(self) -> float:
        """Elapsed seconds so far without stopping the watch."""
        if self._start is None:
            return self._elapsed
        return self._elapsed + (self._clock.now() - self._start)

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
