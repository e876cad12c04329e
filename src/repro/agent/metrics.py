"""Basic metrics measured by the agent library.

"the agent library already measures basic metrics which are returned to
Chronos Control along with the results" (Section 2.2).  The measurement
object tracks execution time per phase and arbitrary counters, and produces
the flat metric dictionary attached to every uploaded result.
"""

from __future__ import annotations

from repro.util.clock import Clock, Stopwatch


class AgentMetrics:
    """Collects phase timings and counters during a job execution."""

    def __init__(self, clock: Clock):
        self._clock = clock
        self._phase_watches: dict[str, Stopwatch] = {}
        self._counters: dict[str, float] = {}

    # -- phase timing --------------------------------------------------------------

    def start_phase(self, name: str) -> None:
        """Start (or restart) timing the phase ``name``."""
        self._phase_watches[name] = Stopwatch(self._clock).start()

    def stop_phase(self, name: str) -> float:
        """Stop timing ``name`` and return the elapsed seconds."""
        watch = self._phase_watches.get(name)
        if watch is None:
            return 0.0
        return watch.stop()

    # -- counters ---------------------------------------------------------------------

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter ``name``."""
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def set(self, name: str, value: float) -> None:
        """Set the counter ``name`` to ``value``."""
        self._counters[name] = float(value)

    def get(self, name: str, default: float = 0.0) -> float:
        return self._counters.get(name, default)

    # -- export -----------------------------------------------------------------------

    def as_dict(self) -> dict[str, float]:
        """Flat metric dictionary: counters plus ``<phase>_seconds`` entries."""
        metrics = dict(self._counters)
        for name, watch in self._phase_watches.items():
            metrics[f"{name}_seconds"] = watch.elapsed
        return metrics
