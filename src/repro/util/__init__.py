"""Shared utilities: identifiers and tokens, clocks, statistics and validation."""

from repro.util.clock import Clock, SimulatedClock, SystemClock
from repro.util.ids import new_token
from repro.util.stats import mean, percentile
from repro.util.validation import ensure_non_empty

__all__ = [
    "Clock",
    "SimulatedClock",
    "SystemClock",
    "new_token",
    "mean",
    "percentile",
    "ensure_non_empty",
]
