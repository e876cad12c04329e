"""The machine's speed during a run, read from a probe the program cannot change.

The sandbox the driver judges this benchmark on does not run at one speed: the
same code on the same tree took 11.4 us per read in one hour and 15 us in
another, and within one run the median read of consecutive half-second rounds
moved between 10.8 and 20.4 us.  Medians over a run's cycles ignore the short
stretches; nothing inside a 30-second run can ignore an hour that is slow as
a whole, and such an hour falling between a parent's runs and a change's
would read as a 30 % regression against a 10 % bound.

So a run samples a fixed probe between its slices and divides every time it
reports by the median sample -- one factor per run, applied where the metrics
are put together and nowhere else.  The probe has two halves because the host
disturbs two things separately: an arithmetic loop follows the core's speed,
a walk that copies rows scattered over a table larger than the caches follows
the memory system's.  The document store sits between the two, so the factor
is their geometric mean.  A half that takes 1 ms counts as speed 1: reported
times are wall-clock on a machine where both halves take 1 ms (this sandbox
class: about 1.0 and 1.5 ms), and ``machine_factor``, printed with every run,
turns them back into this run's raw wall-clock.
"""

from __future__ import annotations

import math
import random
import statistics
import time

_UNIT_SECONDS = 0.001
_SPINS = 20_000
_TABLE_ROWS = 20_000  # x 10 fields: ~10 MB of dictionaries
_WALK_ROWS = 1_500
#: Each half is the median of this many repeats, so that one preempted
#: repeat does not spoil the sample.
_REPEATS = 3


def _spin() -> float:
    start = time.perf_counter()
    total = 0
    for value in range(_SPINS):
        total += value * value % 7
    return time.perf_counter() - start


class MachineProbe:
    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = [{f"field{index}": row for index in range(10)}
                       for row in range(_TABLE_ROWS)]
        self._order = [rng.randrange(_TABLE_ROWS) for _ in range(_WALK_ROWS * 50)]
        self._position = 0
        self._samples: list[float] = []
        self.factors: list[float] = []  # every factor taken so far

    def _walk(self) -> float:
        table = self._table
        first = self._position
        self._position = (first + _WALK_ROWS) % len(self._order)
        start = time.perf_counter()
        total = 0
        for row in self._order[first:first + _WALK_ROWS]:
            total += len(dict(table[row]))
        return time.perf_counter() - start

    def sample(self) -> None:
        spin = statistics.median(_spin() for _ in range(_REPEATS))
        walk = statistics.median(self._walk() for _ in range(_REPEATS))
        self._samples.append(math.sqrt(spin * walk) / _UNIT_SECONDS)

    def take(self) -> float:
        """The median of the samples since the last call: how many times
        slower than the unit machine this one ran meanwhile."""
        factor = statistics.median(self._samples)
        self._samples.clear()
        self.factors.append(factor)
        return factor
