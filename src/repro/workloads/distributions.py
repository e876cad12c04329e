"""Key-access distributions used by the workload generators.

These follow the YCSB distribution family: uniform, zipfian (scrambled),
latest (zipfian over the most recently inserted keys) and hotspot.  All
generators draw from an explicit :class:`random.Random` so traces are
reproducible from the experiment parameters (requirement iv).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.errors import ValidationError

_ZIPFIAN_CONSTANT = 0.99


class KeyDistribution(ABC):
    """Draws integer keys in ``[0, item_count)``."""

    def __init__(self, item_count: int):
        if item_count <= 0:
            raise ValidationError("item_count must be positive")
        self.item_count = item_count

    @abstractmethod
    def next_key(self, rng: random.Random) -> int:
        """Draw the next key."""

    def grow(self, new_item_count: int) -> None:
        """Notify the distribution that the key space grew (after inserts)."""
        if new_item_count > self.item_count:
            self.item_count = new_item_count


class UniformGenerator(KeyDistribution):
    """Every key is equally likely."""

    def next_key(self, rng: random.Random) -> int:
        return rng.randrange(self.item_count)


class ZipfianGenerator(KeyDistribution):
    """Zipfian-distributed keys, scrambled over the key space.

    Uses the Gray/Jim analytic approximation used by YCSB: popular items are
    requested far more often than unpopular ones, with exponent
    ``theta`` = 0.99.  The raw zipfian rank is scrambled with a multiplicative
    hash so that popular keys are spread over the whole key space.
    """

    def __init__(self, item_count: int, theta: float = _ZIPFIAN_CONSTANT):
        super().__init__(item_count)
        self.theta = theta
        self._recompute(item_count)

    def _recompute(self, n: int) -> None:
        self._n = n
        self._zeta_n = _zeta(n, self.theta)
        self._zeta_2 = _zeta(2, self.theta)
        self._alpha = 1.0 / (1.0 - self.theta)
        self._eta = (1 - (2.0 / n) ** (1 - self.theta)) / (1 - self._zeta_2 / self._zeta_n)

    def grow(self, new_item_count: int) -> None:
        if new_item_count > self.item_count:
            super().grow(new_item_count)
            self._recompute(new_item_count)

    def next_rank(self, rng: random.Random) -> int:
        """Draw a zipfian rank (0 is the most popular item), unscrambled."""
        u = rng.random()
        uz = u * self._zeta_n
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + 0.5 ** self.theta:
            rank = 1
        else:
            rank = int(self._n * (self._eta * u - self._eta + 1) ** self._alpha)
        return min(rank, self._n - 1)

    def next_key(self, rng: random.Random) -> int:
        # Scramble so hot keys are spread across the key space.
        return (self.next_rank(rng) * 2654435761) % self.item_count


class LatestGenerator(ZipfianGenerator):
    """Skewed towards the most recently inserted keys (YCSB workload D).

    Rank 0 (the most popular rank) maps onto the newest key, rank 1 onto the
    second newest, and so on -- without scrambling, so recency is preserved.
    """

    def next_key(self, rng: random.Random) -> int:
        rank = self.next_rank(rng) % self.item_count
        return (self.item_count - 1) - rank


class HotspotGenerator(KeyDistribution):
    """A fraction of operations targets a small "hot" subset of the keys."""

    def __init__(self, item_count: int, hot_fraction: float = 0.2,
                 hot_operation_fraction: float = 0.8):
        super().__init__(item_count)
        if not 0 < hot_fraction <= 1 or not 0 <= hot_operation_fraction <= 1:
            raise ValidationError("hotspot fractions must lie in (0, 1]")
        self.hot_fraction = hot_fraction
        self.hot_operation_fraction = hot_operation_fraction

    def next_key(self, rng: random.Random) -> int:
        hot_count = max(1, int(self.item_count * self.hot_fraction))
        if rng.random() < self.hot_operation_fraction:
            return rng.randrange(hot_count)
        if hot_count >= self.item_count:
            return rng.randrange(self.item_count)
        return hot_count + rng.randrange(self.item_count - hot_count)


def make_distribution(name: str, item_count: int) -> KeyDistribution:
    """Factory: build a distribution by its YCSB-style name."""
    name = name.lower()
    if name == "uniform":
        return UniformGenerator(item_count)
    if name == "zipfian":
        return ZipfianGenerator(item_count)
    if name == "latest":
        return LatestGenerator(item_count)
    if name == "hotspot":
        return HotspotGenerator(item_count)
    raise ValidationError(f"unknown key distribution {name!r}")


def _zeta(n: int, theta: float) -> float:
    # Direct summation is fine for the item counts the benchmarks use; for
    # very large n an Euler-Maclaurin approximation keeps it cheap.
    if n <= 100000:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))
    head = sum(1.0 / (i ** theta) for i in range(1, 100001))
    # Integral approximation of the tail.
    tail = ((n ** (1 - theta)) - (100000 ** (1 - theta))) / (1 - theta)
    return head + tail
