"""Chunk bookkeeping for sharded namespaces.

A sharded collection's key space is partitioned into *chunks*, each owned by
exactly one shard.  Chunks live in a *routing space*:

* ``hash`` strategy: the routing point of a document is a deterministic
  64-bit hash of its shard-key value, so consecutive keys spread evenly
  across shards from the first insert (MongoDB's hashed shard keys).
* ``range`` strategy: the routing point is the raw shard-key value itself,
  which keeps key ranges together (range scans stay local) at the price of
  starting as one chunk that only spreads after splits and migrations.

The :class:`ChunkManager` owns the ordered chunk list of one namespace and
enforces the core invariant: chunks are contiguous, non-overlapping and
cover the whole routing space, so every key is owned by exactly one chunk.
Splitting is data driven -- callers hand the manager the routing points
actually present and oversized chunks are split at their median point, the
same shape as MongoDB's ``splitVector``.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any

from repro.docstore.predicates import Interval
from repro.errors import DocumentStoreError

HASH_SPACE_BITS = 64
HASH_SPACE_SIZE = 1 << HASH_SPACE_BITS

STRATEGY_HASH = "hash"
STRATEGY_RANGE = "range"
STRATEGIES = (STRATEGY_HASH, STRATEGY_RANGE)


def hash_shard_key(value: Any) -> int:
    """Deterministic 64-bit routing hash of a shard-key value.

    ``repr`` plus md5 keeps the mapping stable across processes and runs
    (Python's built-in ``hash`` is salted for strings), which the seeded
    equivalence tests rely on.  Values the matcher treats as equal must
    land on one shard, or a query pinning the key would be sent past the
    document it matches: anything but a ``str`` or an ``int`` is hashed in
    its :func:`_canonical` form.
    """
    if type(value) is not str and type(value) is not int:
        value = _canonical(value)
    digest = hashlib.md5(repr(value).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _canonical(value: Any) -> Any:
    """One representative per class of values the matcher holds equal: an
    integral float is its int (``1.0 == 1``; ``True`` stays apart from ``1``,
    as in ``matching._scalar_equal``, because its ``repr`` differs) and a
    sub-document is its items sorted by key (as ``aggregation.group_token``
    orders them), recursively."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else value
    if isinstance(value, dict):
        return sorted((name, _canonical(item)) for name, item in value.items())
    if isinstance(value, list):
        return [_canonical(item) for item in value]
    return value


@dataclass(eq=False)
class Chunk:
    """One contiguous slice ``[lower, upper)`` of the routing space.

    ``None`` bounds are the open ends of the space (minus/plus infinity).
    Chunks compare (and hash) by identity: the manager owns the single
    authoritative instance of every chunk.
    """

    lower: Any
    upper: Any
    shard_id: int

    def covers(self, point: Any) -> bool:
        """True when ``point`` falls inside this chunk's half-open range."""
        if self.lower is not None and point < self.lower:
            return False
        if self.upper is not None and point >= self.upper:
            return False
        return True

    def describe(self) -> dict[str, Any]:
        return {"lower": self.lower, "upper": self.upper, "shard": self.shard_id}


def _overlaps(chunk: Chunk, interval: Interval) -> bool:
    """True when the half-open chunk ``[lower, upper)`` intersects ``interval``."""
    if interval.high is not None and chunk.lower is not None:
        if interval.high < chunk.lower:
            return False
        if interval.high == chunk.lower and not interval.high_inclusive:
            return False
    if interval.low is not None and chunk.upper is not None:
        if interval.low >= chunk.upper:  # upper bound is exclusive
            return False
    return True


class ChunkManager:
    """The chunk map of one sharded namespace.

    Args:
        shard_count: number of shards in the cluster (used for the initial
            hash pre-split and to validate migration targets).
        strategy: ``"hash"`` or ``"range"``.
        split_threshold: a chunk holding more than this many documents is
            split during maintenance.
    """

    def __init__(self, shard_count: int, strategy: str = STRATEGY_HASH,
                 split_threshold: int = 64):
        if strategy not in STRATEGIES:
            raise DocumentStoreError(
                f"unknown sharding strategy {strategy!r}; supported: {STRATEGIES}"
            )
        if shard_count <= 0:
            raise DocumentStoreError("shard_count must be positive")
        if split_threshold <= 1:
            raise DocumentStoreError("split_threshold must be greater than 1")
        self.strategy = strategy
        self.shard_count = shard_count
        self.split_threshold = split_threshold
        self.splits_performed = 0
        # The chunk map is published as one immutable snapshot: a tuple of
        # ``(chunks, lower bounds)`` where the bounds are the lower bounds of
        # every chunk after the first (all non-None), kept in step so point
        # lookups bisect instead of scanning.  Readers load ``_snapshot``
        # once and can never observe a half-applied split; mutations build
        # fresh tuples under ``_mutation_lock`` and publish them with a
        # single atomic assignment.
        initial = tuple(self._initial_chunks())
        self._snapshot: tuple[tuple[Chunk, ...], tuple[Any, ...]] = (
            initial, tuple(chunk.lower for chunk in initial[1:])
        )
        self._mutation_lock = threading.Lock()

    @property
    def _chunks(self) -> tuple["Chunk", ...]:
        """The current chunk tuple (one consistent snapshot read)."""
        return self._snapshot[0]

    # -- routing -----------------------------------------------------------------

    def routing_point(self, shard_key_value: Any) -> Any:
        """Map a shard-key value into the routing space."""
        if self.strategy == STRATEGY_HASH:
            return hash_shard_key(shard_key_value)
        return shard_key_value

    def locate(self, point: Any) -> tuple[int, Chunk]:
        """The unique chunk covering a routing *point*, and its position in
        :meth:`chunks`: one bisect on the published snapshot.  What every
        routed operation and every maintenance scan asks."""
        # One snapshot load covers both the chunk tuple and its bounds --
        # reading them as separate attributes could mix two generations of
        # the map during a concurrent split.
        chunks, lower_bounds = self._snapshot
        index = bisect_right(lower_bounds, point)
        chunk = chunks[index]
        if not chunk.covers(point):
            raise DocumentStoreError(
                f"no chunk covers routing point {point!r} (broken chunk map)"
            )
        return index, chunk

    def chunk_for(self, shard_key_value: Any) -> Chunk:
        """The unique chunk owning ``shard_key_value``."""
        return self.locate(self.routing_point(shard_key_value))[1]

    def shard_for(self, shard_key_value: Any) -> int:
        """The shard owning ``shard_key_value``."""
        # ``routing_point``, written out: every routed operation comes here.
        point = (hash_shard_key(shard_key_value)
                 if self.strategy == STRATEGY_HASH else shard_key_value)
        return self.locate(point)[1].shard_id

    def shards_for_interval(self, interval: Interval) -> set[int] | None:
        """Shards owning chunks that overlap ``interval`` of shard-key values.

        Only the ``range`` strategy can target intervals (its routing points
        *are* the key values, so chunk bounds and interval bounds live in the
        same space); for hashed namespaces -- or when the interval bounds are
        not comparable with the chunk bounds -- the method returns ``None``
        and the caller falls back to scatter-gather.
        """
        if self.strategy != STRATEGY_RANGE:
            return None
        shards: set[int] = set()
        try:
            for chunk in self._chunks:
                if _overlaps(chunk, interval):
                    shards.add(chunk.shard_id)
        except TypeError:
            return None
        return shards

    def chunks(self) -> list[Chunk]:
        """All chunks ordered by lower bound."""
        return list(self._chunks)

    def chunks_on(self, shard_id: int) -> list[Chunk]:
        return [chunk for chunk in self._chunks if chunk.shard_id == shard_id]

    def chunk_counts(self) -> dict[int, int]:
        """Number of chunks per shard (including chunk-less shards)."""
        counts = {shard_id: 0 for shard_id in range(self.shard_count)}
        for chunk in self._chunks:
            counts[chunk.shard_id] += 1
        return counts

    # -- splitting ------------------------------------------------------------------

    def split_oversized(self, points_by_chunk: dict[int, list[Any]]) -> int:
        """Split every chunk holding more than ``split_threshold`` points.

        ``points_by_chunk`` maps chunk list indexes (as returned by
        :meth:`chunks`) to the routing points currently stored in that
        chunk.  Splits repeat until no splittable chunk is oversized;
        both halves stay on the parent's shard (the balancer moves them
        later, as in MongoDB).  Returns the number of splits performed.
        """
        pending = [(self._chunks[index], points)
                   for index, points in points_by_chunk.items()]
        performed = 0
        while pending:
            chunk, points = pending.pop()
            if len(points) <= self.split_threshold:
                continue
            midpoint = self._median_split_point(points)
            if midpoint is None:
                continue  # all points equal: the chunk cannot be divided
            left, right = self._split_at(chunk, midpoint)
            performed += 1
            lower_points = [point for point in points if point < midpoint]
            upper_points = [point for point in points if point >= midpoint]
            pending.append((left, lower_points))
            pending.append((right, upper_points))
        self.splits_performed += performed
        return performed

    def _split_at(self, chunk: Chunk, midpoint: Any) -> tuple[Chunk, Chunk]:
        if not chunk.covers(midpoint) or midpoint == chunk.lower:
            raise DocumentStoreError(
                f"split point {midpoint!r} does not divide chunk "
                f"[{chunk.lower!r}, {chunk.upper!r})"
            )
        with self._mutation_lock:
            chunks, lower_bounds = self._snapshot
            index = chunks.index(chunk)
            left = Chunk(chunk.lower, midpoint, chunk.shard_id)
            right = Chunk(midpoint, chunk.upper, chunk.shard_id)
            self._snapshot = (
                chunks[:index] + (left, right) + chunks[index + 1:],
                lower_bounds[:index] + (midpoint,) + lower_bounds[index:],
            )
        return left, right

    @staticmethod
    def _median_split_point(points: list[Any]) -> Any | None:
        """The median routing point, or None when the points cannot be divided.

        The split point must be strictly greater than the smallest point so
        that both halves end up non-empty.
        """
        ordered = sorted(points)
        median = ordered[len(ordered) // 2]
        if median > ordered[0]:
            return median
        for point in ordered:
            if point > ordered[0]:
                return point
        return None

    # -- migrations -----------------------------------------------------------------

    def assign(self, chunk: Chunk, shard_id: int) -> None:
        """Record that ``chunk`` now lives on ``shard_id`` (used by the balancer).

        The in-place ``shard_id`` write is a single atomic attribute store,
        visible through every published snapshot that contains the chunk.
        """
        if not 0 <= shard_id < self.shard_count:
            raise DocumentStoreError(f"shard {shard_id} does not exist")
        if chunk not in self._chunks:
            raise DocumentStoreError("cannot assign a chunk this manager does not own")
        chunk.shard_id = shard_id

    # -- invariants ----------------------------------------------------------------

    def validate(self) -> None:
        """Assert the chunk map is contiguous and covers the whole space."""
        if not self._chunks:
            raise DocumentStoreError("chunk map is empty")
        if self._chunks[0].lower is not None or self._chunks[-1].upper is not None:
            raise DocumentStoreError("chunk map does not cover the open ends")
        for previous, current in zip(self._chunks, self._chunks[1:]):
            if previous.upper != current.lower:
                raise DocumentStoreError(
                    f"chunk map has a gap/overlap between {previous.upper!r} "
                    f"and {current.lower!r}"
                )

    def describe(self) -> list[dict[str, Any]]:
        """JSON-compatible chunk table (for stats and the CLI)."""
        return [chunk.describe() for chunk in self._chunks]

    # -- internals --------------------------------------------------------------------

    def _initial_chunks(self) -> list[Chunk]:
        if self.strategy == STRATEGY_RANGE or self.shard_count == 1:
            return [Chunk(None, None, 0)]
        # Hashed namespaces are pre-split into one even slice per shard so
        # load spreads before any maintenance has run.
        width = HASH_SPACE_SIZE // self.shard_count
        bounds = [index * width for index in range(1, self.shard_count)]
        chunks = []
        lower: Any = None
        for shard_id, upper in enumerate(bounds + [None]):
            chunks.append(Chunk(lower, upper, shard_id))
            lower = upper
        return chunks
