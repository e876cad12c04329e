"""Deterministic cost model translating engine mechanisms into service times.

The original demo measures wall-clock behaviour of two real MongoDB storage
engines.  Re-running real MongoDB is not possible here, so each simulated
engine charges a *service time* per operation derived from the mechanisms
that actually differentiate the engines:

* CPU cost per operation (B-tree traversal and compression for wiredTiger,
  cheaper in-memory offset chasing for mmapv1),
* I/O cost proportional to the bytes written to or read from "disk"
  (compressed for wiredTiger, padded and uncompressed for mmapv1), and
* cache behaviour (wiredTiger's block cache and mmapv1's reliance on the OS
  page cache, which degrades once the padded data set outgrows memory).

All parameters live in :class:`CostParameters` so ablation benchmarks can
vary them.  The numbers are calibrated to plausible commodity-hardware
magnitudes (tens of microseconds per in-memory operation, ~100 MB/s journal
bandwidth) -- absolute values are not meant to match the paper's testbed,
only the comparative shape.

**The clock counts integers.**  A simulated cost is an ``int`` number of
*ticks*, :data:`TICKS_PER_SECOND` to the second: a tick is a picosecond, and
the cheapest charge, one node access, is 1,500,000 of them.
:class:`CostParameters` stays in seconds -- it is the only set of cost
knobs -- and :class:`TickCosts` is its tick form, derived once per engine.
A product that is not a whole number of ticks (a per-kilobyte cost, mmapv1's
page-fault share of one) is rounded by the one rule :func:`kilobyte_ticks`
states: the exact rational, to the nearest tick, a half up.  An engine rounds
each such product once, where it computes an operation's cost; from there on
the cost is an ``int`` and is only ever added, and integer addition
associates -- a bill totals the same however it is grouped, by batch, shard,
thread or pass.  :meth:`CostAccumulator.charge` is the one way a cost is
recorded.

Seconds appear only where a cost is reported:
``OperationResult.simulated_seconds``, :meth:`CostAccumulator.snapshot` and
:attr:`CostAccumulator.total_seconds` (so ``statistics()["simulated_seconds"]``),
a profiler span's ``simulated_ms``, the balancer's and the maintenance
round's summaries, and whatever the workload runner and the agents report.
The planner's estimates (``explain``'s ``estimated_cost`` / ``lookup_cost``)
are ticks.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field, fields

#: Ticks of the simulated clock per second: one tick is a picosecond.
TICKS_PER_SECOND = 10 ** 12


def to_ticks(seconds: float) -> int:
    """A duration given in seconds (a cost knob, a network delay) in ticks."""
    return round(seconds * TICKS_PER_SECOND)


@dataclass(frozen=True)
class CostParameters:
    """Tunable constants of the engine cost model (all times in seconds)."""

    # Pure CPU cost of dispatching any operation.
    base_operation: float = 12e-6
    # CPU cost per B-tree node visited (wiredTiger) / extent hop (mmapv1).
    node_access: float = 1.5e-6
    # CPU cost of compressing/decompressing one kilobyte (wiredTiger only).
    compression_per_kb: float = 4e-6
    # Time to read one kilobyte from disk on a cache / page-cache miss.
    disk_read_per_kb: float = 90e-6
    # Time to append one kilobyte to the journal / data files.
    disk_write_per_kb: float = 35e-6
    # Extra cost when mmapv1 must relocate a document that outgrew its padding.
    document_move: float = 150e-6
    # Cost of updating one secondary index entry.
    index_maintenance: float = 6e-6
    # When > 0, every charge actually sleeps ``seconds * real_service_scale``
    # wall-clock time, turning simulated service time into real service time.
    # The sleep happens *while the caller's locks are held*, so lock
    # granularity genuinely drives multi-threaded wall-clock scaling: the
    # concurrency benchmark (E14) uses this to observe collection-level
    # writes flatline while document-level writes and latch-free reads
    # overlap.  Zero (the default) keeps every other benchmark and the test
    # suite instantaneous.
    real_service_scale: float = 0.0


@dataclass(frozen=True, slots=True)
class TickCosts:
    """The service times of :class:`CostParameters`, in whole ticks."""

    base_operation: int
    node_access: int
    compression_per_kb: int
    disk_read_per_kb: int
    disk_write_per_kb: int
    document_move: int
    index_maintenance: int

    @classmethod
    def of(cls, parameters: CostParameters) -> "TickCosts":
        return cls(**{each.name: to_ticks(getattr(parameters, each.name))
                      for each in fields(cls)})


def kilobyte_ticks(size_bytes: int, ticks_per_kb: int,
                   share: int = 1, of: int = 1) -> int:
    """What ``size_bytes`` cost at ``ticks_per_kb`` -- a size counts at least
    128 bytes, one sector -- times the fraction ``share / of``: the cost
    model's one rounding rule.  The exact rational is rounded to the nearest
    tick, a half up, in integer arithmetic."""
    denominator = 1024 * of
    return ((2 * max(size_bytes, 128) * ticks_per_kb * share + denominator)
            // (2 * denominator))


@dataclass
class CostAccumulator:
    """Aggregates simulated costs, in ticks, per operation type for an engine
    instance."""

    parameters: CostParameters = field(default_factory=CostParameters)
    totals: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Counter updates take this lock so concurrent charges never lose
        # increments; the optional real-time sleep happens *outside* it so
        # accounting never serialises the service time it is modelling.
        self._mutex = threading.Lock()

    def charge(self, operation: str, ticks: int, count: int = 1) -> int:
        """Record ``count`` operations of ``operation`` costing ``ticks`` in
        all (``count=0`` records nothing); returns ``ticks``.

        One write, a batch and a pass that bills itself when it ends all come
        through here.  With ``parameters.real_service_scale > 0`` the call
        also sleeps the scaled duration, releasing the GIL -- whatever locks
        the caller holds across this call are what limit concurrent
        throughput.
        """
        if not count:
            return 0
        with self._mutex:
            self.totals[operation] = self.totals.get(operation, 0) + ticks
            self.counts[operation] = self.counts.get(operation, 0) + count
        scale = self.parameters.real_service_scale
        if scale > 0.0 and ticks > 0:
            time.sleep(ticks / TICKS_PER_SECOND * scale)
        return ticks

    @property
    def total_seconds(self) -> float:
        with self._mutex:
            return sum(self.totals.values()) / TICKS_PER_SECOND

    def snapshot(self) -> dict[str, dict[str, float]]:
        with self._mutex:
            return {
                operation: {
                    "count": self.counts[operation],
                    "seconds": self.totals[operation] / TICKS_PER_SECOND,
                }
                for operation in sorted(self.totals)
            }


@dataclass(frozen=True)
class ConcurrencyProfile:
    """How an engine's throughput scales with concurrent client threads.

    ``serial_write_fraction`` is the fraction of a write operation's service
    time spent under the engine-wide exclusive lock.  For a collection-level
    locking engine this is ~1.0 (writes fully serialise); for document-level
    locking it is small (journal append and shared structures only).
    ``parallel_efficiency`` models per-thread bookkeeping overhead.
    """

    serial_write_fraction: float
    serial_read_fraction: float
    parallel_efficiency: float

    def speedup(self, threads: int, write_ratio: float, lanes: int = 1) -> float:
        """Return the effective speed-up factor at ``threads`` concurrent clients.

        This is an Amdahl-style model: the serial fraction of the workload is
        the service-time-weighted mix of the serialised parts of reads and
        writes.  The result is clamped to ``threads`` (can never exceed
        linear) and to at least 1.0.

        ``lanes`` is the number of independent servers the threads spread
        evenly over -- the shards of a cluster, or the readable secondaries
        of a replica set under ``read_preference="secondary"``.  Each lane
        applies the profile to its slice of the threads, and the total is
        capped by the thread count (a thread keeps one operation in flight).
        """
        if threads <= 1:
            return 1.0
        if lanes > 1:
            per_lane = self.speedup(max(1, math.ceil(threads / lanes)), write_ratio)
            return min(float(threads), per_lane * min(lanes, threads))
        serial = (
            write_ratio * self.serial_write_fraction
            + (1.0 - write_ratio) * self.serial_read_fraction
        )
        serial = min(max(serial, 0.0), 1.0)
        amdahl = 1.0 / (serial + (1.0 - serial) / threads)
        efficient = 1.0 + (amdahl - 1.0) * self.parallel_efficiency
        return max(1.0, min(float(threads), efficient))
