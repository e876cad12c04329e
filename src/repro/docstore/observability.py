"""Operation profiler, slow-op log, and unified metrics registry.

This module is the observability substrate for the whole stack (PR 8):

* :class:`MetricsRegistry` -- thread-safe counters, gauges, and fixed-bucket
  latency histograms with interpolated p50/p95/p99.  Every
  :class:`~repro.docstore.server.DocumentServer` owns one; replica sets and
  sharded clusters aggregate their members' registries with
  :meth:`MetricsRegistry.merge`.
* :class:`Profiler` / :class:`ProfiledOp` -- every collection and router
  operation runs inside a span capturing the op type, namespace, query
  shape, winning access path, plan-cache state, docs examined vs returned,
  per-thread lock wait, per-shard child spans, and both the simulated and
  wall-clock duration.  Completed spans whose *simulated* duration exceeds
  ``slow_ms`` land in a bounded ring buffer (the ``system.profile`` analog).
* :class:`MetricsSampler` -- an FTDC-style periodic snapshotter that the
  workload runner pumps between operations into a bounded in-memory series.

Profiling levels mirror MongoDB's profiler:

====== =========================================================
level  behaviour
====== =========================================================
0      off -- operations pay only a single ``profiler.enabled``
       branch check (the default; E16 gates its cost at <= 5%)
1      metrics + spans recorded; only ops slower than ``slow_ms``
       (simulated milliseconds) enter the slow-op log
2      metrics + spans recorded; every op enters the slow-op log
       (``slow_ms`` still stored on each entry for reference)
====== =========================================================

Slowness is judged on the *simulated* duration because simulated seconds
are the repo's canonical, deterministic latency axis; the wall-clock
duration is captured on every span as supporting evidence.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import Any, Callable, Iterator

from repro.errors import ValidationError

PROFILE_OFF = 0
PROFILE_SLOW_ONLY = 1
PROFILE_ALL = 2

_PROFILE_LEVELS = (PROFILE_OFF, PROFILE_SLOW_ONLY, PROFILE_ALL)

#: Geometric histogram bucket upper bounds, in milliseconds.  The range spans
#: sub-microsecond simulated point reads up to one-second stalls; the final
#: implicit bucket is +inf.
HISTOGRAM_BUCKETS_MS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram (milliseconds) with percentile estimates.

    Not thread-safe on its own; the owning :class:`MetricsRegistry` guards
    all access with its lock.
    """

    __slots__ = ("counts", "count", "sum_ms", "min_ms", "max_ms")

    def __init__(self) -> None:
        self.counts = [0] * (len(HISTOGRAM_BUCKETS_MS) + 1)
        self.count = 0
        self.sum_ms = 0.0
        self.min_ms = float("inf")
        self.max_ms = 0.0

    def observe(self, value_ms: float) -> None:
        index = 0
        for bound in HISTOGRAM_BUCKETS_MS:
            if value_ms <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.sum_ms += value_ms
        if value_ms < self.min_ms:
            self.min_ms = value_ms
        if value_ms > self.max_ms:
            self.max_ms = value_ms

    def percentile(self, rank: float) -> float:
        """Estimate the ``rank``-th percentile from the bucket counts.

        Uses linear interpolation inside the bucket containing the target
        observation; the overflow bucket reports the recorded maximum.
        """
        if not self.count:
            return 0.0
        target = rank / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                if index >= len(HISTOGRAM_BUCKETS_MS):
                    return self.max_ms
                upper = HISTOGRAM_BUCKETS_MS[index]
                lower = HISTOGRAM_BUCKETS_MS[index - 1] if index else 0.0
                fraction = (target - previous) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        return self.max_ms

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum_ms": self.sum_ms,
            "min_ms": 0.0 if self.count == 0 else self.min_ms,
            "max_ms": self.max_ms,
            "p50_ms": self.percentile(50.0),
            "p95_ms": self.percentile(95.0),
            "p99_ms": self.percentile(99.0),
            "buckets": list(self.counts),
        }

    @classmethod
    def from_buckets(cls, snapshots: list[dict[str, Any]]) -> "LatencyHistogram":
        """Rebuild a histogram by summing bucket counts from snapshots."""
        merged = cls()
        for snap in snapshots:
            buckets = snap.get("buckets") or []
            for index, bucket_count in enumerate(buckets):
                if index < len(merged.counts):
                    merged.counts[index] += bucket_count
            merged.count += snap.get("count", 0)
            merged.sum_ms += snap.get("sum_ms", 0.0)
            if snap.get("count", 0):
                merged.min_ms = min(merged.min_ms, snap.get("min_ms", 0.0))
                merged.max_ms = max(merged.max_ms, snap.get("max_ms", 0.0))
        return merged


class MetricsRegistry:
    """Thread-safe named counters, gauges, and latency histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    def increment(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value_ms: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
            histogram.observe(value_ms)

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.snapshot()
                    for name, histogram in sorted(self._histograms.items())
                },
            }

    @staticmethod
    def merge(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
        """Combine registry snapshots: counters and histogram buckets sum,
        percentiles are recomputed from the merged buckets, gauges keep the
        last writer (and are suffixed by source when callers care)."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histogram_parts: dict[str, list[dict[str, Any]]] = {}
        for snap in snapshots:
            for name, value in snap.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            gauges.update(snap.get("gauges", {}))
            for name, hist in snap.get("histograms", {}).items():
                histogram_parts.setdefault(name, []).append(hist)
        histograms = {
            name: LatencyHistogram.from_buckets(parts).snapshot()
            for name, parts in sorted(histogram_parts.items())
        }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


class ProfiledOp:
    """One profiled operation span.

    Mutable while in flight; :meth:`as_dict` renders the immutable record
    that enters the slow-op log.  Times are kept in two axes: simulated
    milliseconds (``simulated_ms``, the deterministic cost-model duration)
    and wall-clock milliseconds (``duration_ms``).
    """

    __slots__ = (
        "op", "namespace", "shape", "opid", "thread", "started",
        "duration_ms", "simulated_ms", "access_path", "plan_cache",
        "docs_examined", "docs_returned", "matched", "modified", "deleted",
        "inserted", "lock_wait_ms", "children", "parallel", "straggler",
        "targeting", "errored", "source",
    )

    def __init__(self, op: str, namespace: str, shape: str | None,
                 opid: int, thread: str) -> None:
        self.op = op
        self.namespace = namespace
        self.shape = shape
        self.opid = opid
        self.thread = thread
        self.started = time.perf_counter()
        self.duration_ms = 0.0
        self.simulated_ms = 0.0
        self.access_path: str | None = None
        self.plan_cache: str | None = None
        self.docs_examined = 0
        self.docs_returned = 0
        self.matched = 0
        self.modified = 0
        self.deleted = 0
        self.inserted = 0
        self.lock_wait_ms = 0.0
        self.children: list[dict[str, Any]] = []
        self.parallel = False
        self.straggler: str | None = None
        self.targeting: str | None = None
        self.errored: str | None = None
        self.source: str | None = None

    # -- in-flight mutation ----------------------------------------------------

    def note_plan(self, access_path: str, cache_state: str | None = None) -> None:
        self.access_path = access_path
        if cache_state is not None:
            self.plan_cache = cache_state

    def note_result(self, result: Any) -> None:
        """Absorb an operation's outcome: a count, a list of values (both
        cost-free), or an OperationResult-shaped object's counters."""
        if isinstance(result, (int, list)):
            self.docs_returned = result if isinstance(result, int) else len(result)
            return
        self.simulated_ms = result.simulated_seconds * 1000.0
        self.matched = result.matched_count
        self.modified = result.modified_count
        self.deleted = result.deleted_count
        if result.inserted_ids:
            self.inserted = len(result.inserted_ids)
        if result.documents is not None:
            self.docs_returned = len(result.documents)

    def note_simulated(self, seconds: float) -> None:
        self.simulated_ms = seconds * 1000.0

    def add_child(self, name: str, simulated_seconds: float,
                  **extra: Any) -> None:
        child = {"shard": name, "simulated_ms": simulated_seconds * 1000.0}
        child.update(extra)
        self.children.append(child)

    def add_shard_children(self, shard_costs: dict[str, float],
                           parallel: bool,
                           wall_seconds: dict[str, float] | None = None) -> None:
        """Synthesise per-shard child spans from an OperationResult's
        ``shard_costs`` breakdown.  ``parallel`` records whether the parent
        duration combines children by max (fan-out) or sum (serial).

        ``wall_seconds`` carries the *measured* per-shard wall-clock of a
        real fan-out dispatch (``OperationResult.shard_wall_seconds``);
        when present each child also reports ``wall_ms``, and the straggler
        is the shard with the largest measured wall-clock.  Without
        measurements (single-shard ops, synthetic spans) the straggler
        falls back to the largest simulated cost, which keeps it
        deterministic for simulated-only workloads."""
        self.parallel = parallel
        wall_seconds = wall_seconds or {}
        for name in sorted(shard_costs):
            if name in wall_seconds:
                self.add_child(name, shard_costs[name],
                               wall_ms=wall_seconds[name] * 1000.0)
            else:
                self.add_child(name, shard_costs[name])
        shard_children = [c for c in self.children
                          if c["shard"] != "balancer"]
        if parallel and shard_children:
            measured = [c for c in shard_children if "wall_ms" in c]
            if measured:
                slowest = max(measured, key=lambda c: c["wall_ms"])
            else:
                slowest = max(shard_children, key=lambda c: c["simulated_ms"])
            self.straggler = slowest["shard"]

    # -- rendering -------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "op": self.op,
            "ns": self.namespace,
            "opid": self.opid,
            "thread": self.thread,
            "started": self.started,
            "duration_ms": self.duration_ms,
            "simulated_ms": self.simulated_ms,
            "docs_examined": self.docs_examined,
            "docs_returned": self.docs_returned,
            "lock_wait_ms": self.lock_wait_ms,
        }
        if self.shape is not None:
            record["shape"] = self.shape
        if self.access_path is not None:
            record["access_path"] = self.access_path
        if self.plan_cache is not None:
            record["plan_cache"] = self.plan_cache
        if self.matched:
            record["matched"] = self.matched
        if self.modified:
            record["modified"] = self.modified
        if self.deleted:
            record["deleted"] = self.deleted
        if self.inserted:
            record["inserted"] = self.inserted
        if self.children:
            record["shards"] = list(self.children)
            record["parallel"] = self.parallel
        if self.straggler is not None:
            record["straggler"] = self.straggler
        if self.targeting is not None:
            record["targeting"] = self.targeting
        if self.errored is not None:
            record["errored"] = self.errored
        if self.source is not None:
            record["source"] = self.source
        return record


class Profiler:
    """Per-server operation profiler with a bounded slow-op log.

    ``enabled`` is a plain attribute so the instrumented hot paths pay only
    an attribute load and branch when profiling is off (level 0).
    """

    DEFAULT_CAPACITY = 256

    def __init__(self, registry: MetricsRegistry | None = None,
                 level: int = PROFILE_OFF, slow_ms: float = 100.0,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.level = level
        self.enabled = level > PROFILE_OFF
        self.slow_ms = slow_ms
        self._lock = threading.Lock()
        self._slow_ops: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._in_flight: dict[int, ProfiledOp] = {}
        self._top: dict[str, dict[str, list[float]]] = {}
        self._opid = itertools.count(1)
        self.slow_ops_recorded = 0
        self.slow_ops_dropped = 0

    # -- configuration ---------------------------------------------------------

    def set_profiling(self, level: int, slow_ms: float | None = None,
                      capacity: int | None = None) -> dict[str, Any]:
        if level not in _PROFILE_LEVELS:
            raise ValidationError(f"profiling level must be 0, 1, or 2, got {level!r}")
        was = self.level
        with self._lock:
            self.level = level
            self.enabled = level > PROFILE_OFF
            if slow_ms is not None:
                self.slow_ms = float(slow_ms)
            if capacity is not None and capacity != self._slow_ops.maxlen:
                self._slow_ops = deque(self._slow_ops, maxlen=capacity)
        return {"was": was, "level": self.level, "slowms": self.slow_ms}

    # -- span lifecycle --------------------------------------------------------

    def start(self, op: str, namespace: str, shape: str | None = None) -> ProfiledOp:
        span = ProfiledOp(op, namespace, shape, next(self._opid),
                          threading.current_thread().name)
        with self._lock:
            self._in_flight[span.opid] = span
        return span

    def finish(self, span: ProfiledOp) -> None:
        span.duration_ms = (time.perf_counter() - span.started) * 1000.0
        record = span.as_dict()
        slow = span.simulated_ms > self.slow_ms
        registry = self.registry
        registry.increment(f"operations.{span.op}")
        registry.observe(f"latency.{span.op}", span.simulated_ms)
        if span.lock_wait_ms:
            registry.observe("lock_wait", span.lock_wait_ms)
        if span.errored is not None:
            registry.increment(f"errors.{span.op}")
        with self._lock:
            self._in_flight.pop(span.opid, None)
            per_ns = self._top.setdefault(span.namespace, {})
            entry = per_ns.setdefault(span.op, [0, 0.0])
            entry[0] += 1
            entry[1] += span.simulated_ms
            if self.level >= PROFILE_ALL or (self.level >= PROFILE_SLOW_ONLY and slow):
                if len(self._slow_ops) == self._slow_ops.maxlen:
                    self.slow_ops_dropped += 1
                self._slow_ops.append(record)
                self.slow_ops_recorded += 1
                if slow:
                    registry.increment("slow_ops")

    def operation(self, op: str, namespace: str,
                  shape: str | None = None) -> "_SpanContext":
        """Context manager: start a span, finish it on exit, mark errors."""
        return _SpanContext(self, op, namespace, shape)

    # -- reporting -------------------------------------------------------------

    def current_ops(self) -> list[dict[str, Any]]:
        now = time.perf_counter()
        with self._lock:
            spans = list(self._in_flight.values())
        report = []
        for span in spans:
            report.append({
                "opid": span.opid,
                "op": span.op,
                "ns": span.namespace,
                "shape": span.shape,
                "thread": span.thread,
                "running_ms": (now - span.started) * 1000.0,
            })
        return report

    def slow_ops(self, limit: int | None = None) -> list[dict[str, Any]]:
        with self._lock:
            entries = list(self._slow_ops)
        if limit is not None:
            entries = entries[-limit:]
        return entries

    def top(self) -> dict[str, dict[str, dict[str, float]]]:
        with self._lock:
            return {
                namespace: {
                    op: {"count": entry[0], "simulated_ms": entry[1]}
                    for op, entry in sorted(ops.items())
                }
                for namespace, ops in sorted(self._top.items())
            }

    def describe(self) -> dict[str, Any]:
        return {
            "level": self.level,
            "slowms": self.slow_ms,
            "slow_ops_recorded": self.slow_ops_recorded,
            "slow_ops_dropped": self.slow_ops_dropped,
            "in_flight": len(self._in_flight),
        }

    def reset(self) -> None:
        with self._lock:
            self._slow_ops.clear()
            self._top.clear()
            self.slow_ops_recorded = 0
            self.slow_ops_dropped = 0


class _SpanContext:
    """Context manager wrapper produced by :meth:`Profiler.operation`."""

    __slots__ = ("_profiler", "_op", "_namespace", "_shape", "span")

    def __init__(self, profiler: Profiler, op: str, namespace: str,
                 shape: str | None) -> None:
        self._profiler = profiler
        self._op = op
        self._namespace = namespace
        self._shape = shape
        self.span: ProfiledOp | None = None

    def __enter__(self) -> ProfiledOp:
        self.span = self._profiler.start(self._op, self._namespace, self._shape)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self.span
        if span is not None:
            if exc is not None:
                span.errored = type(exc).__name__
            self._profiler.finish(span)
        return False


class MetricsSampler:
    """FTDC-style periodic metrics snapshotter.

    Callers pump :meth:`maybe_sample` from their work loop (the workload
    runner does this between operations); a sample is only taken when
    ``interval_seconds`` have elapsed since the last one.  The series is
    bounded: the oldest samples fall off once ``max_samples`` is reached.
    """

    def __init__(self, snapshot_fn: Callable[[], dict[str, Any]],
                 interval_seconds: float = 1.0, max_samples: int = 600) -> None:
        if interval_seconds <= 0:
            raise ValidationError("sampler interval must be positive")
        if max_samples <= 0:
            raise ValidationError("sampler max_samples must be positive")
        self._snapshot_fn = snapshot_fn
        self.interval_seconds = interval_seconds
        self._samples: deque[dict[str, Any]] = deque(maxlen=max_samples)
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._last_sample = float("-inf")

    def maybe_sample(self) -> bool:
        now = time.perf_counter()
        with self._lock:
            if now - self._last_sample < self.interval_seconds:
                return False
            self._last_sample = now
        self._take(now)
        return True

    def sample(self) -> dict[str, Any]:
        now = time.perf_counter()
        with self._lock:
            self._last_sample = now
        return self._take(now)

    def _take(self, now: float) -> dict[str, Any]:
        entry = {
            "elapsed_seconds": now - self._epoch,
            "metrics": self._snapshot_fn(),
        }
        with self._lock:
            self._samples.append(entry)
        return entry

    def series(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._samples)

    def as_dict(self) -> dict[str, Any]:
        return {
            "interval_seconds": self.interval_seconds,
            "samples": self.series(),
        }


def render_query_shape(query: Any) -> str:
    """A human-readable query/pipeline shape: structure and operators are
    preserved, operand values are replaced by type markers (``#`` number,
    ``s`` string, ``b`` bool, ``n`` null, ``L`` list, ``D`` document) so
    spans group by shape without leaking operand values."""
    return json.dumps(_shape_of(query), sort_keys=True, default=str,
                      separators=(",", ":"))


def _shape_of(value: Any) -> Any:
    if isinstance(value, dict):
        return {key: _shape_of(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_shape_of(item) for item in value]
    if value is None:
        return "n"
    if isinstance(value, bool):
        return "b"
    if isinstance(value, (int, float)):
        return "#"
    if isinstance(value, str):
        return "s"
    return "D"


def merge_slow_ops(sources: Iterator[tuple[str, list[dict[str, Any]]]],
                   limit: int | None = None) -> list[dict[str, Any]]:
    """Merge slow-op entries from several (source_name, entries) pairs,
    annotating each entry with its source and ordering by start time."""
    merged: list[dict[str, Any]] = []
    for source, entries in sources:
        for entry in entries:
            tagged = dict(entry)
            tagged["source"] = source
            merged.append(tagged)
    merged.sort(key=lambda entry: entry.get("started", 0.0))
    if limit is not None:
        merged = merged[-limit:]
    return merged


def merge_top(tops: list[dict[str, dict[str, dict[str, float]]]]
              ) -> dict[str, dict[str, dict[str, float]]]:
    """Merge per-namespace ``top()`` reports by summing counts and times."""
    merged: dict[str, dict[str, dict[str, float]]] = {}
    for top in tops:
        for namespace, ops in top.items():
            per_ns = merged.setdefault(namespace, {})
            for op, entry in ops.items():
                slot = per_ns.setdefault(op, {"count": 0, "simulated_ms": 0.0})
                slot["count"] += entry["count"]
                slot["simulated_ms"] += entry["simulated_ms"]
    return merged
