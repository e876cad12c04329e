"""Operation profiler, slow-op log, and unified metrics registry.

This module is the observability substrate for the whole stack (PR 8):

* :class:`MetricsRegistry` -- thread-safe counters and fixed-bucket latency
  histograms with interpolated p50/p95/p99.  Every
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
       branch check (the default; not one Python call more than
       with no profiler at all, ``test_call_budget.py``)
1      metrics + spans recorded; only ops slower than ``slow_ms``
       (simulated milliseconds) enter the slow-op log
2      metrics + spans recorded; every op enters the slow-op log
       (``slow_ms`` still stored on each entry for reference)
====== =========================================================

**A span costs what it records** (ISSUE 24).  Whoever opens one calls
:meth:`Profiler.start` and :meth:`Profiler.finish` itself (``try`` /
``except BaseException`` / ``finally``; there is no context manager).  The
ring keeps the finished :class:`ProfiledOp` -- never mutated after ``finish``
-- and :meth:`Profiler.slow_ops` renders it, a fresh dict per read, so an
entry the ring overwrites unread was never rendered.  ``finish`` books the
span in one :meth:`MetricsRegistry.record_span` round, taken after the
profiler's own lock is released.  :func:`render_query_shape` renders a shape
once: a repeat is answered from a process-wide
:class:`~repro.docstore.codegen.BoundedMemo` keyed by the query's structure
and operand *types*, which holds neither the query nor an operand.
``limit`` arguments follow :func:`newest`; :func:`check_profiling` refuses a
``set_profiling`` request before anything is changed.

Slowness is judged on the *simulated* duration because simulated seconds
are the repo's canonical, deterministic latency axis; the wall-clock
duration is captured on every span as supporting evidence.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from bisect import bisect_left
from collections import defaultdict, deque
from typing import Any, Callable, Iterator

from repro.docstore.codegen import SHAPES_LIMIT, BoundedMemo
from repro.docstore.cost import TICKS_PER_SECOND
from repro.errors import ValidationError

PROFILE_OFF = 0
PROFILE_SLOW_ONLY = 1
PROFILE_ALL = 2

_PROFILE_LEVELS = (PROFILE_OFF, PROFILE_SLOW_ONLY, PROFILE_ALL)

#: A span keeps its simulated duration in ticks and reports milliseconds.
_TICKS_PER_MS = TICKS_PER_SECOND // 1000

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
        # The first bound >= the value; past the last one, the +inf bucket.
        self.counts[bisect_left(HISTOGRAM_BUCKETS_MS, value_ms)] += 1
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
    """Thread-safe named counters and latency histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, LatencyHistogram] = defaultdict(LatencyHistogram)
        # ``op`` -> its ``operations.`` / ``latency.`` / ``errors.`` names,
        # formatted once per operation label instead of once per span.
        self._span_names: dict[str, tuple[str, str, str]] = {}

    def increment(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value_ms: float) -> None:
        with self._lock:
            self._histograms[name].observe(value_ms)

    def record_span(self, op: str, simulated_ms: float, lock_wait_ms: float,
                    errored: bool, slow: bool) -> None:
        """Book one finished span in one lock round: ``operations.<op>`` and
        ``latency.<op>`` always, ``lock_wait`` when there was any,
        ``errors.<op>`` when it raised, ``slow_ops`` when it was kept as slow."""
        with self._lock:
            names = self._span_names.get(op)
            if names is None:
                names = self._span_names[op] = (
                    f"operations.{op}", f"latency.{op}", f"errors.{op}")
            operations, latency, errors = names
            counters = self._counters
            counters[operations] = counters.get(operations, 0) + 1
            self._histograms[latency].observe(simulated_ms)
            if lock_wait_ms:
                self._histograms["lock_wait"].observe(lock_wait_ms)
            if errored:
                counters[errors] = counters.get(errors, 0) + 1
            if slow:
                counters["slow_ops"] = counters.get("slow_ops", 0) + 1

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "counters": dict(self._counters),
                "histograms": {
                    name: histogram.snapshot()
                    for name, histogram in sorted(self._histograms.items())
                },
            }

    @staticmethod
    def merge(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
        """Combine registry snapshots: counters and histogram buckets sum,
        percentiles are recomputed from the merged buckets."""
        counters: dict[str, int] = {}
        histogram_parts: dict[str, list[dict[str, Any]]] = {}
        for snap in snapshots:
            for name, value in snap.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, hist in snap.get("histograms", {}).items():
                histogram_parts.setdefault(name, []).append(hist)
        histograms = {
            name: LatencyHistogram.from_buckets(parts).snapshot()
            for name, parts in sorted(histogram_parts.items())
        }
        return {"counters": counters, "histograms": histograms}


class ProfiledOp:
    """One profiled operation span.

    Mutable while in flight and never after :meth:`Profiler.finish`: the
    slow-op log keeps the span itself and :meth:`as_dict` renders the record
    when the log is read.  Times are kept in two axes: the deterministic
    cost-model duration in ticks (``ticks``, rendered as ``simulated_ms``)
    and wall-clock milliseconds (``duration_ms``).
    """

    __slots__ = (
        "op", "namespace", "shape", "opid", "thread", "started",
        "duration_ms", "ticks", "access_path", "plan_cache",
        "docs_examined", "docs_returned", "matched", "modified", "deleted",
        "inserted", "lock_wait_ms", "children", "parallel", "straggler",
        "targeting", "errored",
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
        self.ticks = 0
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
        self.ticks = result.ticks
        self.matched = result.matched_count
        self.modified = result.modified_count
        self.deleted = result.deleted_count
        if result.inserted_ids:
            self.inserted = len(result.inserted_ids)
        if result.documents is not None:
            self.docs_returned = len(result.documents)

    def add_shard_children(self, shard_costs: dict[str, int], parallel: bool,
                           wall_seconds: dict[str, float]) -> int:
        """Synthesise per-shard child spans from an OperationResult's
        ``shard_costs`` breakdown and return how many shards they name (the
        ``balancer`` surcharge is a child but no shard).  ``parallel``
        records whether the parent duration combines children by max
        (fan-out) or sum (serial).

        ``wall_seconds`` carries the *measured* per-shard wall-clock of a
        real fan-out dispatch (``OperationResult.shard_wall_seconds``);
        a child named there also reports ``wall_ms``, and the straggler
        is the shard with the largest measured wall-clock.  Without
        measurements (single-shard ops, synthetic spans) the straggler
        falls back to the largest simulated cost, which keeps it
        deterministic for simulated-only workloads."""
        self.parallel = parallel
        shards = 0
        slowest = None  # the straggler's (measured?, milliseconds) so far
        for name in sorted(shard_costs):
            child = {"shard": name, "simulated_ms": shard_costs[name] / _TICKS_PER_MS}
            rank = (False, child["simulated_ms"])
            if name in wall_seconds:
                child["wall_ms"] = wall_seconds[name] * 1000.0
                rank = (True, child["wall_ms"])
            self.children.append(child)
            if name != "balancer":
                shards += 1
                if parallel and (slowest is None or rank > slowest):
                    slowest, self.straggler = rank, name
        return shards

    # -- rendering -------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "op": self.op,
            "ns": self.namespace,
            "opid": self.opid,
            "thread": self.thread,
            "started": self.started,
            "duration_ms": self.duration_ms,
            "simulated_ms": self.ticks / _TICKS_PER_MS,
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
            record["shards"] = [dict(child) for child in self.children]
            record["parallel"] = self.parallel
        if self.straggler is not None:
            record["straggler"] = self.straggler
        if self.targeting is not None:
            record["targeting"] = self.targeting
        if self.errored is not None:
            record["errored"] = self.errored
        return record


def check_profiling(level: Any, slow_ms: Any = None, capacity: Any = None) -> None:
    """Refuse a ``set_profiling`` request before it changes anything: the
    level is the ``int`` 0, 1 or 2, ``slow_ms`` a non-negative real,
    ``capacity`` an ``int`` >= 1 (the last two may be ``None``: keep)."""
    if type(level) is not int or level not in _PROFILE_LEVELS:
        raise ValidationError(f"profiling level must be 0, 1, or 2, got {level!r}")
    if slow_ms is not None and not (isinstance(slow_ms, (int, float)) and slow_ms >= 0
                                    and not isinstance(slow_ms, bool)):
        raise ValidationError(f"slow_ms must be a non-negative number, got {slow_ms!r}")
    if capacity is not None and (type(capacity) is not int or capacity < 1):
        raise ValidationError(f"capacity must be a positive integer, got {capacity!r}")


def newest(entries: list[Any], limit: int | None) -> list[Any]:
    """The repo's ``limit`` rule on a log kept oldest first: ``None`` is all
    of it, a positive ``int`` the newest that many, ``0`` nothing; anything
    else is an error."""
    if limit is None:
        return entries
    if type(limit) is not int or limit < 0:
        raise ValidationError(
            f"a slow-op limit must be a non-negative integer or None, got {limit!r}")
    return entries[max(0, len(entries) - limit):]


class Profiler:
    """Per-server operation profiler with a bounded slow-op log.

    ``enabled`` is a plain attribute so the instrumented hot paths pay only
    an attribute load and branch when profiling is off (level 0).  The log
    holds the finished :class:`ProfiledOp` spans; :meth:`slow_ops` renders
    them, so a span nobody reads is never turned into a dict.
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
        self._slow_ops: deque[ProfiledOp] = deque(maxlen=capacity)
        # Written by one dict store per ``start`` and one pop per ``finish``,
        # each atomic on its own: no lock.
        self._in_flight: dict[int, ProfiledOp] = {}
        # namespace -> op -> [count, simulated ticks]
        self._top: dict[str, dict[str, list[int]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0]))
        self._opid = itertools.count(1)
        self.slow_ops_recorded = 0
        self.slow_ops_dropped = 0

    # -- configuration ---------------------------------------------------------

    def set_profiling(self, level: int, slow_ms: float | None = None,
                      capacity: int | None = None) -> dict[str, Any]:
        check_profiling(level, slow_ms, capacity)
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
        """Open a span.  Whoever starts one finishes it, whatever happens in
        between: ``try`` / ``except BaseException`` (set ``errored`` to the
        type's name, re-raise) / ``finally`` :meth:`finish`."""
        span = ProfiledOp(op, namespace, shape, next(self._opid),
                          threading.current_thread().name)
        self._in_flight[span.opid] = span
        return span

    def finish(self, span: ProfiledOp) -> None:
        span.duration_ms = (time.perf_counter() - span.started) * 1000.0
        self._in_flight.pop(span.opid, None)
        op, simulated_ms = span.op, span.ticks / _TICKS_PER_MS
        slow = simulated_ms > self.slow_ms
        with self._lock:
            entry = self._top[span.namespace][op]
            entry[0] += 1
            entry[1] += span.ticks
            level = self.level
            kept = level >= PROFILE_ALL or (slow and level >= PROFILE_SLOW_ONLY)
            if kept:
                ring = self._slow_ops
                if len(ring) == ring.maxlen:
                    self.slow_ops_dropped += 1
                ring.append(span)
                self.slow_ops_recorded += 1
        # Outside the profiler's lock: the two are never held together.
        self.registry.record_span(op, simulated_ms, span.lock_wait_ms,
                                  span.errored is not None, kept and slow)

    # -- reporting -------------------------------------------------------------

    def current_ops(self) -> list[dict[str, Any]]:
        now = time.perf_counter()
        return [{
            "opid": span.opid,
            "op": span.op,
            "ns": span.namespace,
            "shape": span.shape,
            "thread": span.thread,
            "running_ms": (now - span.started) * 1000.0,
        } for span in list(self._in_flight.values())]

    def slow_ops(self, limit: int | None = None) -> list[dict[str, Any]]:
        """The log rendered oldest first -- fresh dicts, the caller's own."""
        with self._lock:
            spans = list(self._slow_ops)
        return [span.as_dict() for span in newest(spans, limit)]

    def top(self) -> dict[str, dict[str, dict[str, float]]]:
        with self._lock:
            return {
                namespace: {
                    op: {"count": entry[0], "simulated_ms": entry[1] / _TICKS_PER_MS}
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


#: Rendered shapes by :func:`_shape_key`, shared by every profiler of the
#: process (a router and its shard render one query once between them).
_SHAPES = BoundedMemo(SHAPES_LIMIT)
_MARKERS = {type(None): "n", bool: "b", int: "#", float: "#", str: "s"}


def render_query_shape(query: Any) -> str:
    """A human-readable query/pipeline shape: structure and operators are
    preserved, operand values are replaced by type markers (``#`` number,
    ``s`` string, ``b`` bool, ``n`` null, ``L`` list, ``D`` document) so
    spans group by shape without leaking operand values.

    A shape is rendered once: repeats are answered from :data:`_SHAPES`,
    keyed by the query's structure and operand *types* (:func:`_shape_key`),
    which holds no reference to the query or to any operand.  A filter or
    pipeline a router parsed renders as the raw form it carries (``raw``)."""
    query = getattr(query, "raw", query)
    key = _shape_key(query)
    rendered = _SHAPES.get(key)
    if rendered is None:
        rendered = json.dumps(_shape_of(query), sort_keys=True, default=str,
                              separators=(",", ":"))
        if key is not None:
            _SHAPES.store(key, rendered)
    return rendered


def _shape_key(value: Any) -> Any:
    """A hashable that determines ``value``'s rendered shape -- nested tuples
    of field names and type markers, tagged by container -- or ``None`` for
    one this does not memoise: a field name that is no ``str`` (JSON would
    coerce it) or a type :func:`_shape_of` has to classify by ``isinstance``."""
    kind = type(value)
    if kind is dict:
        key = [dict]
        for name, item in value.items():
            part = _MARKERS.get(type(item)) or _shape_key(item)
            if part is None or type(name) is not str:
                return None
            key += (name, part)
    elif kind is list or kind is tuple:
        key = [list]
        for item in value:
            part = _MARKERS.get(type(item)) or _shape_key(item)
            if part is None:
                return None
            key.append(part)
    else:
        return _MARKERS.get(kind)
    return tuple(key)


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
    tagging each entry -- in place: they are the caller's own, as
    :meth:`Profiler.slow_ops` returns them -- with its source and ordering
    by start time."""
    merged: list[dict[str, Any]] = []
    for source, entries in sources:
        for entry in entries:
            entry["source"] = source
            merged.append(entry)
    merged.sort(key=lambda entry: entry.get("started", 0.0))
    return newest(merged, limit)


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
