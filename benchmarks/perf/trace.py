"""Outside-in span tracing: timing wrappers installed from the harness.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces the
public entry points of each layer (class methods and module-level functions)
with wrappers that record one span ``(id, parent, op, name, start, end)`` per
call, and puts the originals back afterwards.  Spans live in memory; the
parent of a span is whatever span is open on the calling thread, kept on a
thread-local stack.  A span opened with an empty stack is the *root* of an
operation: its id is the operation id of everything below it, and it takes
the label the harness set last (``tracer.label``), which is how spans are
later grouped by operation class or phase.

Three special cases:

* a callable handed to ``ShardExecutor.scatter`` runs on worker threads whose
  stacks are empty, so the wrapper hands it the executor span as parent;
* a generator function gets one span per resume, so the time its body runs
  is told apart from the time its consumer runs between items;
* a wrapped function that calls itself (``clone_document`` on nested values)
  is one boundary crossing, not many: the inner calls record nothing.

A span's *self time* is its duration minus the union of its children's
intervals (children of a fan-out overlap), minus the wrapper's own cost,
which :func:`calibrate` measures on an empty function.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

#: One layer boundary: module, class (``None`` for module-level functions)
#: and the names to wrap (``None`` for every public function of the class).
Target = tuple[str, str | None, tuple[str, ...] | None]


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root span
    op: int  # id of the root span of this operation
    name: int  # index into ``Tracer.names``
    start: float
    end: float


class Overhead(NamedTuple):
    """Per-span wrapper cost in seconds: ``inner`` falls inside the span's own
    interval, ``outer`` inside its parent's."""

    inner: float
    outer: float


class Tracer:
    """Installs, records and removes the timing wrappers."""

    def __init__(self) -> None:
        self._raw: list[tuple] = []  # plain tuples: cheaper to build than Span
        self.names: list[str] = []
        self.layers: list[str] = []
        self.labels: dict[int, str] = {}
        self.sizes: list[tuple[int, int]] = []  # (operation, result length)
        self.label = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- installing ----------------------------------------------------------------

    def install(self, layers: dict[str, list[Target]],
                carriers: dict[str, int] | None = None,
                sized: Iterable[str] = ()) -> None:
        """Wrap every target of ``layers``.

        ``carriers`` maps a span name to the position of a callable argument
        that must inherit the span as parent on other threads; ``sized``
        names spans whose result length is kept in :attr:`sizes`.
        """
        carriers = carriers or {}
        sized = set(sized)
        for layer, targets in layers.items():
            for module_name, class_name, names in targets:
                module = importlib.import_module(module_name)
                if class_name is None:
                    for name in names or ():
                        self._wrap_function(layer, getattr(module, name), name)
                    continue
                owner = getattr(module, class_name)
                for name, value in list(vars(owner).items()):
                    public = names is None and not name.startswith("_")
                    if (public or name in (names or ())) and inspect.isfunction(value):
                        span_name = f"{class_name}.{name}"
                        wrapper = self._wrapper(
                            value, layer, span_name,
                            carrier=carriers.get(span_name),
                            sized=span_name in sized)
                        setattr(owner, name, wrapper)
                        self._restore.append((owner, name, value))

    def uninstall(self) -> None:
        """Put every original entry point back."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap_function(self, layer: str, function: Callable, name: str) -> None:
        """Replace every reference to a module-level function in ``repro``
        (importers hold their own by-name references)."""
        wrapper = self._wrapper(function, layer, name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attribute, wrapper)
                    self._restore.append((module, attribute, function))

    # -- the wrappers ----------------------------------------------------------------

    def _open(self, name: int) -> tuple[list, int, int, int] | None:
        """Push a span; ``None`` when this call is a recursive re-entry."""
        local = self._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        if stack:
            parent, op, top_name = stack[-1]
            if top_name == name:
                return None
            span_id = next(self._ids)
        else:
            span_id = op = next(self._ids)
            parent = 0
            self.labels[op] = self.label
        stack.append((span_id, op, name))
        return stack, span_id, parent, op

    def _wrapper(self, function: Callable, layer: str, span_name: str,
                 carrier: int | None = None, sized: bool = False) -> Callable:
        name = len(self.names)
        self.names.append(span_name)
        self.layers.append(layer)
        record = self._raw.append
        sizes = self.sizes
        clock = time.perf_counter
        open_span = self._open

        if inspect.isgeneratorfunction(function):
            def traced_generator(*args: Any, **kwargs: Any):
                iterator = function(*args, **kwargs)
                while True:
                    opened = open_span(name)
                    if opened is None:
                        yield from iterator
                        return
                    stack, span_id, parent, op = opened
                    start = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        record((span_id, parent, op, name, start, end))
                    yield item
            traced_generator.__wrapped__ = function
            return traced_generator

        def traced(*args: Any, **kwargs: Any) -> Any:
            opened = open_span(name)
            if opened is None:
                return function(*args, **kwargs)
            stack, span_id, parent, op = opened
            if carrier is not None:
                args = (*args[:carrier],
                        self._carry(args[carrier], (span_id, op, name)),
                        *args[carrier + 1:])
            start = clock()
            try:
                result = function(*args, **kwargs)
                if sized:
                    sizes.append((op, len(result)))
                return result
            finally:
                end = clock()
                stack.pop()
                record((span_id, parent, op, name, start, end))
        traced.__wrapped__ = function
        return traced

    def _carry(self, task: Callable, entry: tuple[int, int, int]) -> Callable:
        """``task`` as run by another thread: the carried span is its parent."""
        local = self._local

        def carried(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:  # the caller's own thread runs the first shard inline
                return task(*args, **kwargs)
            stack.append(entry)
            try:
                return task(*args, **kwargs)
            finally:
                stack.pop()
        return carried

    # -- reading the spans -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._raw)

    @property
    def spans(self) -> list[Span]:
        return [Span._make(raw) for raw in self._raw]

    def totals(self, overhead: Overhead = Overhead(0.0, 0.0)
               ) -> tuple[dict[tuple[str, str], float], dict[tuple[str, str], list[float]]]:
        """Self seconds per ``(label, layer)`` and the list of durations per
        ``(label, span name)``."""
        spans = self.spans
        own = self_times(spans, overhead)
        by_layer: dict[tuple[str, str], float] = defaultdict(float)
        by_name: dict[tuple[str, str], list[float]] = defaultdict(list)
        for span in spans:
            label = self.labels[span.op]
            by_layer[label, self.layers[span.name]] += own[span.id]
            by_name[label, self.names[span.name]].append(span.end - span.start)
        return by_layer, by_name

    def write(self, path: Path) -> None:
        """A header line (span names, their layers, the label of each
        operation), then one ``[id, parent, op, name, start, end]`` per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names, "layers": self.layers,
                                  "labels": self.labels}) + "\n")
            for raw in self._raw:
                out.write(json.dumps(raw) + "\n")


def self_times(spans: list[Span],
               overhead: Overhead = Overhead(0.0, 0.0)) -> dict[int, float]:
    """Self seconds of every span, by span id."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    own: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        intervals = children.get(span.id)
        if intervals:
            intervals.sort()
            low, high = intervals[0]
            for start, end in intervals[1:]:
                if start > high:
                    covered += high - low
                    low, high = start, end
                elif end > high:
                    high = end
            covered += high - low
        cost = overhead.inner + len(intervals or ()) * overhead.outer
        own[span.id] = max(0.0, span.end - span.start - covered - cost)
    return own


def calibrate(calls: int = 20_000) -> Overhead:
    """Measure the wrapper's cost per span on an empty function."""
    def empty() -> None:
        return None

    tracer = Tracer()
    wrapped = tracer._wrapper(empty, "calibration", "empty")

    def loop(function: Callable[[], None]) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            function()
        return time.perf_counter() - start

    traced_loop = tracer._wrapper(loop, "calibration", "loop")
    bare = min(loop(empty) for _ in range(3))
    total = min(traced_loop(wrapped) for _ in range(3))
    inner = statistics.median(
        span.end - span.start for span in tracer.spans if span.name == 0)
    per_call = (total - bare) / calls
    return Overhead(inner=inner, outer=max(0.0, per_call - inner))
