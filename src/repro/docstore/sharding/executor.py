"""Per-shard worker pool: the cluster's real parallel dispatch layer.

A :class:`ShardExecutor` owns one dispatch queue (plus a small pool of
worker threads) per shard, mirroring how mongos keeps a connection pool
per downstream host.  The pool is created together with the cluster and
shut down with it; workers are spun up lazily the first time their shard
participates in a fan-out, so single-shard topologies never pay for
threads they cannot use.

``scatter(shard_ids, fn)`` runs ``fn(shard_id)`` for every listed shard and
returns the per-shard results *in the order the shard ids were given* —
callers pass them sorted, which is what keeps sharded results merging
deterministically (shard_id order) and therefore document-for-document
equal to a standalone server.  It is the one place a fan-out's dispatch is
decided: an open pool dispatches concurrently, the calling thread executing
the first shard's task inline while workers run the rest (at most
``len(shard_ids) - 1`` queue hand-offs); a closed pool, or a single shard,
runs :meth:`ShardExecutor.run_serial` inline, with the same shapes.

A task is whatever the router asks a shard for *first*: the whole answer of
an unbounded operation, or -- for a limited read -- the opening of the
shard's stream and its share of the limit (a
:class:`~repro.docstore.aggregation.ShardStream`).  What such a stream
yields later is read on the calling thread, by the router's merge; the
completion latch of :class:`_Fanout` is the happens-before edge between the
worker that opened it and the caller that resumes it, and ``wall_seconds``
is the wall of the dispatched part only.

Exception contract: every shard's task runs to completion even when a
sibling fails (matching a real scatter, where in-flight sub-operations
cannot be recalled).  Once all tasks have finished, the exception from
the **lowest-indexed failing shard** is re-raised on the calling thread,
so error surfacing is deterministic under parallel and serial dispatch
alike.  A replicated shard's failover needs nothing from this layer: the
shard elects inside its own task.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Sequence

__all__ = ["ShardExecutor"]


class _Fanout:
    """Completion state for one scatter: a slot per shard for the result,
    measured wall-clock, and error, plus a latch the caller waits on."""

    __slots__ = ("results", "walls", "errors", "_remaining", "_lock", "_done")

    def __init__(self, count: int) -> None:
        self.results: list[Any] = [None] * count
        self.walls: list[float] = [0.0] * count
        self.errors: list[BaseException | None] = [None] * count
        self._remaining = count
        self._lock = threading.Lock()
        self._done = threading.Event()

    def run(self, slot: int, fn: Callable[[int], Any], shard_id: int) -> None:
        started = time.perf_counter()
        try:
            self.results[slot] = fn(shard_id)
        except BaseException as error:  # re-raised on the calling thread
            self.errors[slot] = error
        finally:
            self.walls[slot] = time.perf_counter() - started
            with self._lock:
                self._remaining -= 1
                if self._remaining == 0:
                    self._done.set()

    def wait(self) -> None:
        self._done.wait()


#: More than one only matters when several client threads scatter at once: a
#: single fan-out enqueues at most one task per shard, so one worker per shard
#: already yields full parallelism for one caller, and the second lets
#: concurrent callers overlap their fan-outs instead of queueing.
WORKERS_PER_SHARD = 2


class ShardExecutor:
    """Persistent per-shard dispatch queues with daemon worker threads."""

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be at least 1")
        self.shard_count = shard_count
        self._queues = [queue.SimpleQueue() for _ in range(shard_count)]
        self._started = [0] * shard_count
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._closed = False
        self.fanouts = 0
        self.tasks_dispatched = 0

    def active_workers(self) -> int:
        """Number of worker threads spawned so far (lazily grown)."""
        return sum(self._started)

    def scatter(
        self, shard_ids: Sequence[int], fn: Callable[[int], Any]
    ) -> tuple[list[Any], list[float]]:
        """Run ``fn(shard_id)`` on every shard: concurrently while the pool
        is open, serially inline when it is closed or only one shard is
        addressed.

        Returns ``(results, wall_seconds)``, both aligned with the given
        ``shard_ids`` order.
        """
        if len(shard_ids) <= 1 or self._closed:
            return self.run_serial(shard_ids, fn)
        fanout = _Fanout(len(shard_ids))
        with self._lock:
            if self._closed:  # closed while we waited for the lock
                return self.run_serial(shard_ids, fn)
            self.fanouts += 1
            self.tasks_dispatched += len(shard_ids)
            for slot, shard_id in enumerate(shard_ids):
                if slot == 0:
                    continue  # the caller runs the first shard inline
                if self._started[shard_id] == 0:
                    self._spawn_workers(shard_id)
                self._queues[shard_id].put((fanout, slot, fn))
        fanout.run(0, fn, shard_ids[0])
        fanout.wait()
        for error in fanout.errors:  # lowest failing shard wins, deterministically
            if error is not None:
                raise error
        return fanout.results, fanout.walls

    def run_serial(
        self, shard_ids: Sequence[int], fn: Callable[[int], Any]
    ) -> tuple[list[Any], list[float]]:
        """The serial pass :meth:`scatter` takes, with the same
        ``(results, walls)`` shape."""
        results: list[Any] = []
        walls: list[float] = []
        for shard_id in shard_ids:
            started = time.perf_counter()
            results.append(fn(shard_id))
            walls.append(time.perf_counter() - started)
        return results, walls

    def close(self) -> None:
        """Shut the pool down; later scatters run serially inline."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for shard_id, started in enumerate(self._started):
                for _ in range(started):
                    self._queues[shard_id].put(None)

    def _spawn_workers(self, shard_id: int) -> None:
        """Start the shard's workers on first use; caller holds the lock."""
        for index in range(WORKERS_PER_SHARD):
            thread = threading.Thread(
                target=self._worker,
                args=(shard_id,),
                name=f"shard{shard_id}-fanout-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self._started[shard_id] = WORKERS_PER_SHARD

    def _worker(self, shard_id: int) -> None:
        tasks = self._queues[shard_id]
        while True:
            task = tasks.get()
            if task is None:
                return
            fanout, slot, fn = task
            fanout.run(slot, fn, shard_id)
            # ``fn`` closes over the router and thereby the cluster: an idle
            # worker still holding it would keep a dropped cluster from ever
            # being finalized (and this thread from ever being told to stop).
            del task, fanout, fn
