"""Lock manager modelling the concurrency-control difference between engines.

The demo's central comparison hinges on lock granularity:

* ``mmapv1`` takes a *collection-level* lock for writes -- concurrent writers
  to the same collection serialise.
* ``wiredTiger`` uses *document-level* concurrency -- writers only conflict
  when they touch the same document.

The :class:`LockManager` implements both granularities for functional
correctness (used when client threads drive the store concurrently), and
additionally keeps contention counters -- including real wall-clock wait
time -- that the concurrency benchmark (E14) reports as the contended
hot-path profile.

**Latch hierarchy and lock ordering (PR 6).**  Locks form an explicit
two-level hierarchy per collection and are always acquired top-down:

1. the *collection* reader/writer lock, then
2. one of :data:`_STRIPE_COUNT` *stripe* reader/writer locks (record ids
   hash onto stripes).

Acquisition shapes:

* **document-granularity write** (wiredTiger): collection SHARED + the
  record's stripe EXCLUSIVE.  Writers to different documents overlap; the
  shared collection hold keeps batch/DDL writers out.
* **collection-granularity write** (mmapv1): collection EXCLUSIVE only.
* **batch write** (``write_batch``, both granularities): collection
  EXCLUSIVE only.  Single-document writers hold the collection lock SHARED,
  so a batch excludes every one of them without touching any stripe.
* **read**: collection SHARED (collection granularity) or stripe SHARED
  (document granularity).  The engines' *point-read* paths are latch-free
  (immutable copy-on-write documents and a copy-on-write B-tree make torn
  reads impossible), so the hot read path never enters this layer at all;
  ``read()`` remains for callers that want explicit read stability.

No acquisition ever takes a second stripe while holding one, and stripes
are only ever taken *after* the collection lock -- the hierarchy is acyclic,
hence deadlock-free.  Layers above may nest further latches strictly inside
a held stripe/collection lock (collection -> stripe -> index latch ->
engine-internal mutation latch), preserving the total order.

Hot-path design: guard objects are pre-created per stripe and mode, the
reader/writer lock only notifies waiters when someone is actually waiting,
and wait time is measured only on the contended path (the uncontended
acquisition pays two plain method calls and a few counter updates).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum

_STRIPE_COUNT = 64


class LockGranularity(Enum):
    """Granularity at which an engine serialises writers."""

    COLLECTION = "collection"
    DOCUMENT = "document"


class _ThreadWait(threading.local):
    """A thread's cumulative lock wait; one that never waited reads the
    class default, a plain attribute load (a missing attribute of a bare
    ``threading.local`` costs a raised and swallowed ``AttributeError``)."""

    total = 0.0


@dataclass
class LockStats:
    """Counters describing how much contention the lock manager observed.

    ``wait_seconds`` is real wall-clock time spent blocked on contended
    acquisitions -- the direct measure of serialisation the concurrency
    benchmark profiles.  Updates go through :meth:`record` under an internal
    lock so concurrent acquisitions never lose counts.
    """

    acquisitions: int = 0
    contentions: int = 0
    exclusive_acquisitions: int = 0
    wait_seconds: float = 0.0

    def __post_init__(self) -> None:
        self._mutex = threading.Lock()
        self._thread_wait = _ThreadWait()

    def record(self, waited: float, exclusive: bool) -> None:
        with self._mutex:
            self.acquisitions += 1
            if exclusive:
                self.exclusive_acquisitions += 1
            if waited:
                self.contentions += 1
                self.wait_seconds += waited
        if waited:
            self._thread_wait.total += waited

    def thread_wait_seconds(self) -> float:
        """Cumulative wall-clock wait recorded by the *calling* thread.

        The profiler diffs this around an operation to attribute exactly the
        lock wait its own thread incurred, without racing other threads'
        contentions into the span.
        """
        return self._thread_wait.total

    def snapshot(self) -> dict[str, float]:
        with self._mutex:
            return {
                "acquisitions": self.acquisitions,
                "contentions": self.contentions,
                "exclusive_acquisitions": self.exclusive_acquisitions,
                "wait_seconds": self.wait_seconds,
            }


class LockMode(Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class _RWLock:
    """A simple reader/writer lock (writer preference not required here)."""

    __slots__ = ("_condition", "_readers", "_writer", "_waiting")

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer = False
        self._waiting = 0

    def acquire(self, mode: LockMode) -> float:
        """Acquire the lock; returns the seconds spent waiting (0.0 when
        the acquisition was uncontended)."""
        started = 0.0
        with self._condition:
            if mode is LockMode.SHARED:
                while self._writer:
                    if not started:
                        started = time.perf_counter()
                    self._waiting += 1
                    self._condition.wait()
                    self._waiting -= 1
                self._readers += 1
            else:
                while self._writer or self._readers:
                    if not started:
                        started = time.perf_counter()
                    self._waiting += 1
                    self._condition.wait()
                    self._waiting -= 1
                self._writer = True
        return time.perf_counter() - started if started else 0.0

    def release(self, mode: LockMode) -> None:
        with self._condition:
            if mode is LockMode.SHARED:
                self._readers -= 1
            else:
                self._writer = False
            if self._waiting:
                self._condition.notify_all()


class _LockGuard:
    """A pre-created context manager: two plain method calls per acquisition
    (``@contextmanager`` generators cost a frame switch each way).  Guards are
    stateless, so one shared instance per (lock, mode) serves every thread."""

    __slots__ = ("_manager", "_lock", "_mode", "_exclusive")

    def __init__(self, manager: "LockManager", lock: _RWLock, mode: LockMode):
        self._manager = manager
        self._lock = lock
        self._mode = mode
        self._exclusive = mode is LockMode.EXCLUSIVE

    def __enter__(self) -> "_LockGuard":
        waited = self._lock.acquire(self._mode)
        self._manager.stats.record(waited, exclusive=self._exclusive)
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release(self._mode)


class _DocumentWriteGuard:
    """Collection SHARED + one stripe EXCLUSIVE, in hierarchy order.

    The single-document write shape for document-granularity engines: the
    shared collection hold lets disjoint writers overlap while excluding
    batch/DDL writers (who take the collection lock exclusively), and the
    exclusive stripe serialises writers of the same record.  Stateless, so
    one pre-created instance per stripe serves every thread.
    """

    __slots__ = ("_manager", "_collection_lock", "_stripe_lock")

    def __init__(self, manager: "LockManager", collection_lock: _RWLock,
                 stripe_lock: _RWLock):
        self._manager = manager
        self._collection_lock = collection_lock
        self._stripe_lock = stripe_lock

    def __enter__(self) -> "_DocumentWriteGuard":
        waited = self._collection_lock.acquire(LockMode.SHARED)
        waited += self._stripe_lock.acquire(LockMode.EXCLUSIVE)
        self._manager.stats.record(waited, exclusive=True)
        return self

    def __exit__(self, *exc_info) -> None:
        self._stripe_lock.release(LockMode.EXCLUSIVE)
        self._collection_lock.release(LockMode.SHARED)


@dataclass
class LockManager:
    """Grants shared/exclusive locks at the engine's granularity."""

    granularity: LockGranularity
    stats: LockStats = field(default_factory=LockStats)

    def __post_init__(self) -> None:
        self._collection_lock = _RWLock()
        self._collection_read = _LockGuard(self, self._collection_lock,
                                           LockMode.SHARED)
        self._collection_write = _LockGuard(self, self._collection_lock,
                                            LockMode.EXCLUSIVE)
        # The batch shape is collection EXCLUSIVE for both granularities:
        # document-granularity single-doc writers hold the collection lock
        # SHARED, so exclusivity over the collection lock alone excludes all
        # of them -- no stripe sweep needed.
        self._batch_write = self._collection_write
        if self.granularity is LockGranularity.DOCUMENT:
            stripes = [_RWLock() for __ in range(_STRIPE_COUNT)]
            self._stripe_read = [_LockGuard(self, lock, LockMode.SHARED)
                                 for lock in stripes]
            self._doc_write = [
                _DocumentWriteGuard(self, self._collection_lock, lock)
                for lock in stripes
            ]
        else:
            self._stripe_read = None
            self._doc_write = None

    def read(self, document_id: str | None = None) -> _LockGuard:
        """Acquire a shared lock for a read (use as a context manager).

        The engines' point-read hot path is latch-free and does not call
        this; it exists for callers that need explicit read stability
        against collection-exclusive phases.
        """
        if self._stripe_read is None or document_id is None:
            return self._collection_read
        return self._stripe_read[hash(document_id) % _STRIPE_COUNT]

    def write(self, document_id: str | None = None):
        """Exclusive access for one document write at the engine's granularity.

        Document granularity returns the collection-SHARED + stripe-EXCLUSIVE
        pair; collection granularity (or no document id) the collection
        EXCLUSIVE lock.
        """
        if self._doc_write is None or document_id is None:
            return self._collection_write
        return self._doc_write[hash(document_id) % _STRIPE_COUNT]

    def write_batch(self) -> _LockGuard:
        """One exclusive acquisition covering every document at once (batch
        inserts, DDL): the collection lock EXCLUSIVE, which excludes readers,
        single-document writers (they hold it SHARED) and other batches."""
        return self._batch_write
