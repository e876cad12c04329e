"""Storage engine interface shared by the wiredTiger and mmapv1 simulations."""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Any, Iterator

from repro.docstore.cost import (
    ConcurrencyProfile,
    CostAccumulator,
    CostParameters,
    TickCosts,
)
from repro.docstore.locks import LockGranularity, LockManager


def check_size(option: str, value: Any, least: int) -> int:
    """``value`` if it is an ``int`` (not a bool) of at least ``least``
    bytes, else a ``ValueError`` naming ``option``: an engine refuses a size
    it could not bill at construction, not on its first read."""
    if type(value) is bool or not isinstance(value, int) or value < least:
        raise ValueError(f"{option} must be an int >= {least}, not {value!r}")
    return value


class StorageEngine(ABC):
    """Stores document payloads keyed by record id and accounts for their cost.

    A :class:`~repro.docstore.collection.Collection` owns exactly one engine
    instance.  The engine physically stores and retrieves documents, tracks
    the simulated on-disk footprint and charges simulated service time for
    each operation to its :class:`~repro.docstore.cost.CostAccumulator`: an
    ``int`` of ticks computed from the engine's
    :class:`~repro.docstore.cost.TickCosts`, recorded through the
    accumulator's one ``charge`` in whatever grouping suits the caller --
    integer totals do not depend on it.  The collection layer handles query
    matching, secondary indexes and id assignment; engines only ever see
    opaque record identifiers.  This class is the whole interface: an engine
    adds no public method of its own.

    **Copy-on-write document protocol.**  Engines never copy documents.  The
    caller (the collection write boundary) hands :meth:`store_batch` *frozen*
    canonical documents it promises never to mutate in place, each with its
    precomputed size.  ``read`` / ``scan_uncharged`` / ``read_scan`` /
    ``read_ids`` / ``drain`` hand the stored object back by reference;
    whoever exposes documents to external callers (the client surface) is
    responsible for the single defensive copy.

    **One write.**  :meth:`store_batch` is the only write an engine
    implements: store each ``(record_id, post_image, size)`` record in order
    -- an insert when the engine does not hold the id, an update when it
    does, a delete when the post-image is ``None`` -- each billed what that
    write costs, one charge per kind.  Every document write of a collection
    arrives through it: a single write as a run of one, an ``insert_many``,
    an ``update_many`` or a replica-set member's run of replicated writes as
    one run.  :meth:`index_maintenance_cost` is the one bill for
    secondary-index upkeep: the per-write cost, charged as that many single
    writes.

    **Two ways over every document.**  :meth:`scan_uncharged` enumerates,
    for a consumer that bills the pass itself: one ``"scan"`` charge of
    :meth:`scan_cost_per_document` per document enumerated (a full-scan plan,
    the aggregation ``BULK_SCAN`` source, an index backfill, a migration);
    :meth:`read_scan` *reads* every document -- what a ``FULL_SCAN`` plan
    executes: one pass over one snapshot that bills each
    document what :meth:`read` would have.  **And one over a sorted
    subset:** :meth:`read_ids` reads the ascending record ids an
    ``INDEX_EQ`` plan found in one pass, billed the same way -- what the
    reads per id would have cost, an id that is gone a ``read_miss``.
    **Both passes come in two forms**: lazy (:meth:`read_scan` /
    :meth:`read_ids`, a generator whose accounting covers exactly the
    documents yielded, for a read a limit may stop) and drained
    (:meth:`drain`, the whole pass as one list, for a consumer that takes
    every document).  One place picks the form and the pass:
    ``QueryPlan.drain`` for a read nothing cuts, ``QueryPlan.reads`` for one
    a limit may cut.  An engine writes one walk of its snapshot that both
    forms take (wiredTiger: runs of a B-tree node's worth of documents;
    mmapv1: one pass over a record sequence).
    :meth:`peek` looks one document and its stored size up free of charge,
    for a write path revalidating under its latch.
    """

    name: str = "abstract"
    lock_granularity: LockGranularity = LockGranularity.COLLECTION
    concurrency = ConcurrencyProfile(
        serial_write_fraction=1.0, serial_read_fraction=0.0, parallel_efficiency=0.8
    )

    def __init__(self, parameters: CostParameters | None = None):
        self.parameters = parameters or CostParameters()
        self.tick_costs = TickCosts.of(self.parameters)
        self.costs = CostAccumulator(self.parameters)
        self.locks = LockManager(self.lock_granularity)
        # Serialises the engine's mutations and running totals; the bottom
        # of the lock hierarchy, released before service time is charged.
        self._mutate = threading.Lock()

    # -- storage operations --------------------------------------------------

    @abstractmethod
    def store_batch(self, records: list[tuple[str, dict[str, Any] | None, int]]
                    ) -> int:
        """Store each ``(record_id, post_image, size)`` record, in order, and
        return what they cost in ticks.

        ``record_id`` then holds exactly the frozen ``post_image`` (``size``
        bytes): an insert when the engine does not hold it, an update when it
        does; a ``None`` post-image deletes the record (``KeyError`` when it
        is not held).  Each record is billed what that single write costs,
        in one charge per kind present; what was stored before a failing
        record is billed.
        """

    @abstractmethod
    def read(self, record_id: str) -> tuple[dict[str, Any] | None, int]:
        """Return ``(document, cost)``; document is None when missing.

        The returned document is the stored object itself -- callers must
        treat it as immutable.
        """

    @abstractmethod
    def scan_uncharged(self) -> Iterator[tuple[str, dict[str, Any]]]:
        """Yield ``(record_id, document)`` for every document of one snapshot,
        charging nothing: the consumer bills the enumeration itself, in one
        charge -- :meth:`scan_cost_per_document` per document it took.

        Documents are the stored objects themselves (no copies).
        """

    @abstractmethod
    def count(self) -> int:
        """Number of stored documents."""

    @abstractmethod
    def storage_bytes(self) -> int:
        """Simulated on-disk footprint in bytes (including padding/compression)."""

    def read_scan(self) -> Iterator[tuple[dict[str, Any] | None, int]]:
        """Yield ``(document, cost)`` for every document of one snapshot, in
        :meth:`scan_uncharged` order, ``cost`` being what ``read(record_id)``
        would have returned at that moment (cache probe, admission and
        eviction included, in the same order).

        Engines override this with one fused pass -- no id list, no second
        descent -- that lands its engine-wide accounting once, when the pass
        ends or is closed, for exactly the documents yielded; a consumer that
        stops early closes the generator.  The default enumerates the ids and
        reads each, so an engine is correct without writing one.
        """
        for record_id, __ in self.scan_uncharged():
            yield self.read(record_id)

    def read_ids(self, record_ids: list[str]
                 ) -> Iterator[tuple[dict[str, Any] | None, int]]:
        """Yield ``(document, cost)`` for each of the ascending
        ``record_ids``, each ``==`` what ``read(record_id)`` would have
        returned at that moment -- ``(None, cost)``, billed as a
        ``read_miss``, for an id that is gone.

        Engines override this with one pass over one snapshot (wiredTiger:
        one descent of the tree for all the ids) that lands its engine-wide
        accounting once, when the pass ends or is closed, for exactly the ids
        yielded.  The default is the loop over :meth:`read`.
        """
        return map(self.read, record_ids)

    def drain(self, record_ids: list[str] | None = None
              ) -> tuple[list[dict[str, Any]], int, int]:
        """What draining :meth:`read_scan` (``record_ids`` ``None``) or
        :meth:`read_ids` yields, as one list: ``(documents, examined,
        ticks)`` -- the documents found, in pass order; how many ids were
        examined, gone ones included; and their summed cost.  The
        engine-wide accounting lands as the drained lazy pass lands it.

        For a consumer that takes every document (nothing can cut the read):
        matching after the whole pass is unobservable, because no
        per-document step of matching or aggregation raises -- every
        ``DocumentStoreError`` of theirs is raised while parsing, and
        ``$min`` / ``$max`` / ``$sort`` / ``$group`` order mixed types
        without raising.  A read a limit can cut takes the lazy pass, whose
        accounting covers exactly the documents yielded.

        Engines override this with a cheaper pass (wiredTiger: one cache
        probe per B-tree node's worth of documents, and no resume of its
        own); the default drains the lazy pass, so an engine is correct
        without writing one.
        """
        reads = self.read_scan() if record_ids is None else self.read_ids(record_ids)
        documents: list[dict[str, Any]] = []
        examined = ticks = 0
        for document, cost in reads:
            examined += 1
            ticks += cost
            if document is not None:
                documents.append(document)
        return documents, examined, ticks

    @abstractmethod
    def peek(self, record_id: str) -> tuple[dict[str, Any], int] | None:
        """Return the stored ``(document, size)`` pair -- the size it was
        stored with -- or ``None``, without charging any simulated cost.

        Used by write paths that need to revalidate a candidate under their
        write latch (locate-lock-revalidate) -- the revalidation read is
        bookkeeping, not a billable client operation -- and an update sizes
        its post-image from the stored size.
        """

    def verify_accounting(self) -> None:
        """Assert internal byte-accounting invariants (no-op by default).

        Engines that keep running totals alongside per-record state override
        this to check the totals against a recomputation; the concurrency
        stress suite calls it after multi-threaded mixes to catch lost
        read-modify-write updates.
        """

    # -- planner cost estimates ---------------------------------------------------

    def scan_cost_per_document(self) -> int:
        """Simulated cost of touching one document during a full scan.

        The query planner uses this (times the document count) to estimate
        the ``FULL_SCAN`` access path, and every consumer of
        :meth:`scan_uncharged` bills it per document enumerated.
        """
        return self.tick_costs.node_access

    def point_read_cost_estimate(self) -> int:
        """Planner estimate for fetching one candidate document by record id."""
        return self.tick_costs.base_operation + self.tick_costs.node_access

    # -- reporting --------------------------------------------------------------

    def index_maintenance_cost(self, index_count: int, operations: int = 1) -> int:
        """What one write pays for updating ``index_count`` secondary indexes,
        charged as ``operations`` single writes."""
        cost = index_count * self.tick_costs.index_maintenance
        if cost:
            self.costs.charge("index_maintenance", cost * operations, operations)
        return cost

    def statistics(self) -> dict[str, Any]:
        """A statistics document similar to MongoDB's ``collStats``."""
        return {
            "engine": self.name,
            "documents": self.count(),
            "storage_bytes": self.storage_bytes(),
            "simulated_seconds": self.costs.total_seconds,
            "operations": self.costs.snapshot(),
            "locks": self.locks.stats.snapshot(),
            "lock_granularity": self.lock_granularity.value,
        }
