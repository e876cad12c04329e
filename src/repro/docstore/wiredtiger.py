"""The wiredTiger-like storage engine.

Mechanisms modelled (the ones that drive the demo's comparison):

* documents live in a B-tree keyed by record id; lookups pay per node visited,
* blocks are compressed before hitting "disk" (smaller I/O, extra CPU),
* a byte-budgeted LRU cache serves hot documents without any I/O cost,
* writes are journaled (sequential write cost proportional to compressed size),
* concurrency control is at *document* granularity, so concurrent writers to
  different documents barely serialise.

Hot-path properties (the copy-on-write protocol of
:class:`~repro.docstore.engine_base.StorageEngine`): the tree stores
``(document, size)`` records, so reads hand back the stored object without a
copy and reuse the size computed once at write time -- no per-read size
walk, no ``copy.deepcopy`` anywhere in the engine.  A cache miss is billed
from a bounded memo of miss ticks by size (``_miss_ticks``): a hit on it is
a C-level call, no Python frame per document.  Every document, or a sorted
list of ids, is walked one way (``_runs``): runs of ``(keys, records,
depths)`` from one root snapshot, a B-tree node's worth each.  The lazy pass
(``read_scan`` / ``read_ids``) probes the cache once per document it yields;
a pass that nothing cuts (``drain``) probes it once per slice of
``node_keys`` keys of the whole pass (``LruCache.admit_run``), not per run.
A document's bill -- descent, cache probe, miss ticks -- is written in
``read``, the lazy pass and ``drain``.

**Concurrency (PR 6).**  Point reads and scans are *latch-free*: the B-tree
is copy-on-write (readers traverse an atomic root snapshot) and documents
are frozen, so a reader can never observe a torn tree or a torn document.
A batch of mutations takes a tiny internal latch (``_mutate``) that covers
only the tree updates, the disk-byte counter and the cache upkeep -- it sits
at the bottom of the lock hierarchy (collection -> stripe -> index latch ->
engine latch) and is released before the batch's service time is charged,
so concurrent writers to different documents overlap everything except the
in-memory updates themselves.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, islice
from numbers import Real
from operator import itemgetter
from typing import Any, Iterator, Sequence

from repro.docstore.btree import BTree
from repro.docstore.cache import LruCache
from repro.docstore.cost import ConcurrencyProfile, CostParameters, kilobyte_ticks
from repro.docstore.engine_base import StorageEngine
from repro.docstore.locks import LockGranularity

DEFAULT_CACHE_BYTES = 64 * 1024 * 1024
DEFAULT_COMPRESSION_RATIO = 0.45

#: Sizes an engine's memo of miss ticks holds, least recently used first out.
#: Fixed-shape records rotate a handful of sizes (the ``_id``'s digits: 5 per
#: engine in ``benchmarks/perf``); at about 160 bytes an entry the full memo
#: is 160 KiB, 1 % of a 16 MiB cache.  Past it, a miss whose size fell out
#: runs ``_miss_cost``: the one frame every miss ran before the memo.
_MISS_TICKS_LIMIT = 1024

#: The two halves of a tree record ``(document, size)``, for C-level maps.
_DOCUMENT, _SIZE = itemgetter(0), itemgetter(1)


class WiredTigerEngine(StorageEngine):
    """B-tree engine with block compression, an LRU cache and document-level locks."""

    name = "wiredtiger"
    lock_granularity = LockGranularity.DOCUMENT
    concurrency = ConcurrencyProfile(
        serial_write_fraction=0.07,
        serial_read_fraction=0.02,
        parallel_efficiency=0.92,
    )

    def __init__(
        self,
        parameters: CostParameters | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        compression_ratio: float = DEFAULT_COMPRESSION_RATIO,
    ):
        super().__init__(parameters)
        if (type(compression_ratio) is bool
                or not isinstance(compression_ratio, Real)
                or not 0.0 < compression_ratio <= 1.0):
            raise ValueError("compression_ratio must be a real number in (0, 1], "
                             f"not {compression_ratio!r}")
        self.compression_ratio = compression_ratio
        self._tree = BTree(order=64)  # record id -> (document, size)
        self._cache = LruCache(cache_bytes)
        self._miss_ticks = lru_cache(maxsize=_MISS_TICKS_LIMIT)(self._miss_cost)
        self._disk_bytes = 0
        # What a scan pays per document: a node access and the decompression
        # of half a kilobyte.
        self._scan_cost = (self.tick_costs.node_access
                           + kilobyte_ticks(512, self.tick_costs.compression_per_kb))

    # -- StorageEngine interface ------------------------------------------------

    def store_batch(self, records: list[tuple[str, dict[str, Any] | None, int]]
                    ) -> int:
        tick_costs = self.tick_costs
        base, node_access = tick_costs.base_operation, tick_costs.node_access
        compression = tick_costs.compression_per_kb
        disk_write = tick_costs.disk_write_per_kb
        ratio, cache = self.compression_ratio, self._cache
        inserted = updated = deleted = 0
        insert_ticks = update_ticks = delete_ticks = 0
        try:
            with self._mutate:
                # A run of more records writes through one writer: each node
                # copied once, the root published when the run ends.
                tree = self._tree if len(records) < 2 else self._tree.writer()
                try:
                    for record_id, document, size in records:
                        if document is None:  # one descent, billed the depth after
                            removed, previous, __ = tree.delete(record_id)
                            if not removed:
                                raise KeyError(record_id)
                            self._disk_bytes -= int(previous[1] * ratio)
                            cache.invalidate(record_id)
                            deleted += 1
                            delete_ticks += base + tree.depth() * node_access
                            continue
                        # One descent stores the new version and says what it
                        # replaced.  wiredTiger never updates in place: the
                        # new version is written out and the old block is
                        # reclaimed later, so disk usage tracks the new size.
                        compressed = int(size * ratio)
                        replaced, previous, visited = tree.insert(record_id,
                                                                  (document, size))
                        cache.put(record_id, size)
                        cost = (base + visited * node_access
                                + kilobyte_ticks(size, compression)
                                + kilobyte_ticks(compressed, disk_write))
                        if replaced:
                            self._disk_bytes += compressed - int(previous[1] * ratio)
                            updated += 1
                            update_ticks += cost
                        else:
                            self._disk_bytes += compressed
                            inserted += 1
                            insert_ticks += cost
                finally:
                    if tree is not self._tree:
                        tree.publish()
        finally:
            if inserted:
                self.costs.charge("insert", insert_ticks, inserted)
            if updated:
                self.costs.charge("update", update_ticks, updated)
            if deleted:
                self.costs.charge("delete", delete_ticks, deleted)
        return insert_ticks + update_ticks + delete_ticks

    def read(self, record_id: str) -> tuple[dict[str, Any] | None, int]:
        # Latch-free: one snapshot traversal of the copy-on-write tree.  The
        # per-call visited count comes from search() itself -- a before/after
        # delta of the cumulative counter would be torn by concurrent readers.
        found, record, visited = self._tree.search(record_id)
        tick_costs = self.tick_costs
        cost = tick_costs.base_operation + visited * tick_costs.node_access
        if not found:
            return None, self.costs.charge("read_miss", cost)
        document, size = record
        if not self._cache.admit(record_id, size):
            cost += self._miss_ticks(size)
        return document, self.costs.charge("read", cost)

    def read_scan(self) -> Iterator[tuple[dict[str, Any], int]]:
        return self._pass(None)

    def read_ids(self, record_ids: list[str]
                 ) -> Iterator[tuple[dict[str, Any] | None, int]]:
        return self._pass(record_ids)

    def drain(self, record_ids: list[str] | None = None
              ) -> tuple[list[dict[str, Any]], int, int]:
        # The lazy pass's probes in its order, one admit_run per slice of
        # node_keys keys of the whole pass, so no hold of the cache's mutex
        # spans more than a node's worth of probes; descents are summed per
        # run and the misses billed from the sizes admit_run hands back.
        tick_costs = self.tick_costs
        base, node_access = tick_costs.base_operation, tick_costs.node_access
        keys, sizes, documents = [], [], []  # the whole pass's, in its order
        descents = missed = missed_ticks = visited = 0
        for run, records, depths in self._runs(record_ids):
            depth = sum(depths)
            visited += depth
            if record_ids is not None and None in records:  # gone ids: read misses
                found = [record is not None for record in records]
                gone, kept = len(found) - sum(found), sum(compress(depths, found))
                missed += gone
                missed_ticks += gone * base + (depth - kept) * node_access
                run, records = compress(run, found), list(compress(records, found))
                depth = kept
            descents += depth
            keys += run
            sizes += map(_SIZE, records)
            documents += map(_DOCUMENT, records)
        admit_run, miss_ticks = self._cache.admit_run, self._miss_ticks
        read, step = len(keys), self._tree.node_keys
        read_ticks = read * base + descents * node_access
        for start in range(0, read, step):
            end = start + step
            read_ticks += sum(map(miss_ticks, admit_run(keys[start:end], sizes[start:end])))
        self._tree.node_accesses += visited
        self.costs.charge("read", read_ticks, read)
        self.costs.charge("read_miss", missed_ticks, missed)
        return documents, read + missed, read_ticks + missed_ticks

    def _pass(self, record_ids: list[str] | None
              ) -> Iterator[tuple[dict[str, Any] | None, int]]:
        """The lazy pass over :meth:`_runs`: what ``read`` would have
        returned per id, the cache probed in the same order with the same
        outcome.  The accounting of exactly what it yielded -- reads, misses,
        node accesses -- lands when it ends or is closed."""
        tick_costs = self.tick_costs
        base, node_access = tick_costs.base_operation, tick_costs.node_access
        admit, miss_ticks = self._cache.admit, self._miss_ticks
        read = read_ticks = missed = missed_ticks = visited = 0
        try:
            for keys, records, depths in self._runs(record_ids):
                for record_id, record, depth in zip(keys, records, depths):
                    cost = base + depth * node_access
                    visited += depth
                    if record is None:
                        missed += 1
                        missed_ticks += cost
                        yield None, cost
                        continue
                    document, size = record
                    if not admit(record_id, size):
                        cost += miss_ticks(size)
                    read += 1
                    read_ticks += cost
                    yield document, cost
        finally:
            self._tree.node_accesses += visited
            self.costs.charge("read", read_ticks, read)
            self.costs.charge("read_miss", missed_ticks, missed)

    def _runs(self, record_ids: list[str] | None
              ) -> Iterator[tuple[Sequence[str], Sequence[Any], Sequence[int]]]:
        """One root snapshot as runs of ``(keys, records, depths)``, the
        depth being what ``search`` visits per key: every document, one run
        per node of ``BTree.runs()`` (ids ``None``), or the ascending ids,
        one run per ``node_keys``-long slice of ``BTree.search_sorted``, a
        gone id's record ``None``."""
        if record_ids is None:
            for depth, keys, records in self._tree.runs():
                yield keys, records, [depth] * len(keys)
            return
        searches, step = self._tree.search_sorted(record_ids), self._tree.node_keys
        for start in range(0, len(record_ids), step):
            __, records, depths = zip(*islice(searches, step))
            yield record_ids[start:start + step], records, depths

    def _miss_cost(self, size: int) -> int:
        """What a read pays when its document was not in the cache: the
        compressed block comes off disk and is decompressed.  The two
        ``kilobyte_ticks`` written out -- the same ticks, without two nested
        calls.  It depends on the size alone, so the read paths call it
        through ``_miss_ticks``, its bounded memo: the formula runs once per
        size held there, and this is the one place it is written."""
        compressed = int(size * self.compression_ratio)
        tick_costs = self.tick_costs
        return ((max(compressed, 128) * tick_costs.disk_read_per_kb + 512 >> 10)
                + (max(size, 128) * tick_costs.compression_per_kb + 512 >> 10))

    def peek(self, record_id: str) -> tuple[dict[str, Any], int] | None:
        """Charge-free snapshot lookup (latch-free, like :meth:`read`): the
        tree's ``(document, size)`` record itself."""
        found, record, __ = self._tree.search(record_id)
        return record if found else None

    def scan_cost_per_document(self) -> int:
        return self._scan_cost

    def scan_uncharged(self) -> Iterator[tuple[str, dict[str, Any]]]:
        for record_id, record in self._tree.items():
            yield record_id, record[0]

    def count(self) -> int:
        return len(self._tree)

    def storage_bytes(self) -> int:
        return max(self._disk_bytes, 0)

    def verify_accounting(self) -> None:
        """Check the running disk-byte total against a tree recomputation,
        and the cache's used bytes against its entries and its budget."""
        with self._mutate:
            self._cache.verify_accounting()
            expected = sum(
                int(record[1] * self.compression_ratio)
                for __, record in self._tree.items()
            )
            assert self._disk_bytes == expected, (
                f"disk byte drift: running total {self._disk_bytes} != "
                f"recomputed {expected}"
            )

    # -- engine-specific reporting ------------------------------------------------

    def statistics(self) -> dict[str, Any]:
        stats = super().statistics()
        stats["cache"] = self._cache.stats.snapshot()
        stats["cache_used_bytes"] = self._cache.used_bytes
        stats["btree_depth"] = self._tree.depth()
        stats["compression_ratio"] = self.compression_ratio
        return stats
