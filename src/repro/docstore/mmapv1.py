"""The mmapv1-like storage engine.

Mechanisms modelled:

* documents are appended to extents (contiguous regions doubling in size),
  each record is allocated with a *padding factor* so small growth can happen
  in place,
* no compression: the on-"disk" footprint is the padded document size, so the
  same logical data occupies considerably more space than under wiredTiger,
* reads rely on the OS page cache: while the padded data set fits in memory
  they are very cheap, beyond that a fraction of reads pays for page faults,
* updates that outgrow their padding move the document (extra cost), and
* concurrency control is at *collection* granularity, so concurrent writers
  serialise -- the main reason the engine stops scaling with client threads.

Hot-path properties: documents are stored by reference (the copy-on-write
protocol of :class:`~repro.docstore.engine_base.StorageEngine`), the total
extent footprint is a running counter (``storage_bytes`` and the per-read
page-fault estimate are O(1) instead of a sum over every extent), and
allocation keeps a *free-space hint* -- an upper bound on the free bytes in
any non-newest extent -- so the common append-only insert is O(1): the
first-fit scan only runs when the hint says an older extent might actually
fit the record, which preserves placement byte-for-byte with the scanning
implementation.

**Concurrency (PR 6).**  Reads are latch-free (a record lookup is a single
dict access and stored documents are frozen, so no torn state is
observable).  Mutations -- which do multi-step read-modify-writes on the
allocator, the running capacity total and the free-space hint -- take a
small internal latch (``_mutate``).  The collection layer already
serialises writes through its collection-exclusive lock, but the latch
keeps the engine correct under direct concurrent use too; like the
wiredTiger engine's latch it sits at the bottom of the lock hierarchy and
is released before service time is charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.docstore.cost import ConcurrencyProfile, CostParameters, kilobyte_ticks
from repro.docstore.engine_base import StorageEngine, check_size
from repro.docstore.locks import LockGranularity

DEFAULT_PADDING_FACTOR = 1.5
DEFAULT_MEMORY_BYTES = 256 * 1024 * 1024
_INITIAL_EXTENT_BYTES = 64 * 1024
_MAX_EXTENT_BYTES = 512 * 1024 * 1024


@dataclass
class _Record:
    """One stored record: the document, its size and its padded allocation."""

    document: dict[str, Any]
    size: int
    allocated_bytes: int
    extent: int


class MmapV1Engine(StorageEngine):
    """Extent-based engine with padding, in-place updates and a collection lock."""

    name = "mmapv1"
    lock_granularity = LockGranularity.COLLECTION
    concurrency = ConcurrencyProfile(
        serial_write_fraction=0.95,
        serial_read_fraction=0.05,
        parallel_efficiency=0.85,
    )

    def __init__(
        self,
        parameters: CostParameters | None = None,
        padding_factor: float = DEFAULT_PADDING_FACTOR,
        memory_bytes: int = DEFAULT_MEMORY_BYTES,
    ):
        super().__init__(parameters)
        if padding_factor < 1.0:
            raise ValueError("padding_factor must be >= 1.0")
        self.padding_factor = padding_factor
        self.memory_bytes = check_size("memory_bytes", memory_bytes, 0)
        self._records: dict[str, _Record] = {}
        self._extents: list[int] = []  # bytes used per extent
        self._extent_capacity: list[int] = []
        self._document_moves = 0
        # Running totals / hints replacing per-operation scans:
        # ``_capacity_total`` is ``sum(_extent_capacity)`` (storage_bytes);
        # ``_older_free_hint`` is an upper bound on the free bytes of any
        # extent *except the newest* -- when a record is larger than the
        # hint, first-fit provably lands in the newest extent (or a new one).
        self._capacity_total = 0
        self._older_free_hint = 0

    # -- StorageEngine interface -------------------------------------------------

    def store_batch(self, records: list[tuple[str, dict[str, Any] | None, int]]
                    ) -> int:
        tick_costs = self.tick_costs
        # Every write pays the operation and the namespace/extent bookkeeping.
        descent = tick_costs.base_operation + tick_costs.node_access
        disk_write = tick_costs.disk_write_per_kb
        padding = self.padding_factor
        stored = self._records
        inserted = updated = deleted = 0
        insert_ticks = update_ticks = 0
        try:
            with self._mutate:
                for record_id, document, size in records:
                    if document is None:
                        record = stored.pop(record_id)  # KeyError: not held
                        self._free(record.extent, record.allocated_bytes)
                        deleted += 1
                        continue
                    record = stored.get(record_id)
                    if record is None:
                        allocated = int(size * padding)
                        stored[record_id] = _Record(document, size, allocated,
                                                    self._allocate(allocated))
                        inserted += 1
                        insert_ticks += kilobyte_ticks(allocated, disk_write)
                        continue
                    if size <= record.allocated_bytes:
                        # In-place update: only the touched bytes are flushed.
                        record.document = document
                        record.size = size
                        cost = kilobyte_ticks(size, disk_write)
                    else:
                        # Outgrew its padding: move it to a fresh allocation.
                        allocated = int(size * padding)
                        extent = self._allocate(allocated)
                        self._free(record.extent, record.allocated_bytes)
                        stored[record_id] = _Record(document, size, allocated, extent)
                        self._document_moves += 1
                        cost = (tick_costs.document_move
                                + kilobyte_ticks(allocated, disk_write))
                    updated += 1
                    update_ticks += cost + self._page_fault_cost(size)
        finally:
            if inserted:
                insert_ticks += descent * inserted
                self.costs.charge("insert", insert_ticks, inserted)
            if updated:
                update_ticks += descent * updated
                self.costs.charge("update", update_ticks, updated)
            if deleted:
                self.costs.charge("delete", descent * deleted, deleted)
        return insert_ticks + update_ticks + descent * deleted

    def read(self, record_id: str) -> tuple[dict[str, Any] | None, int]:
        # Latch-free: a single dict lookup of a frozen document.
        record = self._records.get(record_id)
        cost = self.tick_costs.base_operation + self.tick_costs.node_access
        if record is None:
            return None, self.costs.charge("read_miss", cost)
        cost += self._page_fault_cost(record.allocated_bytes)
        return record.document, self.costs.charge("read", cost)

    def read_scan(self) -> Iterator[tuple[dict[str, Any], int]]:
        return self._pass(None)

    def read_ids(self, record_ids: list[str]
                 ) -> Iterator[tuple[dict[str, Any] | None, int]]:
        return self._pass(record_ids)

    def _pass(self, record_ids: list[str] | None
              ) -> Iterator[tuple[dict[str, Any] | None, int]]:
        # One pass over a record sequence -- the snapshot scan_uncharged()
        # takes, taken when the pass starts, or a dict lookup per id -- each
        # billed as read() bills it: the page-fault share is asked per
        # document because a writer between two of them moves it.
        descent = self.tick_costs.base_operation + self.tick_costs.node_access
        records = (list(self._records.values()) if record_ids is None
                   else map(self._records.get, record_ids))
        read = read_ticks = missed = 0
        try:
            for record in records:
                if record is None:
                    missed += 1
                    yield None, descent
                    continue
                cost = descent + self._page_fault_cost(record.allocated_bytes)
                read += 1
                read_ticks += cost
                yield record.document, cost
        finally:
            self.costs.charge("read", read_ticks, read)
            self.costs.charge("read_miss", descent * missed, missed)

    def peek(self, record_id: str) -> tuple[dict[str, Any], int] | None:
        """Charge-free latch-free lookup."""
        record = self._records.get(record_id)
        return (record.document, record.size) if record is not None else None

    def scan_cost_per_document(self) -> int:
        # An extent hop and the page-fault share of a quarter kilobyte.
        return self.tick_costs.node_access + self._page_fault_cost(256)

    def scan_uncharged(self) -> Iterator[tuple[str, dict[str, Any]]]:
        for record_id, record in list(self._records.items()):
            yield record_id, record.document

    def count(self) -> int:
        return len(self._records)

    def storage_bytes(self) -> int:
        return self._capacity_total

    def verify_accounting(self) -> None:
        """Check the running totals and free-space hint against recomputations.

        A lost read-modify-write on ``_capacity_total`` or a hint that drifted
        *below* some older extent's free space (which would silently break
        first-fit placement) shows up here; the concurrency stress suite calls
        this after multi-threaded insert/update/delete mixes.
        """
        with self._mutate:
            assert self._capacity_total == sum(self._extent_capacity), (
                f"capacity drift: running total {self._capacity_total} != "
                f"extent sum {sum(self._extent_capacity)}"
            )
            used_by_extent = [0] * len(self._extents)
            for record in self._records.values():
                used_by_extent[record.extent] += record.allocated_bytes
            assert used_by_extent == self._extents, (
                "per-extent usage drift between records and extent counters"
            )
            for index in range(len(self._extents) - 1):
                free = self._extent_capacity[index] - self._extents[index]
                assert free <= self._older_free_hint, (
                    f"free-space hint {self._older_free_hint} below extent "
                    f"{index}'s free bytes {free} (breaks first-fit)"
                )

    # -- engine-specific reporting --------------------------------------------------

    def statistics(self) -> dict[str, Any]:
        stats = super().statistics()
        stats["padding_factor"] = self.padding_factor
        stats["document_moves"] = self._document_moves
        stats["extents"] = len(self._extent_capacity)
        stats["allocated_bytes"] = sum(
            record.allocated_bytes for record in self._records.values()
        )
        return stats

    # -- internals ---------------------------------------------------------------------

    def _allocate(self, size: int) -> int:
        """Place ``size`` bytes into an extent, growing the file if needed.

        Placement is first-fit over the extents in order.  The free-space
        hint makes the common case O(1): when ``size`` exceeds the free bytes
        of every non-newest extent (hint is an upper bound), the first fit
        can only be the newest extent, so the scan is skipped entirely.
        """
        last = len(self._extents) - 1
        if size > self._older_free_hint:
            if last >= 0 and self._extents[last] + size <= self._extent_capacity[last]:
                self._extents[last] += size
                return last
            return self._append_extent(size)
        for index in range(last + 1):
            if self._extents[index] + size <= self._extent_capacity[index]:
                self._extents[index] += size
                return index
        # Nothing fit anywhere, so every extent's free space is below ``size``
        # -- tighten the hint so future records this large skip the scan.
        if self._older_free_hint >= size:
            self._older_free_hint = max(0, size - 1)
        return self._append_extent(size)

    def _append_extent(self, size: int) -> int:
        """Open a new (doubled) extent; the retired extent's slack joins the
        older-extent free-space hint."""
        last = len(self._extent_capacity) - 1
        if last >= 0:
            retired_free = self._extent_capacity[last] - self._extents[last]
            if retired_free > self._older_free_hint:
                self._older_free_hint = retired_free
            next_capacity = self._extent_capacity[last] * 2
        else:
            next_capacity = _INITIAL_EXTENT_BYTES
        next_capacity = min(max(next_capacity, size), max(_MAX_EXTENT_BYTES, size))
        self._extent_capacity.append(next_capacity)
        self._extents.append(size)
        self._capacity_total += next_capacity
        return len(self._extents) - 1

    def _free(self, extent: int, size: int) -> None:
        if 0 <= extent < len(self._extents):
            self._extents[extent] = max(0, self._extents[extent] - size)
            if extent < len(self._extents) - 1:
                free = self._extent_capacity[extent] - self._extents[extent]
                if free > self._older_free_hint:
                    self._older_free_hint = free

    def _page_fault_cost(self, touched_bytes: int) -> int:
        """Extra read cost once the padded data set exceeds available memory:
        the share of it that is not resident, ``(capacity - memory) /
        capacity``, comes off disk."""
        capacity = self._capacity_total
        if capacity <= self.memory_bytes:
            return 0
        return kilobyte_ticks(touched_bytes, self.tick_costs.disk_read_per_kb,
                              capacity - self.memory_bytes, capacity)
