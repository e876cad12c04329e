"""Tests for the two storage engines and their cost/concurrency models."""

from __future__ import annotations

import inspect
import random
from fractions import Fraction

import pytest

from repro.docstore.collection import Collection
from repro.docstore.cost import ConcurrencyProfile, CostParameters
from repro.docstore.engine_base import StorageEngine
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.wiredtiger import (
    _MISS_TICKS_LIMIT,
    DEFAULT_COMPRESSION_RATIO,
    WiredTigerEngine,
)
from tests.docstore.engine_helpers import shape, store_one
from tests.docstore.reference import ReferenceStore, measure_document


def small_doc(index: int = 0) -> dict:
    return {"_id": f"d{index}", "value": "x" * 200, "n": index}



@pytest.fixture(params=[WiredTigerEngine, MmapV1Engine], ids=["wiredtiger", "mmapv1"])
def engine(request):
    return request.param()



class TestEngineContract:
    """Behaviour both engines must share."""

    def test_insert_read_roundtrip(self, engine):
        store_one(engine, "a", small_doc())
        document, cost = engine.read("a")
        assert document["value"] == "x" * 200
        assert cost > 0

    def test_read_returns_stored_object_without_copying(self, engine):
        # Copy-on-write contract: engines never copy.  The write boundary
        # (Collection) freezes documents before handing them over, and the
        # client surface makes the single defensive copy on the way out --
        # so the engine returns the exact stored object by reference.
        frozen = small_doc()
        store_one(engine, "a", frozen)
        document, _ = engine.read("a")
        assert document is frozen
        assert engine.read("a")[0] is frozen

    def test_read_missing(self, engine):
        document, cost = engine.read("missing")
        assert document is None
        assert cost > 0

    def test_update_replaces_document(self, engine):
        store_one(engine, "a", small_doc())
        store_one(engine, "a", {"_id": "a", "value": "new"})
        assert engine.read("a")[0]["value"] == "new"

    def test_delete(self, engine):
        store_one(engine, "a", small_doc())
        store_one(engine, "a")
        assert engine.read("a")[0] is None
        assert engine.count() == 0

    def test_delete_missing_raises(self, engine):
        with pytest.raises(KeyError):
            store_one(engine, "missing")

    def test_a_batch_that_repeats_an_id_keeps_its_accounting(self, engine):
        """The second record of an id is an update of the first, whatever the
        batch: the running totals stay those of the records stored."""
        engine.store_batch([("a", small_doc(), 230), ("b", small_doc(1), 230),
                            ("a", {"_id": "a", "value": "y" * 900}, 930),
                            ("b", None, 0), ("b", small_doc(2), 230)])
        assert engine.count() == 2
        assert engine.read("a")[0] == {"_id": "a", "value": "y" * 900}
        assert {name: engine.costs.counts[name]
                for name in ("insert", "update", "delete")} == {
            "insert": 3, "update": 1, "delete": 1}
        engine.verify_accounting()

    def test_scan_returns_all_documents(self, engine):
        for index in range(10):
            store_one(engine, f"d{index}", small_doc(index))
        scanned = {record_id for record_id, _ in engine.scan_uncharged()}
        assert scanned == {f"d{index}" for index in range(10)}

    def test_costs_are_accumulated(self, engine):
        store_one(engine, "a", small_doc())
        engine.read("a")
        assert engine.costs.total_seconds > 0
        assert engine.costs.counts["insert"] == 1

    def test_storage_bytes_grow_with_data(self, engine):
        before = engine.storage_bytes()
        for index in range(20):
            store_one(engine, f"d{index}", small_doc(index))
        assert engine.storage_bytes() > before

    def test_statistics_shape(self, engine):
        store_one(engine, "a", small_doc())
        stats = engine.statistics()
        assert stats["documents"] == 1
        assert stats["engine"] in ("wiredtiger", "mmapv1")
        assert "locks" in stats and "operations" in stats

    def test_index_maintenance_cost(self, engine):
        assert engine.index_maintenance_cost(0) == 0.0
        assert engine.index_maintenance_cost(3) > 0.0


#: Compression ratios the miss formula and the miss memo are tested at.
MISS_RATIOS = [DEFAULT_COMPRESSION_RATIO, 0.1, 1 / 3, 0.7, 1.0]


def miss_sizes(ratio: float) -> list[int]:
    """Every size up to 4 KiB, both sides of where the compressed block
    reaches the 128-byte floor, and a few large ones."""
    return [*range(4096), int(128 / ratio) - 1, int(128 / ratio) + 1,
            1 << 20, (1 << 24) - 1, 10 ** 9 + 7]


class TestWiredTigerSpecifics:
    def test_compression_reduces_footprint_vs_mmapv1(self):
        wired, mmap = WiredTigerEngine(), MmapV1Engine()
        for index in range(50):
            store_one(wired, f"d{index}", small_doc(index))
            store_one(mmap, f"d{index}", small_doc(index))
        assert wired.storage_bytes() < mmap.statistics()["allocated_bytes"]

    def test_cache_hit_makes_second_read_cheaper(self):
        engine = WiredTigerEngine(cache_bytes=1024 * 1024)
        store_one(engine, "a", small_doc())
        # Evict from cache by clearing it to force a disk read first.
        engine._cache.clear()
        _, cold = engine.read("a")
        _, warm = engine.read("a")
        assert warm < cold

    @pytest.mark.parametrize("ratio", MISS_RATIOS)
    def test_a_miss_costs_what_the_kilobytes_formula_says(self, ratio):
        """``_miss_cost`` writes ``kilobyte_ticks`` out inline: the block
        read and the decompression, each exact as a fraction and rounded to
        the nearest tick, a half up -- around the 128-byte floor (of the
        document and of its compressed block) and where ``size * ratio``
        lands on, or rounds onto, an integer (``3 * (1 / 3)`` and ``10 * 0.7``
        are both products a float rounds up: the exact ones are below 1 and
        7)."""
        engine = WiredTigerEngine(compression_ratio=ratio)
        tick_costs = engine.tick_costs

        def rounded(size: int, ticks_per_kb: int) -> int:
            exact = Fraction(max(size, 128) * ticks_per_kb, 1024)
            return int(exact + Fraction(1, 2))  # a half rounds up

        for size in miss_sizes(ratio):
            compressed = int(size * ratio)
            assert engine._miss_cost(size) == (
                rounded(compressed, tick_costs.disk_read_per_kb)
                + rounded(size, tick_costs.compression_per_kb))
        assert int(3 * (1 / 3)) == 1 and int(10 * 0.7) == 7

    @pytest.mark.parametrize("ratio", MISS_RATIOS)
    def test_the_miss_memo_holds_what_miss_cost_says(self, ratio):
        """The read paths bill a miss through ``_miss_ticks(size)``: every
        size the formula test walks -- over three times the memo's limit,
        so it evicts on the way, and walked twice -- costs
        ``_miss_cost(size)``, and the memo never holds more than its
        limit."""
        engine = WiredTigerEngine(compression_ratio=ratio)
        memo, sizes = engine._miss_ticks, miss_sizes(ratio)
        assert len(set(sizes)) > 3 * _MISS_TICKS_LIMIT
        assert memo.cache_info().maxsize == _MISS_TICKS_LIMIT
        for size in sizes + sizes:
            assert memo(size) == engine._miss_cost(size)
            assert memo.cache_info().currsize <= _MISS_TICKS_LIMIT
        info = memo.cache_info()
        assert info.currsize == _MISS_TICKS_LIMIT
        assert info.misses >= len(set(sizes)) + _MISS_TICKS_LIMIT  # evicted

    def test_verify_accounting_checks_the_cache(self):
        engine = WiredTigerEngine(cache_bytes=2_000)
        for index in range(30):
            store_one(engine, f"d{index}", small_doc(index))
        engine.read("d0")
        engine.verify_accounting()
        cache = engine._cache
        cache._used += 1  # a lost update of the running total
        with pytest.raises(AssertionError, match="cache byte drift"):
            engine.verify_accounting()
        cache._used -= 1
        cache._entries["d0"] += cache.capacity_bytes
        cache._used += cache.capacity_bytes  # in step, over budget
        with pytest.raises(AssertionError, match="cache over budget"):
            engine.verify_accounting()

    def test_invalid_compression_ratio_rejected(self):
        with pytest.raises(ValueError):
            WiredTigerEngine(compression_ratio=0.0)

    def test_document_level_concurrency_profile(self):
        profile = WiredTigerEngine.concurrency
        assert profile.serial_write_fraction < 0.2
        assert profile.speedup(8, write_ratio=0.5) > 4.0

    def test_a_reader_between_two_records_of_a_run_sees_the_tree_before_it(
            self, monkeypatch):
        engine = WiredTigerEngine()
        for index in range(100):
            store_one(engine, f"d{index:03d}", small_doc(index))
        before = list(engine.scan_uncharged())
        looked = []
        put = engine._cache.put

        def put_then_look(record_id, size):  # between two records of the run
            looked.append((engine.peek(record_id) or (None, 0))[0])
            assert list(engine.scan_uncharged()) == before
            put(record_id, size)

        monkeypatch.setattr(engine._cache, "put", put_then_look)
        run = [(f"d{index:03d}", small_doc(-index), measure_document(small_doc(-index)))
               for index in range(50, 150)]
        engine.store_batch(run)
        assert looked == [dict(before)[f"d{index:03d}"] for index in range(50, 100)] + [
            None] * 50
        assert [engine.peek(record_id) for record_id, __, __size in run] == [
            (document, size) for __, document, size in run]

    def test_a_run_that_fails_publishes_what_it_stored(self):
        engine, looped = WiredTigerEngine(), WiredTigerEngine()
        records = [(f"d{index}", small_doc(index), measure_document(small_doc(index)))
                   for index in range(30)]
        with pytest.raises(KeyError):
            engine.store_batch([*records, ("d3", None, 0), ("missing", None, 0),
                                ("d4", None, 0)])
        for record in [*records, ("d3", None, 0)]:
            looped.store_batch([record])
        assert list(engine.scan_uncharged()) == list(looped.scan_uncharged())
        assert engine.costs.snapshot() == looped.costs.snapshot()
        assert len(engine._tree) == 29
        engine.verify_accounting()

    def test_statistics_include_cache_and_depth(self):
        engine = WiredTigerEngine()
        store_one(engine, "a", small_doc())
        stats = engine.statistics()
        assert "cache" in stats and "btree_depth" in stats


class TestMmapV1Specifics:
    def test_padding_allows_in_place_growth(self):
        engine = MmapV1Engine(padding_factor=2.0)
        store_one(engine, "a", small_doc())
        store_one(engine, "a", {"_id": "a", "value": "x" * 250, "n": 0})
        assert engine.statistics()["document_moves"] == 0

    def test_outgrowing_padding_moves_document(self):
        engine = MmapV1Engine(padding_factor=1.1)
        store_one(engine, "a", small_doc())
        store_one(engine, "a", {"_id": "a", "value": "x" * 5000, "n": 0})
        assert engine.statistics()["document_moves"] == 1

    def test_document_move_costs_more_than_in_place(self):
        generous = MmapV1Engine(padding_factor=3.0)
        tight = MmapV1Engine(padding_factor=1.05)
        for engine in (generous, tight):
            store_one(engine, "a", small_doc())
        in_place = store_one(generous, "a", {"_id": "a", "value": "y" * 210, "n": 0})
        moved = store_one(tight, "a", {"_id": "a", "value": "y" * 2000, "n": 0})
        assert moved > in_place

    def test_collection_level_concurrency_profile(self):
        profile = MmapV1Engine.concurrency
        assert profile.serial_write_fraction > 0.8
        assert profile.speedup(8, write_ratio=1.0) < 2.0

    def test_extents_grow_geometrically(self):
        engine = MmapV1Engine()
        for index in range(200):
            store_one(engine, f"d{index}", small_doc(index))
        stats = engine.statistics()
        assert stats["extents"] >= 2
        assert engine.storage_bytes() >= stats["allocated_bytes"]

    def test_page_faults_appear_when_memory_exceeded(self):
        small_memory = MmapV1Engine(memory_bytes=10_000)
        large_memory = MmapV1Engine(memory_bytes=100_000_000)
        for engine in (small_memory, large_memory):
            for index in range(100):
                store_one(engine, f"d{index}", small_doc(index))
        _, constrained = small_memory.read("d50")
        _, unconstrained = large_memory.read("d50")
        assert constrained > unconstrained

    def test_invalid_padding_rejected(self):
        with pytest.raises(ValueError):
            MmapV1Engine(padding_factor=0.9)

    def test_storage_bytes_running_total_matches_sum(self):
        """The O(1) running footprint equals the summed extent capacities
        under an insert/update/delete churn (including document moves)."""
        engine = MmapV1Engine(padding_factor=1.2)
        for index in range(150):
            store_one(engine, f"d{index}", small_doc(index))
        for index in range(0, 150, 3):
            store_one(engine, f"d{index}",
                          {"_id": f"d{index}", "value": "y" * (300 + index * 7),
                           "n": index})
        for index in range(0, 150, 5):
            store_one(engine, f"d{index}")
        for index in range(150, 220):
            store_one(engine, f"d{index}", small_doc(index))
        assert engine.storage_bytes() == sum(engine._extent_capacity)
        assert engine.statistics()["storage_bytes"] == sum(engine._extent_capacity)

    def test_free_space_hint_reuses_freed_extent_space(self):
        """Deleting records raises the hint so first-fit reuse still happens."""
        engine = MmapV1Engine()
        for index in range(300):
            store_one(engine, f"d{index}", small_doc(index))
        extents_before = len(engine._extent_capacity)
        # Free a chunk of early records, then insert same-sized ones: they
        # must land in the freed space instead of growing new extents.
        for index in range(100):
            store_one(engine, f"d{index}")
        for index in range(100):
            store_one(engine, f"r{index}", small_doc(index))
        assert len(engine._extent_capacity) == extents_before
        assert engine.storage_bytes() == sum(engine._extent_capacity)


class TestEngineDifferential:
    """Both engines must answer what the reference store answers: same
    documents, same counts for an operation sequence whose documents grow and
    shrink -- only the simulated costs differ."""

    @staticmethod
    def run_sequence(collection: Collection | ReferenceStore, seed: int = 17):
        """A seeded CRUD mix; returns (sorted documents, operation outcomes)."""
        rng = random.Random(seed)
        outcomes = []
        inserted = 0
        for step in range(400):
            roll = rng.random()
            key = f"d{rng.randrange(max(inserted, 1))}"
            if roll < 0.35 or inserted < 5:
                result = collection.insert_one(
                    {"_id": f"d{inserted}", "n": inserted,
                     "payload": "x" * rng.randrange(50, 400),
                     "category": f"c{inserted % 4}"})
                outcomes.append(("insert", tuple(result.inserted_ids)))
                inserted += 1
            elif roll < 0.55:
                result = collection.update_one(
                    {"_id": key}, {"$set": {"payload": "y" * rng.randrange(50, 800)}})
                outcomes.append(("update", result.matched_count, result.modified_count))
            elif roll < 0.65:
                result = collection.update_many({"category": f"c{rng.randrange(4)}"},
                                                {"$inc": {"n": 1}})
                outcomes.append(("update_many", result.matched_count,
                                 result.modified_count))
            elif roll < 0.75:
                result = collection.delete_one({"_id": key})
                outcomes.append(("delete", result.deleted_count))
            elif roll < 0.85:
                documents = collection.find_with_cost(
                    {"category": f"c{rng.randrange(4)}"}).documents
                outcomes.append(("find", sorted(d["_id"] for d in documents)))
            else:
                outcomes.append(("count", collection.count_documents()))
            if step == 100:
                outcomes.append(("index", collection.create_index("category")))
        documents = sorted(collection.find_with_cost({}).documents,
                           key=lambda document: document["_id"])
        return documents, outcomes

    def test_seeded_sequence_yields_identical_state_and_outcomes(self, engine):
        assert (self.run_sequence(Collection("diff", engine))
                == self.run_sequence(ReferenceStore()))

    def test_costs_differ_while_state_matches(self):
        wired, mmap = WiredTigerEngine(), MmapV1Engine()
        self.run_sequence(Collection("diff", wired))
        self.run_sequence(Collection("diff", mmap))
        assert wired.count() == mmap.count()
        assert wired.costs.total_seconds != mmap.costs.total_seconds


def mixed_records(seed: int, count: int = 300) -> list[tuple]:
    """A seeded run of ``(record_id, post_image, size)`` records over sixty
    ids: inserts, the same id again (an update, growing or shrinking), and
    deletes of ids stored earlier in the run -- re-inserted later."""
    rng = random.Random(seed)
    held: set[str] = set()
    records = []
    for step in range(count):
        record_id = f"d{rng.randrange(60)}"
        if record_id in held and rng.random() < 0.25:
            records.append((record_id, None, 0))
            held.discard(record_id)
        else:
            document = {"_id": record_id, "value": "x" * rng.randrange(50, 900),
                        "n": step}
            records.append((record_id, document, measure_document(document)))
            held.add(record_id)
    return records


#: Engines that make a run do everything a record can cost: a small cache
#: evicts, tight padding moves documents, little memory pages them in.
TIGHT = {"wiredtiger": lambda: WiredTigerEngine(cache_bytes=8 * 1024),
         "mmapv1": lambda: MmapV1Engine(padding_factor=1.05, memory_bytes=16 * 1024)}


class TestEngineSurface:
    """``StorageEngine`` is the whole interface: what an engine can be asked
    is declared there once, so a second way in (a write beside
    ``store_batch``, say) shows up here before it shows up in a caller."""

    @staticmethod
    def public(cls) -> set[str]:
        return {name for name, __ in inspect.getmembers(cls, callable)
                if not name.startswith("_")}

    @pytest.mark.parametrize("engine_class", [WiredTigerEngine, MmapV1Engine])
    def test_an_engine_has_no_public_method_the_interface_lacks(self, engine_class):
        assert self.public(engine_class) == self.public(StorageEngine)

    @pytest.mark.parametrize("engine_class",
                             [WiredTigerEngine, MmapV1Engine, StorageEngine])
    def test_store_batch_is_the_only_write_an_engine_implements(self, engine_class):
        writes = {"store_batch", "insert", "update", "delete", "insert_batch"}
        assert writes & set(vars(engine_class)) == {"store_batch"}

    @pytest.mark.parametrize("kind", sorted(TIGHT))
    @pytest.mark.parametrize("seed", [3, 8])
    def test_a_batch_equals_its_records_stored_one_at_a_time(self, kind, seed):
        batched, looped = TIGHT[kind](), TIGHT[kind]()
        records = mixed_records(seed)
        assert {document is None for __, document, __size in records} == {
            True, False}
        for batch in records[:120], records[120:]:
            assert batched.store_batch(batch) == sum(
                looped.store_batch([record]) for record in batch)
            assert batched.costs.snapshot() == looped.costs.snapshot()
            assert (list(batched.scan_uncharged())
                    == list(looped.scan_uncharged()))
            assert batched.statistics() == looped.statistics()
        counts = batched.costs.counts
        assert counts["update"] and counts["delete"] and counts["insert"] > 60
        statistics = batched.statistics()
        if kind == "wiredtiger":
            assert statistics["cache"]["evictions"] > 0
            assert list(batched._cache._entries.items()) == list(
                looped._cache._entries.items())
            # A run writes through one B-tree writer: node for node the loop's
            # tree, and the node accesses the loop's writes made.
            assert shape(batched._tree._root) == shape(looped._tree._root)
            assert batched._tree.node_accesses == looped._tree.node_accesses
        else:
            assert statistics["document_moves"] > 0
            assert batched._page_fault_cost(1024) > 0
        batched.verify_accounting()
        looped.verify_accounting()

    def test_an_index_bill_for_many_is_the_bills_for_one(self, engine):
        looped = type(engine)()
        assert (engine.index_maintenance_cost(2, operations=150)
                == looped.index_maintenance_cost(2))
        for __ in range(149):
            looped.index_maintenance_cost(2)
        assert engine.costs.snapshot() == looped.costs.snapshot()


class TestConcurrencyProfile:
    def test_single_thread_is_never_scaled(self):
        profile = ConcurrencyProfile(0.5, 0.1, 0.9)
        assert profile.speedup(1, 0.5) == 1.0

    def test_speedup_bounded_by_thread_count(self):
        profile = ConcurrencyProfile(0.0, 0.0, 1.0)
        assert profile.speedup(8, 0.0) <= 8.0

    def test_fully_serial_workload_does_not_scale(self):
        profile = ConcurrencyProfile(1.0, 1.0, 1.0)
        assert profile.speedup(16, 1.0) == 1.0

    def test_read_heavy_scales_better_than_write_heavy_for_mmap(self):
        profile = MmapV1Engine.concurrency
        assert profile.speedup(8, write_ratio=0.05) > profile.speedup(8, write_ratio=0.95)


class TestCostParameters:
    def test_parameters_can_be_overridden(self):
        slow_disk = CostParameters(disk_write_per_kb=1e-3)
        default = WiredTigerEngine()
        slow = WiredTigerEngine(parameters=slow_disk)
        default_cost = store_one(default, "a", small_doc())
        slow_cost = store_one(slow, "a", small_doc())
        assert slow_cost > default_cost
