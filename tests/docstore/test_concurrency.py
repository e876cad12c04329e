"""Multi-threaded stress tests for the concurrent serving work (PR 6 / E14).

Every test here started life as a reproducer for a real data race in the
seed code -- counter read-modify-writes, check-then-act get-or-create,
non-atomic structure mutation -- and now pins the fix.  The differential
tests at the bottom preserve the repo's core guarantee under concurrency:
a sharded or replicated deployment must end in exactly the state a single
server reaches, and no update may be lost and no document torn.

The suites deliberately use many threads on small data: under the GIL the
interpreter switches threads every few bytecodes, which interleaves the
critical sections densely enough that the seed races failed within a few
hundred iterations.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.docstore.btree import BTree
from repro.docstore.cache import LruCache
from repro.docstore.client import DocumentClient
from repro.docstore.collection import Collection
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.replication.oplog import OP_INSERT, Oplog
from repro.docstore.replication.replica_set import ReplicaSet
from repro.docstore.server import DocumentServer
from repro.docstore.sharding.chunks import ChunkManager
from repro.docstore.sharding.cluster import ShardedCluster
from repro.docstore.wiredtiger import WiredTigerEngine
from repro.errors import DuplicateKeyError


def run_threads(count: int, target, *args) -> list[Exception]:
    """Start ``count`` threads through a barrier; return raised exceptions."""
    barrier = threading.Barrier(count)
    errors: list[Exception] = []
    errors_lock = threading.Lock()

    def runner(worker_id: int) -> None:
        try:
            barrier.wait()
            target(worker_id, *args)
        except Exception as error:  # noqa: BLE001 - collected for the assert
            with errors_lock:
                errors.append(error)

    threads = [threading.Thread(target=runner, args=(worker,))
               for worker in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


# -- satellite 1: plan cache ------------------------------------------------------


class TestPlanCacheConcurrency:
    def test_hit_miss_counters_account_for_every_plan(self):
        """Seed race: ``cache_hits += 1`` from N threads lost increments."""
        collection = Collection("c", WiredTigerEngine())
        for index in range(32):
            collection.insert_one({"_id": f"d{index}", "value": index})
        threads, plans_each = 8, 200

        def worker(worker_id: int) -> None:
            for iteration in range(plans_each):
                collection.planner.plan({"value": iteration % 32})

        collection.planner.plan({"value": 0})  # warm one template
        before = collection.planner.cache_stats()
        errors = run_threads(threads, worker)
        assert not errors
        stats = collection.planner.cache_stats()
        accounted = (stats["hits"] - before["hits"]) + (stats["misses"]
                                                        - before["misses"])
        assert accounted == threads * plans_each

    def test_concurrent_plans_with_index_ddl_survive(self):
        """Plans racing create/drop index must never crash or misplan."""
        collection = Collection("c", WiredTigerEngine())
        for index in range(64):
            collection.insert_one({"_id": f"d{index}", "value": index % 8})
        stop = threading.Event()

        def reader(worker_id: int) -> None:
            while not stop.is_set():
                result = collection.find_with_cost({"value": worker_id % 8})
                assert len(result.documents) == 8

        def ddl() -> None:
            for __ in range(20):
                collection.create_index("value")
                collection.drop_index("value")
            stop.set()

        ddl_thread = threading.Thread(target=ddl)
        ddl_thread.start()
        errors = run_threads(4, reader)
        ddl_thread.join()
        assert not errors


# -- satellite 2: oplog -----------------------------------------------------------


class TestOplogConcurrency:
    def test_concurrent_appends_mint_unique_monotonic_optimes(self):
        """Seed race: interleaved ``_next_index`` reads minted duplicates."""
        oplog = Oplog()
        threads, appends_each = 8, 500

        def worker(worker_id: int) -> None:
            for iteration in range(appends_each):
                record_id = f"{worker_id}-{iteration}"
                oplog.append(1, OP_INSERT, "db", "c",
                             [(record_id, {"_id": record_id}, 14)])

        errors = run_threads(threads, worker)
        assert not errors
        assert len(oplog) == threads * appends_each
        optimes = [entry.optime for entry in oplog]
        for previous, current in zip(optimes, optimes[1:]):
            assert current > previous

    def test_replicated_writes_from_threads_all_reach_the_oplog(self):
        replica_set = ReplicaSet(members=3, write_concern=1)
        collection = replica_set.database("db").collection("c")
        threads, writes_each = 4, 50

        def worker(worker_id: int) -> None:
            for iteration in range(writes_each):
                collection.insert_one({"_id": f"{worker_id}-{iteration}"})

        errors = run_threads(threads, worker)
        assert not errors
        assert len(replica_set.oplog) == threads * writes_each


# -- satellite 3: chunk map and router counters -----------------------------------


class TestChunkMapConcurrency:
    def test_chunk_for_never_fails_during_splits(self):
        """Seed race: readers observed half-applied list mutations."""
        manager = ChunkManager(shard_count=4, split_threshold=2)
        points = [manager.routing_point(f"key{index}") for index in range(512)]
        stop = threading.Event()

        def reader(worker_id: int) -> None:
            while not stop.is_set():
                for index in range(0, 512, 7):
                    manager.locate(manager.routing_point(f"key{index}"))

        def splitter() -> None:
            chunks = manager.chunks()
            points_by_chunk: dict[int, list] = {}
            for point in points:
                for index, chunk in enumerate(chunks):
                    if chunk.covers(point):
                        points_by_chunk.setdefault(index, []).append(point)
                        break
            manager.split_oversized(points_by_chunk)
            stop.set()

        split_thread = threading.Thread(target=splitter)
        split_thread.start()
        errors = run_threads(4, reader)
        split_thread.join()
        assert not errors
        manager.validate()

    def test_router_counters_account_for_every_insert(self):
        """Seed race: ``targeted_operations``/``documents_routed`` lost counts."""
        cluster = ShardedCluster(shards=4, auto_maintenance=False)
        collection = cluster.database("db").collection("c")
        threads, inserts_each = 8, 100

        def worker(worker_id: int) -> None:
            for iteration in range(inserts_each):
                collection.insert_one({"_id": f"{worker_id}-{iteration}"})

        errors = run_threads(threads, worker)
        assert not errors
        total = threads * inserts_each
        assert cluster.router.targeted_operations >= total
        assert cluster.sharding_state("db", "c").documents_routed == total
        assert collection.count_documents({}) == total


# -- satellite 4: mmapv1 accounting -----------------------------------------------


class TestEngineAccountingConcurrency:
    def test_mmapv1_storage_accounting_survives_insert_delete_churn(self):
        """Seed race: extent used/free drifted from the record allocations."""
        collection = Collection("c", MmapV1Engine())
        threads, cycles = 6, 60

        def worker(worker_id: int) -> None:
            for iteration in range(cycles):
                identity = f"{worker_id}-{iteration}"
                collection.insert_one({"_id": identity,
                                       "payload": "x" * (20 + iteration % 60)})
                if iteration % 3 == 0:
                    collection.delete_one({"_id": identity})

        errors = run_threads(threads, worker)
        assert not errors
        collection.engine.verify_accounting()
        stats = collection.engine.statistics()
        assert stats["documents"] == collection.count_documents({})

    def test_wiredtiger_disk_bytes_match_tree_contents_after_churn(self):
        collection = Collection("c", WiredTigerEngine())
        threads, cycles = 6, 60

        def worker(worker_id: int) -> None:
            for iteration in range(cycles):
                identity = f"{worker_id}-{iteration}"
                collection.insert_one({"_id": identity, "n": iteration})
                collection.update_one({"_id": identity},
                                      {"$set": {"n": iteration + 1}})
                if iteration % 4 == 0:
                    collection.delete_one({"_id": identity})

        errors = run_threads(threads, worker)
        assert not errors
        collection.engine.verify_accounting()


# -- core write-path guarantees ---------------------------------------------------


class TestNoLostUpdates:
    def test_concurrent_inc_on_one_document_loses_nothing(self):
        """The signature lost-update race: read-modify-write on one document."""
        collection = Collection("c", WiredTigerEngine())
        collection.insert_one({"_id": "counter", "n": 0})
        threads, incs_each = 8, 100

        def worker(worker_id: int) -> None:
            for __ in range(incs_each):
                result = collection.update_one({"_id": "counter"},
                                               {"$inc": {"n": 1}})
                assert result.matched_count == 1

        errors = run_threads(threads, worker)
        assert not errors
        assert collection.find_one({"_id": "counter"})["n"] == threads * incs_each

    def test_concurrent_inc_on_mmapv1_loses_nothing(self):
        collection = Collection("c", MmapV1Engine())
        collection.insert_one({"_id": "counter", "n": 0})
        threads, incs_each = 8, 100

        def worker(worker_id: int) -> None:
            for __ in range(incs_each):
                collection.update_one({"_id": "counter"}, {"$inc": {"n": 1}})

        errors = run_threads(threads, worker)
        assert not errors
        assert collection.find_one({"_id": "counter"})["n"] == threads * incs_each

    @pytest.mark.parametrize("engine_class", [WiredTigerEngine, MmapV1Engine])
    def test_runs_and_single_writes_interleaved_lose_nothing(self, engine_class):
        """``update_many`` computes its post-images in its ``write_batch``
        round, so an ``$inc`` a single-document writer stored between its
        find and that round is built on, not overwritten; ``delete_many``
        removes each document once."""
        collection = Collection("c", engine_class())
        collection.create_index("group")
        collection.insert_many([{"_id": f"d{index}", "group": index % 2, "n": 0}
                                for index in range(40)])
        threads, rounds = 6, 25
        deleted: list[int] = []

        errors: list[Exception] = []

        def worker(worker_id: int) -> None:
            try:
                for step in range(rounds):
                    if worker_id % 2:
                        collection.update_many({"group": 0}, {"$inc": {"n": 1}})
                    else:
                        collection.update_one({"_id": f"d{(worker_id + step) % 40}"},
                                              {"$inc": {"n": 1}})
                    collection.insert_one({"_id": f"t{worker_id}-{step}", "group": 2})
                    deleted.append(collection.delete_many({"group": 2}).deleted_count)
            except Exception as error:  # noqa: BLE001 - collected for the assert
                errors.append(error)

        pool = [threading.Thread(target=worker, args=(worker_id,))
                for worker_id in range(threads)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not errors and not any(thread.is_alive() for thread in pool)
        documents = collection.find_with_cost({}).documents
        assert sum(deleted) == threads * rounds
        assert len(documents) == 40
        assert sum(document["n"] for document in documents) == (
            threads // 2 * rounds * 20 + threads // 2 * rounds)
        collection.engine.verify_accounting()
        assert collection.index_for("group").lookup(2) == set()

    def test_duplicate_key_race_admits_exactly_one_insert(self):
        """Two threads inserting the same ``_id``: one wins, one gets the error."""
        collection = Collection("c", WiredTigerEngine())
        outcomes: list[str] = []
        outcome_lock = threading.Lock()

        def worker(worker_id: int) -> None:
            for iteration in range(50):
                try:
                    collection.insert_one({"_id": f"shared-{iteration}"})
                    with outcome_lock:
                        outcomes.append("inserted")
                except DuplicateKeyError:
                    with outcome_lock:
                        outcomes.append("duplicate")

        errors = run_threads(4, worker)
        assert not errors
        assert outcomes.count("inserted") == 50
        assert outcomes.count("duplicate") == 150
        assert collection.count_documents({}) == 50


class TestNoTornDocuments:
    def test_readers_never_observe_half_written_documents(self):
        """Writers keep ``a == b``; a torn read would see them disagree."""
        collection = Collection("c", WiredTigerEngine())
        collection.insert_one({"_id": "doc", "a": 0, "b": 0})
        stop = threading.Event()

        def writer() -> None:
            for version in range(1, 301):
                collection.update_one(
                    {"_id": "doc"}, {"$set": {"a": version, "b": version}})
            stop.set()

        def reader(worker_id: int) -> None:
            while not stop.is_set():
                document = collection.find_one({"_id": "doc"})
                assert document is not None
                assert document["a"] == document["b"]

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        errors = run_threads(4, reader)
        writer_thread.join()
        assert not errors


# -- infrastructure pieces --------------------------------------------------------


class TestInfrastructureConcurrency:
    def test_lru_cache_stress_keeps_byte_accounting_sane(self):
        cache = LruCache(capacity_bytes=4096)
        threads, operations = 6, 400

        def worker(worker_id: int) -> None:
            for iteration in range(operations):
                key = (worker_id * 31 + iteration) % 64
                cache.put(key, size=64)
                cache.admit((key + 2) % 64, size=64)
                if iteration % 5 == 0:
                    cache.invalidate((key + 1) % 64)

        errors = run_threads(threads, worker)
        assert not errors
        assert 0 <= cache.used_bytes <= 4096

    def test_btree_readers_race_one_writer_safely(self):
        """Copy-on-write publication: readers see old or new, never between."""
        tree = BTree(order=8)
        for index in range(64):
            tree.insert(f"k{index:04d}", index)
        stop = threading.Event()

        def writer() -> None:
            for index in range(64, 512):
                tree.insert(f"k{index:04d}", index)
            stop.set()

        def reader(worker_id: int) -> None:
            while not stop.is_set():
                found, value, __ = tree.search("k0032")
                assert found and value == 32
                items = list(tree.range("k0000", "k0063"))
                assert len(items) == 64

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        errors = run_threads(4, reader)
        writer_thread.join()
        assert not errors
        tree.check_invariants()

    def test_namespace_get_or_create_yields_one_object(self):
        """Seed race: racing first accesses each built their own engine."""
        server = DocumentServer()
        seen: list[int] = []
        seen_lock = threading.Lock()

        def worker(worker_id: int) -> None:
            collection = server.database("db").collection("c")
            with seen_lock:
                seen.append(id(collection))

        errors = run_threads(8, worker)
        assert not errors
        assert len(set(seen)) == 1

    def test_sharding_state_get_or_create_yields_one_chunk_map(self):
        cluster = ShardedCluster(shards=4, auto_maintenance=False)
        seen: list[int] = []
        seen_lock = threading.Lock()

        def worker(worker_id: int) -> None:
            state = cluster.sharding_state("db", "fresh")
            with seen_lock:
                seen.append(id(state))

        errors = run_threads(8, worker)
        assert not errors
        assert len(set(seen)) == 1


# -- migrations under load --------------------------------------------------------


class TestMigrationUnderLoad:
    def test_maintenance_during_concurrent_inserts_strands_no_documents(self):
        """Assign-first + straggler sweep: every document stays reachable."""
        cluster = ShardedCluster(shards=3, strategy="range", split_threshold=8,
                                 auto_maintenance=False)
        collection = cluster.database("db").collection("c")
        threads, inserts_each = 4, 60
        stop = threading.Event()

        def inserter(worker_id: int) -> None:
            for iteration in range(inserts_each):
                collection.insert_one({"_id": f"{worker_id:02d}-{iteration:04d}"})

        def maintainer() -> None:
            while not stop.is_set():
                cluster.maintain("db", "c")
            cluster.maintain("db", "c")

        torn: list[list[str]] = []

        def limited_reader() -> None:
            # Shard streams stay suspended while chunks split and migrate
            # under them: a limited range read is still a sorted, duplicate-
            # free run of at most ``limit`` matching keys.
            while not stop.is_set():
                found = [document["_id"] for document in collection.find_with_cost(
                    {"_id": {"$gte": "01-0010"}}, limit=7).documents]
                if (found != sorted(set(found)) or len(found) > 7
                        or any(key < "01-0010" for key in found)):
                    torn.append(found)

        background = [threading.Thread(target=maintainer),
                      threading.Thread(target=limited_reader)]
        for thread in background:
            thread.start()
        errors = run_threads(threads, inserter)
        stop.set()
        for thread in background:
            thread.join(timeout=30)
        assert not errors and not torn
        assert not any(thread.is_alive() for thread in background)
        total = threads * inserts_each
        assert collection.count_documents({}) == total
        # Every document must be reachable through targeted routing -- a
        # migration that stranded a document on a non-owning shard fails here.
        for worker in range(threads):
            for iteration in range(0, inserts_each, 9):
                identity = f"{worker:02d}-{iteration:04d}"
                assert collection.find_one({"_id": identity}) is not None
        state = cluster.sharding_state("db", "c")
        state.manager.validate()


# -- differential guarantees under concurrency ------------------------------------


def run_mixed_workload(collection, threads: int = 4, operations: int = 50) -> None:
    """Deterministic-final-state workload: disjoint inserts + shared $incs."""
    collection.insert_one({"_id": "counter", "n": 0})

    def worker(worker_id: int) -> None:
        for iteration in range(operations):
            collection.insert_one({"_id": f"w{worker_id}-{iteration}",
                                   "owner": worker_id})
            collection.update_one({"_id": "counter"}, {"$inc": {"n": 1}})

    errors = run_threads(threads, worker)
    assert not errors


def expected_state(threads: int = 4, operations: int = 50) -> tuple[int, int]:
    return threads * operations + 1, threads * operations  # documents, counter


class TestDifferentialGuarantees:
    def test_sharded_cluster_matches_single_server_state(self):
        cluster = ShardedCluster(shards=3, split_threshold=16)
        collection = cluster.database("db").collection("c")
        run_mixed_workload(collection)
        documents, counter = expected_state()
        assert collection.count_documents({}) == documents
        assert collection.find_one({"_id": "counter"})["n"] == counter

    def test_replica_set_at_majority_matches_single_server_state(self):
        replica_set = ReplicaSet(members=3, write_concern="majority")
        collection = replica_set.database("db").collection("c")
        run_mixed_workload(collection)
        documents, counter = expected_state()
        assert collection.count_documents({}) == documents
        assert collection.find_one({"_id": "counter"})["n"] == counter
        # At w=majority with lag 0 the background tail keeps every member
        # converged once the writers have joined.
        for member in replica_set.members:
            member_collection = member.server.database("db").collection("c")
            assert member_collection.count_documents({}) == documents
            assert member_collection.find_one({"_id": "counter"})["n"] == counter

    @pytest.mark.parametrize("engine", ["wiredtiger", "mmapv1"])
    def test_standalone_engines_reach_identical_state(self, engine):
        server = DocumentServer(engine)
        collection = server.database("db").collection("c")
        run_mixed_workload(collection)
        documents, counter = expected_state()
        assert collection.count_documents({}) == documents
        assert collection.find_one({"_id": "counter"})["n"] == counter


# -- aggregation under concurrent writers ------------------------------------------


class TestAggregationUnderWriters:
    """Pipelines must stream safely while writers mutate the collection: no
    torn reads or crashes, and grouped counts over fields the writers never
    touch stay exact (payload updates replace whole document versions, so a
    half-applied update must never be visible to the scan)."""

    PRELOAD = 120

    def _preload(self, collection) -> dict[str, int]:
        collection.insert_many([
            {"_id": f"s{index:04d}", "category": f"cat{index % 4}",
             "counter": index, "payload": 0}
            for index in range(self.PRELOAD)
        ])
        return {f"cat{value}": self.PRELOAD // 4 for value in range(4)}

    @pytest.mark.parametrize("engine", ["wiredtiger", "mmapv1"])
    def test_standalone_group_counts_exact_under_writers(self, engine):
        server = DocumentServer(engine)
        collection = server.database("db").collection("c")
        expected = self._preload(collection)
        pipeline = [{"$group": {"_id": "$category", "n": {"$count": {}}}}]
        inserts_each, rounds = 30, 40

        def worker(worker_id: int) -> None:
            if worker_id % 2 == 0:  # writer: payload updates plus hot inserts
                for index in range(inserts_each):
                    target = (worker_id * 37 + index) % self.PRELOAD
                    collection.update_one({"_id": f"s{target:04d}"},
                                          {"$inc": {"payload": 1}})
                    collection.insert_one({"_id": f"h{worker_id}-{index}",
                                           "category": "hot", "counter": index})
            else:  # reader: grouped counts over the stable category field
                for __ in range(rounds):
                    rows = {row["_id"]: row["n"]
                            for row in collection.aggregate(pipeline).documents}
                    for category, count in expected.items():
                        assert rows.get(category) == count, rows
                    assert 0 <= rows.get("hot", 0) <= 4 * inserts_each

        errors = run_threads(8, worker)
        assert not errors

    def test_sharded_group_aggregates_exact_under_update_writers(self):
        # Updates only (no inserts): nothing triggers a chunk migration, so
        # the scatter-partial-merge totals must stay exact on every read.
        cluster = ShardedCluster(shards=3, split_threshold=10_000)
        collection = cluster.database("db").collection("c")
        expected = self._preload(collection)
        expected_totals = {
            f"cat{value}": sum(index for index in range(self.PRELOAD)
                               if index % 4 == value)
            for value in range(4)
        }
        pipeline = [{"$group": {"_id": "$category", "n": {"$count": {}},
                                "total": {"$sum": "$counter"}}}]

        def worker(worker_id: int) -> None:
            if worker_id % 2 == 0:
                for index in range(40):
                    target = (worker_id * 31 + index) % self.PRELOAD
                    collection.update_one({"_id": f"s{target:04d}"},
                                          {"$inc": {"payload": 1}})
            else:
                for __ in range(30):
                    rows = {row["_id"]: row
                            for row in collection.aggregate(pipeline).documents}
                    for category in expected:
                        assert rows[category]["n"] == expected[category]
                        assert rows[category]["total"] == expected_totals[category]
                    assert set(collection.distinct("category")) == set(expected)

        errors = run_threads(8, worker)
        assert not errors


# -- PR 8 satellite: profiler correctness under concurrency -----------------------


class TestProfilerUnderConcurrency:
    """The slow-op log must be exact under contention: every operation above
    the threshold appears exactly once, and no recorded span is torn (fields
    from two different operations mixed into one record)."""

    THREADS = 8
    OPS_PER_THREAD = 40
    RECORDS = 200

    def _build_server(self) -> tuple[DocumentServer, object]:
        server = DocumentServer("wiredtiger")
        collection = server.database("db").collection("c")
        collection.insert_many([
            {"_id": f"k{index:04d}", "counter": index,
             "category": f"cat{index % 4}"}
            for index in range(self.RECORDS)
        ])
        collection.create_index("counter")
        server.set_profiling(
            2, slow_ms=0.0,
            capacity=self.THREADS * self.OPS_PER_THREAD + 10)
        return server, collection

    def test_every_op_recorded_exactly_once(self):
        server, collection = self._build_server()
        # Each thread issues a distinct query shape per op slot, so every
        # recorded span is attributable to exactly one (thread, op) pair.
        def worker(worker_id: int) -> None:
            for index in range(self.OPS_PER_THREAD):
                collection.find_one(
                    {"_id": f"k{(worker_id * 31 + index) % self.RECORDS:04d}",
                     f"w{worker_id}": {"$exists": False}})

        errors = run_threads(self.THREADS, worker)
        assert not errors
        entries = server.get_slow_ops()
        assert len(entries) == self.THREADS * self.OPS_PER_THREAD
        described = server.profiler.describe()
        assert described["slow_ops_recorded"] == len(entries)
        assert described["slow_ops_dropped"] == 0
        assert described["in_flight"] == 0

        # Exactly-once: every (thread, slot) shape appears once.  The shape
        # string embeds the wN marker field, so counting shapes per thread
        # proves no span was lost or double-recorded.
        per_thread: dict[str, int] = {}
        for entry in entries:
            assert entry["op"] == "query"
            marker = [key for key in entry["shape"].split('"')
                      if key.startswith("w") and key[1:].isdigit()]
            assert len(marker) == 1, entry
            per_thread[marker[0]] = per_thread.get(marker[0], 0) + 1
        assert per_thread == {f"w{worker}": self.OPS_PER_THREAD
                              for worker in range(self.THREADS)}

        # No torn spans: every record is internally consistent.
        opids = set()
        for entry in entries:
            assert entry["opid"] not in opids
            opids.add(entry["opid"])
            assert entry["ns"] == "db.c"
            assert entry["access_path"] == "ID_LOOKUP"
            assert entry["docs_returned"] == 1
            assert entry["docs_examined"] == 1
            assert entry["simulated_ms"] > 0.0
            assert entry["duration_ms"] >= 0.0
            assert entry["lock_wait_ms"] >= 0.0

    def test_mixed_ops_with_writes_stay_consistent(self):
        server, collection = self._build_server()

        def worker(worker_id: int) -> None:
            for index in range(self.OPS_PER_THREAD):
                target = (worker_id * 17 + index) % self.RECORDS
                if worker_id % 2 == 0:
                    collection.update_one({"_id": f"k{target:04d}"},
                                          {"$inc": {"payload": 1}})
                else:
                    collection.find_one({"_id": f"k{target:04d}"})

        errors = run_threads(self.THREADS, worker)
        assert not errors
        entries = server.get_slow_ops()
        assert len(entries) == self.THREADS * self.OPS_PER_THREAD
        by_op = {"query": 0, "update": 0}
        for entry in entries:
            by_op[entry["op"]] += 1
            if entry["op"] == "update":
                assert entry["matched"] == 1 and entry["modified"] == 1
        half = self.THREADS * self.OPS_PER_THREAD // 2
        assert by_op == {"query": half, "update": half}
        counters = server.metrics.snapshot()["counters"]
        assert counters["operations.query"] == half
        assert counters["operations.update"] == half


class TestParallelRouterUnderConcurrency:
    """Concurrent client threads over the *parallel* router: fan-out worker
    threads must not tear spans, double-record profiling, or lose updates.

    Every client thread scatters across every shard on every op (non-key
    predicates), so worker-pool dispatch, span assembly and LockStats
    attribution are all exercised from many calling threads at once."""

    THREADS = 6
    OPS_PER_THREAD = 25
    RECORDS = 120

    def _build_cluster(self):
        cluster = ShardedCluster(shards=4, split_threshold=10_000)
        handle = DocumentClient(cluster).collection("db", "c")
        handle.insert_many([
            {"_id": f"k{index:04d}", "counter": 0, "category": index % 4}
            for index in range(self.RECORDS)
        ])
        capacity = self.THREADS * self.OPS_PER_THREAD + 10
        cluster.set_profiling(2, slow_ms=0.0, capacity=capacity)
        return cluster, handle

    def test_scattered_incs_lose_nothing_and_spans_record_once(self):
        cluster, handle = self._build_cluster()

        def worker(worker_id: int) -> None:
            for index in range(self.OPS_PER_THREAD):
                if index % 5 == 0:
                    # Broadcast read with a thread marker: its span is
                    # attributable to exactly one (thread, slot) pair.
                    handle.find({"category": {"$gte": 0},
                                 f"w{worker_id}": {"$exists": False}})
                else:
                    # Scatter update: every shard $incs its slice.
                    handle.update_many({"category": {"$gte": 0}},
                                       {"$inc": {"counter": 1}})

        errors = run_threads(self.THREADS, worker)
        assert not errors
        cluster.set_profiling(0)  # the checks below must not add spans

        # No lost $inc: every scattered update_many bumped every document.
        updates = self.THREADS * self.OPS_PER_THREAD * 4 // 5
        documents = handle.find({})
        assert len(documents) == self.RECORDS
        assert all(doc["counter"] == updates for doc in documents)

        # Exactly-once router spans, none torn.
        router_entries = [entry for entry in cluster.get_slow_ops()
                          if entry["source"] == "router"]
        assert len(router_entries) == self.THREADS * self.OPS_PER_THREAD
        described = cluster.profiler.describe()
        assert described["slow_ops_recorded"] == len(router_entries)
        assert described["slow_ops_dropped"] == 0
        assert described["in_flight"] == 0
        opids = set()
        reads = 0
        for entry in router_entries:
            assert entry["opid"] not in opids
            opids.add(entry["opid"])
            assert entry["ns"] == "db.c"
            children = [child for child in entry["shards"]
                        if child["shard"] != "balancer"]
            assert {child["shard"] for child in children} == {
                f"shard{index}" for index in range(4)}
            assert entry["parallel"] is True
            assert entry["straggler"] in {child["shard"] for child in children}
            for child in children:
                assert child["wall_ms"] >= 0.0
            if entry["op"] == "query":
                reads += 1
                assert entry["docs_returned"] == self.RECORDS
            else:
                assert entry["op"] == "update"
                assert entry["matched"] == self.RECORDS
        assert reads == self.THREADS * self.OPS_PER_THREAD // 5
