"""The parallel dispatch layer: ShardExecutor and the router on top of it.

Three guarantee families:

* the executor itself -- shard_id-ordered results, real concurrency (a
  fan-out of sleeping tasks finishes in ~max, not ~sum), deterministic
  exception propagation, a clean close() that degrades to serial, and
  ``scatter`` as the one place that decides between the two;
* open == closed == the reference store -- the same seeded CRUD and
  aggregation sequences produce document-for-document the reference's
  results whether the cluster's pool is open (parallel fan-out) or closed
  (serial), so the dispatch can never change answers, only wall-clock;
* failover from worker threads -- a primary killed mid-fan-out is found
  dead *inside* a worker, and the shard's election there must converge
  exactly as it does inline, while unrecoverable errors surface on the
  calling thread.

And what stays out of the dispatch layer: an operation with one owner takes
the router's single-owner lane -- equal, answer for answer and second for
second, to the owner sent through ``_fanout`` and the multi-shard merge (the
reference kept here), with the same failover contract -- on the stand-ins a
deployment keeps per namespace and a replica set's kept liveness.
"""

from __future__ import annotations

import ast
import random
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.docstore.aggregation import (
    apply_stages,
    combine_partial_groups,
    merge_shard_streams,
    split_pipeline,
)
from repro.docstore.client import CollectionHandle, DocumentClient
from repro.docstore.collection import OperationResult
from repro.docstore.cost import CostParameters
from repro.docstore.operations import QUERY_ROUTED_WRITES, READ, ROUTED
from repro.docstore.replication.failures import FailureInjector
from repro.docstore.replication.replica_set import ReplicaSet
from repro.docstore.sharding import ShardedCluster, ShardExecutor
from repro.docstore.sharding.router import combine_shard_costs
from repro.docstore.values import key, order
from repro.errors import NoPrimaryError
from tests.docstore.reference import ReferenceStore, every_row


class TestShardExecutor:
    def test_results_come_back_in_given_shard_order(self):
        executor = ShardExecutor(6)
        # Later shards finish first; the result list must still follow the
        # order the ids were given in.
        def task(shard_id: int) -> int:
            time.sleep(0.002 * (6 - shard_id))
            return shard_id * 10
        results, walls = executor.scatter([0, 2, 3, 5], task)
        assert results == [0, 20, 30, 50]
        assert len(walls) == 4 and all(wall > 0.0 for wall in walls)
        executor.close()

    def test_workers_spawn_lazily_per_shard(self):
        executor = ShardExecutor(4)
        assert executor.active_workers() == 0
        # Single-shard dispatch stays inline: still no workers.
        results, __ = executor.scatter([2], lambda shard_id: shard_id)
        assert results == [2]
        assert executor.active_workers() == 0
        # A real fan-out runs the first shard on the caller and spawns
        # workers only for the remaining shards.
        executor.scatter([0, 1], lambda shard_id: shard_id)
        assert executor.active_workers() == 2
        executor.scatter([0, 1, 2, 3], lambda shard_id: shard_id)
        assert executor.active_workers() == 6  # shard 0 still caller-run
        executor.close()

    def test_fanout_wall_clock_is_max_not_sum(self):
        executor = ShardExecutor(4)
        nap = 0.05
        started = time.perf_counter()
        __, walls = executor.scatter(
            [0, 1, 2, 3], lambda shard_id: time.sleep(nap))
        elapsed = time.perf_counter() - started
        # Serial would cost 4 * nap; allow generous scheduling slack and
        # still require clearly-parallel behaviour.
        assert elapsed < 3 * nap
        assert all(wall >= nap for wall in walls)
        executor.close()

    def test_exception_surfaces_from_lowest_failing_shard(self):
        executor = ShardExecutor(4)
        completed: list[int] = []

        def task(shard_id: int) -> int:
            if shard_id in (1, 3):
                raise ValueError(f"shard{shard_id} failed")
            completed.append(shard_id)
            return shard_id

        with pytest.raises(ValueError, match="shard1 failed"):
            executor.scatter([0, 1, 2, 3], task)
        # Every non-failing task still ran to completion (a real scatter
        # cannot recall in-flight sub-operations).
        assert sorted(completed) == [0, 2]
        executor.close()

    def test_caller_thread_exception_also_propagates(self):
        executor = ShardExecutor(2)

        def task(shard_id: int) -> int:
            if shard_id == 0:  # shard 0 runs inline on the caller
                raise RuntimeError("inline failure")
            return shard_id

        with pytest.raises(RuntimeError, match="inline failure"):
            executor.scatter([0, 1], task)
        executor.close()

    def test_close_degrades_to_serial_and_is_idempotent(self):
        executor = ShardExecutor(3)
        executor.scatter([0, 1, 2], lambda shard_id: shard_id)
        executor.close()
        executor.close()
        assert executor._closed
        results, walls = executor.scatter([0, 1, 2], lambda shard_id: -shard_id)
        assert results == [0, -1, -2]
        assert len(walls) == 3

    def test_concurrent_callers_share_the_pool(self):
        executor = ShardExecutor(4)
        outputs: dict[int, list[int]] = {}
        lock = threading.Lock()

        def caller(caller_id: int) -> None:
            results, __ = executor.scatter(
                [0, 1, 2, 3], lambda shard_id: caller_id * 100 + shard_id)
            with lock:
                outputs[caller_id] = results

        threads = [threading.Thread(target=caller, args=(caller_id,))
                   for caller_id in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outputs == {caller_id: [caller_id * 100 + shard
                                       for shard in range(4)]
                           for caller_id in range(6)}
        executor.close()


SOURCE = Path(repro.__file__).parent


def attributes(path: Path) -> list[ast.Attribute]:
    """Every ``<expression>.<name>`` of the module at ``path``."""
    return [node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)]


class TestOneSelector:
    """``ShardExecutor.scatter`` alone decides how a fan-out runs."""

    def test_only_the_executor_runs_serially(self):
        callers = {path.relative_to(SOURCE).as_posix()
                   for path in SOURCE.rglob("*.py")
                   if any(node.attr == "run_serial" for node in attributes(path))}
        assert callers == {"docstore/sharding/executor.py"}

    def test_the_router_reaches_the_executor_only_through_scatter(self):
        found = attributes(SOURCE / "docstore" / "sharding" / "router.py")
        executors = [node for node in found if node.attr == "executor"]
        scattered = [node.value for node in found if node.attr == "scatter"]
        assert len(executors) == 2  # ``_fanout`` and ``_insert_segment``
        assert {id(node) for node in executors} == {id(node) for node in scattered}


def make_handle(shards: int, strategy: str = "hash",
                open_pool: bool = True) -> CollectionHandle:
    server = ShardedCluster(shards=shards, strategy=strategy, split_threshold=16)
    if not open_pool:
        server.close()  # a closed pool fans out serially
    return DocumentClient(server).collection("app", "users")


def run_aggregations(handle: CollectionHandle | ReferenceStore, seed: int = 11):
    """Seeded aggregation + distinct mix; returns comparable outcomes."""
    rng = random.Random(seed)
    handle.insert_many([
        {"_id": f"doc{index}", "n": rng.randrange(1000),
         "group": index % 7, "flag": index % 3 == 0}
        for index in range(240)
    ])
    outcomes = []
    outcomes.append(("group", sorted(
        (row["_id"], row["total"], row["peak"]) for row in handle.aggregate([
            {"$group": {"_id": "$group", "total": {"$sum": "$n"},
                        "peak": {"$max": "$n"}}},
        ]))))
    outcomes.append(("match_group", handle.aggregate([
        {"$match": {"flag": True}},
        {"$group": {"_id": None, "count": {"$sum": 1}, "avg": {"$avg": "$n"}}},
    ])))
    outcomes.append(("sort_limit", [
        (row["_id"], row["n"]) for row in handle.aggregate([
            {"$sort": {"n": 1, "_id": 1}}, {"$limit": 25},
        ])]))
    outcomes.append(("distinct", handle.distinct("group")))
    outcomes.append(("distinct_filtered",
                     handle.distinct("group", {"n": {"$gte": 500}})))
    outcomes.append(("count", handle.count_documents({"n": {"$lt": 300}})))
    return outcomes


class TestParallelEqualsSerialEqualsStandalone:
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("strategy", ["hash", "range"])
    def test_crud_sequences_identical_across_modes(self, shards, strategy):
        expected = every_row(ReferenceStore(), seed=3)
        for open_pool in (True, False):
            handle = make_handle(shards, strategy, open_pool)
            assert every_row(handle, seed=3) == expected
            assert len(handle._client.server.sharding_state(
                "app", "users").manager.chunks()) > shards  # it split

    @pytest.mark.parametrize("shards", [2, 4])
    def test_aggregation_mixes_identical_across_modes(self, shards):
        expected = run_aggregations(ReferenceStore())
        assert run_aggregations(make_handle(shards, open_pool=True)) == expected
        assert run_aggregations(make_handle(shards, open_pool=False)) == expected

    def test_find_dedup_does_not_conflate_id_types(self):
        # ``1`` and ``"1"`` are distinct _ids; the multi-shard dedup must
        # key on the type-tagged identity, not ``str()``.
        cluster = ShardedCluster(shards=4, shard_key="k", auto_maintenance=False)
        handle = DocumentClient(cluster).collection("app", "mixed")
        handle.insert_one({"_id": 1, "k": "a"})
        handle.insert_one({"_id": "1", "k": "b"})
        documents = handle.find_with_cost({}).documents
        assert len(documents) == 2


class TestWorkerThreadFailover:
    def build(self, open_pool: bool = True):
        cluster = ShardedCluster(shards=3, replicas=3, split_threshold=10_000)
        if not open_pool:
            cluster.close()
        handle = DocumentClient(cluster).collection("app", "users")
        handle.insert_many([
            {"_id": f"user{index}", "n": index, "group": index % 5}
            for index in range(90)
        ])
        return cluster, handle

    def test_primary_killed_before_scatter_read_converges(self):
        cluster, handle = self.build()
        for shard_id in (1, 2):  # both failures land on worker threads
            FailureInjector(cluster.replica_set(shard_id)).kill_primary()
        documents = handle.find({"group": 3})
        assert sorted(doc["_id"] for doc in documents) == sorted(
            f"user{index}" for index in range(90) if index % 5 == 3)
        assert cluster.server_status()["repl"]["failovers"] == 2

    def test_primary_killed_mid_fanout_retries_on_worker(self):
        cluster, handle = self.build()
        injector = FailureInjector(cluster.replica_set(2))
        thread_names: list[str] = []
        state = {"killed": False}

        # Sabotage shard 2's sub-operation just before it runs: the dead
        # primary is found on the dispatching worker thread mid-fan-out, and
        # the shard's election must happen right there.
        original = cluster.router._run_on_shard

        def sabotaged(database, collection, shard_id, operation,
                      *args, **kwargs):
            if shard_id == 2 and operation == "update_many":
                thread_names.append(threading.current_thread().name)
                if not state["killed"]:
                    state["killed"] = True
                    injector.kill_primary()
            return original(database, collection, shard_id, operation,
                            *args, **kwargs)

        cluster.router._run_on_shard = sabotaged
        try:
            result = handle.update_many({}, {"$inc": {"touched": 1}})
        finally:
            cluster.router._run_on_shard = original
        assert result.matched_count == 90
        assert result.modified_count == 90
        assert cluster.server_status()["repl"]["failovers"] == 1
        assert thread_names and all(name.startswith("shard2-fanout")
                                    for name in thread_names)
        assert handle.count_documents({"touched": 1}) == 90

    def test_majority_dead_surfaces_on_calling_thread(self):
        cluster, handle = self.build()
        injector = FailureInjector(cluster.replica_set(1))
        injector.kill_primary()
        # Kill a second member: 1 of 3 left is below the majority of 2, so
        # the worker's election fails and the error must reach the caller.
        survivor_ids = [member.member_id
                        for member in cluster.replica_set(1).members
                        if member.up]
        injector.kill(survivor_ids[0])
        with pytest.raises(NoPrimaryError):
            handle.find({"group": 1})

    def test_serial_mode_failover_still_works(self):
        cluster, handle = self.build(open_pool=False)
        FailureInjector(cluster.replica_set(1)).kill_primary()
        assert handle.count_documents({}) == 90
        assert cluster.server_status()["repl"]["failovers"] == 1


class TestMeasuredSpans:
    def test_router_spans_carry_measured_wall_ms_children(self):
        cluster = ShardedCluster(
            shards=4, split_threshold=10_000,
            cost_parameters=CostParameters(real_service_scale=8.0))
        handle = DocumentClient(cluster).collection("app", "users")
        handle.insert_many([
            {"_id": f"user{index}", "n": index} for index in range(200)
        ])
        cluster.set_profiling(2, slow_ms=0.0)
        handle.find({"n": {"$gte": 0}})
        handle.update_many({}, {"$inc": {"n": 1}})
        entries = [entry for entry in cluster.get_slow_ops()
                   if entry["source"] == "router"]
        assert len(entries) == 2
        for entry in entries:
            children = [child for child in entry["shards"]
                        if child["shard"] != "balancer"]
            assert len(children) == 4
            assert entry["parallel"] is True
            for child in children:
                assert child["wall_ms"] > 0.0
            # The straggler is the measured slowest shard.
            slowest = max(children, key=lambda child: child["wall_ms"])
            assert entry["straggler"] == slowest["shard"]
            # Parallel dispatch: the parent's measured duration tracks the
            # slowest child, not the sum of all four.
            total = sum(child["wall_ms"] for child in children)
            assert entry["duration_ms"] < total

    def test_single_shard_ops_report_no_wall_children(self):
        cluster = ShardedCluster(shards=4, split_threshold=10_000)
        handle = DocumentClient(cluster).collection("app", "users")
        handle.insert_one({"_id": "user0", "n": 0})
        cluster.set_profiling(2, slow_ms=0.0)
        handle.find({"_id": "user0"})
        (entry,) = [entry for entry in cluster.get_slow_ops()
                    if entry["source"] == "router"]
        (child,) = entry["shards"]
        assert "wall_ms" not in child  # targeted op: no fan-out dispatch


# -- the single-owner lane -------------------------------------------------------------

NAMESPACE = ("app", "users")
OWNED = {"group": 3}  # pins the shard key of ``build_owned``: one owner, 18 documents

#: One single-owner call per row: the arguments after (database, collection).
OWNED_CALLS = {
    "find_with_cost": (OWNED, None),
    "count_documents": (OWNED,),
    "distinct": ("n", OWNED),
    "aggregate": ([{"$match": OWNED},
                   {"$group": {"_id": "$flag", "total": {"$sum": "$n"}}}],),
    "update_one": ({**OWNED, "n": 13}, {"$inc": {"n": 1000}}),
    "update_many": (OWNED, {"$inc": {"touched": 1}}),
    "replace_one": ({**OWNED, "n": 13}, {**OWNED, "n": -13}),
    "delete_one": ({**OWNED, "n": 13},),
    "delete_many": (OWNED,),
}
SORTED_PIPELINE = [{"$match": OWNED}, {"$sort": {"n": -1}}, {"$limit": 5}]


def build_owned(shards: int = 4, **options) -> ShardedCluster:
    cluster = ShardedCluster(shards, shard_key="group", split_threshold=10_000,
                             **options)
    cluster.router.insert_many(*NAMESPACE, [
        {"_id": f"user{index}", "n": index, "group": index % 5,
         "flag": index % 3 == 0}
        for index in range(90)
    ])
    return cluster


def forbid_the_executor(cluster: ShardedCluster) -> None:
    def entered(*arguments):
        raise AssertionError("a single-owner operation entered the executor")
    cluster.executor.scatter = cluster.executor.run_serial = entered


def through_the_fanout(cluster: ShardedCluster, operation: str, *arguments):
    """The reference: a single-owner call made the way the router made it
    before it had a lane -- the owner goes through ``_fanout`` (a serial pass
    of one) and the answer through the merge of a multi-shard operation."""
    router = cluster.router
    split = split_pipeline(arguments[0]) if operation == "aggregate" else None
    query = (split.leading if split else
             arguments[1] if operation == "distinct" else arguments[0])
    shard_ids, targeted, __ = router._shards_for_query(
        cluster.sharding_state(*NAMESPACE), query)
    assert len(shard_ids) == 1 and targeted
    router._note(targeted)

    def fanout(operation, *arguments):
        return router._fanout(*NAMESPACE, shard_ids, operation, *arguments)[0]

    if operation == "count_documents":
        return sum(fanout(operation, *arguments))
    if operation == "distinct":
        seen = {}
        for values in fanout(operation, *arguments):
            for value in values:
                seen.setdefault(key(value), value)
        return sorted(seen.values(), key=order)
    merged = OperationResult()
    if split is not None and split.mode == "group":
        results = fanout("aggregate_partial", split.shard_stages, split.group)
        documents = combine_partial_groups(
            [result.documents for result in results], split.group)
        merged.documents = apply_stages(documents, split.router_stages)
    elif split is not None:
        results = fanout("aggregate", split.shard_stages)
        documents = merge_shard_streams([result.documents for result in results],
                                        split.sort_spec, split.merge_limit)
        merged.documents = apply_stages(documents, split.router_stages)
    else:
        results = fanout(operation, *arguments)
        for result in results:
            merged.documents.extend(result.documents)
            merged.matched_count += result.matched_count
            merged.modified_count += result.modified_count
            merged.deleted_count += result.deleted_count
    if split is not None:
        merged.matched_count = len(merged.documents)
    merged.shard_costs = {f"shard{shard_id}": result.ticks
                          for shard_id, result in zip(shard_ids, results)}
    merged.ticks = combine_shard_costs(merged.shard_costs, parallel=True)
    return merged


class TestSingleOwnerLane:
    def test_every_single_owner_row_is_covered(self):
        rows = {row.name for row in ROUTED if row.kind == READ}
        rows |= {row.name for row in QUERY_ROUTED_WRITES}
        assert set(OWNED_CALLS) == rows

    @pytest.mark.parametrize("operation, arguments", [
        *OWNED_CALLS.items(), ("aggregate", (SORTED_PIPELINE,))])
    @pytest.mark.parametrize("replicas", [1, 3])
    def test_lane_equals_a_fanout_of_one(self, operation, arguments, replicas):
        lane, reference = build_owned(replicas=replicas), build_owned(replicas=replicas)
        expected = through_the_fanout(reference, operation, *arguments)
        forbid_the_executor(lane)
        targeted = lane.router.targeted_operations
        answer = getattr(lane.router, operation)(*NAMESPACE, *arguments)
        assert lane.router.targeted_operations == targeted + 1
        assert lane.router.scatter_operations == reference.router.scatter_operations
        if isinstance(expected, OperationResult):
            assert len(answer.shard_costs) == 1
            assert list(answer.shard_costs.values()) == [answer.ticks]
            assert answer.shard_wall_seconds == {}
            assert answer == expected
        else:  # a count, the distinct values
            assert answer == expected and answer
        del lane.executor.scatter, lane.executor.run_serial
        everything = [cluster.router.find_with_cost(*NAMESPACE, {}).documents
                      for cluster in (lane, reference)]
        assert everything[0] == everything[1]

    def test_a_one_shard_cluster_takes_the_lane_for_everything(self):
        cluster = ShardedCluster(shards=1)
        handle = DocumentClient(cluster).collection(*NAMESPACE)
        handle.insert_many([{"_id": f"user{index}", "n": index} for index in range(20)])
        forbid_the_executor(cluster)
        result = handle.find_with_cost({})
        assert len(result.documents) == result.matched_count == 20
        assert result.shard_costs == {"shard0": result.ticks}
        assert handle.count_documents({"n": {"$lt": 5}}) == 5
        assert handle.update_many({}, {"$inc": {"n": 1}}).modified_count == 20
        assert cluster.router.scatter_operations == 3  # nothing narrowed them

    def test_lane_spans_have_one_child_and_are_targeted(self):
        cluster = build_owned()
        handle = DocumentClient(cluster).collection(*NAMESPACE)
        cluster.set_profiling(2, slow_ms=0.0)
        for row in ROUTED:
            if row.name in OWNED_CALLS:
                getattr(handle, row.client)(*OWNED_CALLS[row.name])
        entries = [entry for entry in cluster.get_slow_ops()
                   if entry["source"] == "router"]
        assert len(entries) == len(OWNED_CALLS)
        costed = [entry for entry in entries if entry["op"] not in ("count", "distinct")]
        assert len(costed) == len(OWNED_CALLS) - 2
        for entry in costed:
            (child,) = entry["shards"]
            assert entry["targeting"] == "targeted"
            # Nothing was dispatched: no measured wall, so no measured
            # straggler (a parallel row names its only child).
            assert "wall_ms" not in child
            assert entry.get("straggler", child["shard"]) == child["shard"]
            assert entry["simulated_ms"] == child["simulated_ms"]


class TestSingleOwnerFailover:
    READS = [("find_with_cost", (OWNED,)), ("count_documents", (OWNED,)),
             ("distinct", ("n", OWNED))]

    def build(self):
        cluster = build_owned(shards=2, replicas=3)
        owner = cluster.sharding_state(*NAMESPACE).manager.shard_for(OWNED["group"])
        return cluster, FailureInjector(cluster.replica_set(owner))

    @pytest.mark.parametrize("operation, arguments", READS)
    def test_a_killed_owner_primary_costs_one_retry(self, operation, arguments):
        cluster, injector = self.build()
        expected = getattr(cluster.router, operation)(*NAMESPACE, *arguments)
        injector.kill_primary()
        answer = getattr(cluster.router, operation)(*NAMESPACE, *arguments)
        assert injector.replica_set.failovers == 1
        if isinstance(answer, OperationResult):
            assert answer.documents == expected.documents
            assert len(answer.documents) == 18
        else:
            assert answer == expected and answer

    @pytest.mark.parametrize("operation, arguments", READS)
    def test_a_dead_majority_raises_on_the_caller(self, operation, arguments):
        cluster, injector = self.build()
        injector.kill_primary()
        injector.kill(next(member.member_id
                           for member in injector.replica_set.members if member.up))
        with pytest.raises(NoPrimaryError):
            getattr(cluster.router, operation)(*NAMESPACE, *arguments)


class TestStandIns:
    """``database(x).collection(y)`` of a cluster or a replica set hands out
    one kept stand-in per namespace; a drop lets go of it."""

    @pytest.fixture(params=["cluster", "replica_set"])
    def deployment(self, request):
        if request.param == "cluster":
            return ShardedCluster(shards=3)
        return ReplicaSet(members=3)

    def test_one_object_per_namespace(self, deployment):
        users = deployment.database("app").collection("users")
        assert deployment.database("app") is deployment.database("app")
        assert deployment.database("app").collection("users") is users
        assert deployment["app"]["users"] is users
        assert deployment.database("app").collection("orders") is not users
        assert deployment.database("other").collection("users") is not users

    def test_threads_racing_the_first_access_agree(self, deployment):
        barrier = threading.Barrier(8)
        seen: list = []

        def first_access() -> None:
            barrier.wait(timeout=10)
            seen.append(deployment.database("app").collection("users"))

        threads = [threading.Thread(target=first_access) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(seen) == 8 and len({id(stand_in) for stand_in in seen}) == 1

    def test_a_dropped_namespace_starts_over(self, deployment):
        """Every answer below is the one the per-call stand-ins gave."""
        sharded = isinstance(deployment, ShardedCluster)
        handle = DocumentClient(deployment).collection("app", "users")

        def answers():
            return (deployment.has_collection("app", "users"),
                    deployment.collection_names("app"))

        assert answers() == (False, [])
        handle.insert_one({"_id": "a"})
        assert answers() == (True, ["users"])
        before = deployment.database("app").collection("users")
        deployment.database("app").drop_collection("users")
        assert answers() == (False, [])
        # First use: a cluster shards the namespace again (no shard holds a
        # collection yet), a replica set has nothing to do.
        after = deployment.database("app").collection("users")
        assert after is not before
        assert answers() == (sharded, [])
        handle.insert_one({"_id": "a"})
        assert answers() == (True, ["users"])
        assert handle.count_documents({}) == 1

        database = deployment.database("app")
        deployment.drop_database("app")
        assert answers() == (False, []) and deployment.database_names() == []
        assert deployment.database("app") is not database
        # ... also through a database object handed out before the drop.
        assert database.collection("users") is not after
        assert answers() == (sharded, []) and deployment.database_names() == []
        handle.insert_one({"_id": "b"})
        assert answers() == (True, ["users"])
        assert deployment.database_names() == ["app"]
        assert handle.count_documents({}) == 1


class TestKeptLiveness:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("members", [3, 5])
    def test_agrees_with_a_recomputation_after_every_step(self, seed, members):
        replica_set = ReplicaSet(members=members)
        rng = random.Random(seed)
        ids = range(members)

        def check() -> None:
            reachable = [member for member in replica_set.members
                         if member.up
                         and member.member_id not in replica_set.partitioned]
            majority = len(reachable) >= members // 2 + 1
            assert replica_set._majority_reachable is majority
            primary = replica_set.primary
            assert replica_set._primary_usable(primary) is (
                majority and primary in reachable)

        check()
        for __ in range(60):
            step = rng.randrange(4)
            if step == 0:
                replica_set.kill_member(rng.choice(ids))
            elif step == 1:
                replica_set.restart_member(rng.choice(ids))
            elif step == 2:
                replica_set.set_partition(
                    set(rng.sample(ids, rng.randrange(members))))
            else:
                replica_set.heal_partition()
            check()
