"""Tests for the observability stack (PR 8): metrics registry, operation
profiler, slow-op log, and their surfacing across every deployment shape.

The cluster suite at the bottom is the PR's acceptance scenario: a seeded
mixed workload on a 4-shard replicated cluster at profiling level 2 with
``slow_ms=0`` must produce a slow-op log whose per-operation access paths
agree with ``explain()`` and whose per-shard child spans combine (max for
parallel fan-out, sum for serial probes) to the parent span's duration.
"""

from __future__ import annotations

import json

import pytest

from repro.docstore.client import DocumentClient
from repro.docstore.cost import TICKS_PER_SECOND
from repro.docstore.observability import (
    PROFILE_ALL,
    PROFILE_OFF,
    PROFILE_SLOW_ONLY,
    LatencyHistogram,
    MetricsRegistry,
    MetricsSampler,
    Profiler,
    merge_slow_ops,
    merge_top,
    render_query_shape,
)
from repro.docstore.replication.replica_set import ReplicaSet
from repro.docstore.server import DocumentServer
from repro.docstore.sharding import router as router_module
from repro.docstore.topology import TopologySpec, build_topology
from repro.errors import NoPrimaryError, ValidationError


def make_server(records: int = 50) -> tuple[DocumentServer, object]:
    server = DocumentServer("wiredtiger")
    collection = server.database("db").collection("events")
    collection.insert_many([
        {"_id": f"k{index:04d}", "counter": index, "category": f"cat{index % 3}"}
        for index in range(records)
    ])
    collection.create_index("counter")
    return server, collection


# -- registry / histogram primitives ------------------------------------------------


class TestLatencyHistogram:
    def test_percentiles_track_observations(self):
        histogram = LatencyHistogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 100
        assert snapshot["min_ms"] == 1.0
        assert snapshot["max_ms"] == 100.0
        assert 40.0 < snapshot["p50_ms"] < 70.0
        assert snapshot["p95_ms"] >= snapshot["p50_ms"]
        assert snapshot["p99_ms"] >= snapshot["p95_ms"]

    def test_merge_sums_buckets(self):
        first, second = LatencyHistogram(), LatencyHistogram()
        for value in (1.0, 2.0, 3.0):
            first.observe(value)
        for value in (10.0, 20.0):
            second.observe(value)
        merged = LatencyHistogram.from_buckets(
            [first.snapshot(), second.snapshot()])
        snapshot = merged.snapshot()
        assert snapshot["count"] == 5
        assert snapshot["min_ms"] == 1.0
        assert snapshot["max_ms"] == 20.0


class TestMetricsRegistry:
    def test_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.increment("ops", 3)
        registry.increment("ops")
        registry.observe("latency", 5.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["ops"] == 4
        assert snapshot["histograms"]["latency"]["count"] == 1

    def test_merge_sums_counters_and_histograms(self):
        registries = [MetricsRegistry(), MetricsRegistry()]
        for index, registry in enumerate(registries):
            registry.increment("ops", index + 1)
            registry.observe("latency", float(index + 1))
        merged = MetricsRegistry.merge([r.snapshot() for r in registries])
        assert merged["counters"]["ops"] == 3
        assert merged["histograms"]["latency"]["count"] == 2


class TestQueryShapes:
    def test_values_replaced_by_type_markers(self):
        shape = render_query_shape(
            {"counter": {"$gte": 5}, "name": "x", "flag": True})
        parsed = json.loads(shape)
        assert parsed["counter"] == {"$gte": "#"}
        assert parsed["name"] == "s"
        assert parsed["flag"] == "b"

    def test_same_shape_for_different_constants(self):
        first = render_query_shape({"counter": {"$lt": 10}})
        second = render_query_shape({"counter": {"$lt": 99999}})
        assert first == second

    def test_pipeline_shape(self):
        shape = render_query_shape([{"$match": {"a": 1}},
                                    {"$group": {"_id": "$a"}}])
        assert "$match" in shape and "$group" in shape


# -- profiler levels and the slow-op ring --------------------------------------------


class TestProfilerLevels:
    def test_level_0_records_nothing(self):
        server, collection = make_server()
        collection.find_one({"_id": "k0001"})
        assert server.get_slow_ops() == []
        assert server.profiler.level == PROFILE_OFF
        assert not server.profiler.enabled

    def test_level_2_records_every_operation(self):
        server, collection = make_server()
        server.set_profiling(PROFILE_ALL, slow_ms=0.0)
        collection.find_one({"_id": "k0001"})
        collection.find({"counter": {"$gte": 10}}).to_list()
        entries = server.get_slow_ops()
        assert len(entries) == 2
        assert [entry["op"] for entry in entries] == ["query", "query"]

    def test_level_1_records_only_slow_operations(self):
        server, collection = make_server(records=200)
        point_cost = collection.find_with_cost(
            {"_id": "k0001"}).simulated_seconds * 1000.0
        scan_cost = collection.find_with_cost(
            {"category": "cat1"}).simulated_seconds * 1000.0
        assert point_cost < scan_cost
        threshold = (point_cost + scan_cost) / 2.0
        server.set_profiling(PROFILE_SLOW_ONLY, slow_ms=threshold)
        collection.find_one({"_id": "k0002"})       # fast: below threshold
        collection.find({"category": "cat2"}).to_list()  # slow: full scan
        entries = server.get_slow_ops()
        assert len(entries) == 1
        assert entries[0]["access_path"] == "FULL_SCAN"
        assert entries[0]["simulated_ms"] > threshold

    def test_ring_buffer_is_bounded(self):
        server, collection = make_server()
        server.set_profiling(PROFILE_ALL, slow_ms=0.0, capacity=5)
        for index in range(12):
            collection.find_one({"_id": f"k{index:04d}"})
        entries = server.get_slow_ops()
        assert len(entries) == 5
        description = server.profiler.describe()
        assert description["slow_ops_recorded"] == 12
        assert description["slow_ops_dropped"] == 7

    def test_invalid_level_rejected(self):
        with pytest.raises(ValidationError):
            DocumentServer().set_profiling(3)

    def test_set_profiling_reports_previous_level(self):
        server = DocumentServer()
        first = server.set_profiling(2, slow_ms=5.0)
        assert first["was"] == 0 and first["level"] == 2
        second = server.set_profiling(1)
        assert second["was"] == 2
        assert second["slowms"] == 5.0  # unchanged when not passed

    def test_errored_operations_are_tagged(self):
        server, collection = make_server()
        server.set_profiling(PROFILE_ALL, slow_ms=0.0)
        from repro.errors import DocumentStoreError
        with pytest.raises(DocumentStoreError):
            collection.update_one({"_id": "k0001"}, {"$bogus": {"a": 1}})
        entries = server.get_slow_ops()
        assert entries and entries[-1]["errored"] == "DocumentStoreError"
        assert server.metrics.counter("errors.update") == 1


# -- span contents vs explain() ------------------------------------------------------


class TestSpanAccessPaths:
    @pytest.mark.parametrize("query, expected", [
        ({"_id": "k0005"}, "ID_LOOKUP"),
        ({"counter": {"$gte": 45}}, "INDEX_RANGE"),
        ({"counter": 7}, "INDEX_EQ"),
        ({"category": "cat1"}, "FULL_SCAN"),
    ])
    def test_span_path_matches_explain(self, query, expected):
        server, collection = make_server()
        explained = collection.explain(query)["winning_plan"]["access_path"]
        assert explained == expected
        server.set_profiling(PROFILE_ALL, slow_ms=0.0)
        collection.find(query).to_list()
        entry = server.get_slow_ops()[-1]
        assert entry["access_path"] == explained
        assert entry["shape"] == render_query_shape(query)

    def test_plan_cache_states(self):
        server, collection = make_server()
        server.set_profiling(PROFILE_ALL, slow_ms=0.0)
        collection.find({"counter": {"$gte": 40}}).to_list()
        collection.find({"counter": {"$gte": 10}}).to_list()  # same shape: hit
        collection.find_one({"_id": "k0001"})
        states = [entry.get("plan_cache") for entry in server.get_slow_ops()]
        assert states == ["miss", "hit", "fast_id"]

    def test_docs_examined_vs_returned(self):
        server, collection = make_server(records=30)
        server.set_profiling(PROFILE_ALL, slow_ms=0.0)
        collection.find({"category": "cat0"}).to_list()
        entry = server.get_slow_ops()[-1]
        assert entry["docs_examined"] == 30       # full scan examines all
        assert entry["docs_returned"] == 10       # every third matches

    def test_write_spans_carry_counts(self):
        server, collection = make_server()
        server.set_profiling(PROFILE_ALL, slow_ms=0.0)
        collection.update_many({"category": "cat0"}, {"$set": {"flag": 1}})
        collection.delete_one({"_id": "k0003"})
        collection.insert_one({"_id": "fresh", "counter": -1})
        update, delete, insert = server.get_slow_ops()[-3:]
        assert update["op"] == "update" and update["modified"] > 0
        assert delete["op"] == "delete" and delete["deleted"] == 1
        assert insert["op"] == "insert" and insert["inserted"] == 1

    def test_aggregate_span_reports_pushdown_path(self):
        server, collection = make_server()
        server.set_profiling(PROFILE_ALL, slow_ms=0.0)
        collection.aggregate([
            {"$match": {"counter": {"$gte": 10}}},
            {"$group": {"_id": "$category", "n": {"$count": {}}}},
        ])
        entry = server.get_slow_ops()[-1]
        assert entry["op"] == "aggregate"
        assert entry["access_path"] == "INDEX_RANGE"
        assert entry["docs_examined"] > 0

    def test_count_span(self):
        server, collection = make_server()
        server.set_profiling(PROFILE_ALL, slow_ms=0.0)
        assert collection.count_documents({"counter": {"$lt": 5}}) == 5
        entry = server.get_slow_ops()[-1]
        assert entry["op"] == "count"
        assert entry["docs_returned"] == 5
        assert entry["simulated_ms"] > 0

    def test_distinct_span_says_what_a_count_span_says(self):
        server, collection = make_server()
        server.set_profiling(PROFILE_ALL, slow_ms=0.0)
        query = {"counter": {"$lt": 9}}
        assert collection.distinct("category", query) == ["cat0", "cat1", "cat2"]
        collection.count_documents(query)
        distinct, count = server.get_slow_ops()[-2:]
        assert distinct["op"] == "distinct" and distinct["docs_returned"] == 3
        assert (distinct["plan_cache"], count["plan_cache"]) == ("miss", "hit")
        assert distinct["access_path"] == count["access_path"] == "INDEX_RANGE"
        assert distinct["docs_examined"] == count["docs_examined"] == 9
        assert distinct["simulated_ms"] == count["simulated_ms"] > 0

    def test_distinct_spans_on_a_cluster(self):
        cluster = build_topology(TopologySpec(shards=2))
        handle = DocumentClient(cluster).collection("db", "events")
        handle.insert_many([{"_id": f"k{index:04d}", "counter": index,
                             "category": f"cat{index % 3}"} for index in range(50)])
        handle.create_index("counter")
        cluster.set_profiling(PROFILE_ALL, slow_ms=0.0)
        assert len(handle.distinct("category", {"counter": {"$lt": 9}})) == 3
        entries = [entry for entry in cluster.get_slow_ops()
                   if entry["op"] == "distinct"]
        router = [entry for entry in entries if entry["source"] == "router"]
        shards = [entry for entry in entries if entry["source"] != "router"]
        assert len(router) == 1 and router[0]["docs_returned"] == 3
        assert len(shards) == 2
        assert sum(entry["docs_examined"] for entry in shards) == 9
        for entry in shards:
            assert entry["access_path"] == "INDEX_RANGE"
            assert entry["plan_cache"] == "miss"
            assert entry["simulated_ms"] > 0
        cluster.close()


# -- server command surface (satellites 1 and 2 included) ---------------------------


class TestServerSurface:
    def test_profile_command_roundtrip(self):
        server, _ = make_server()
        result = server.run_command({"profile": 2, "slowms": 1.5})
        assert result["ok"] == 1 and result["level"] == 2
        query = server.run_command({"profile": -1})
        assert query["level"] == 2 and query["slowms"] == 1.5

    def test_current_op_empty_between_operations(self):
        server, collection = make_server()
        server.set_profiling(PROFILE_ALL, slow_ms=0.0)
        collection.find_one({"_id": "k0001"})
        assert server.run_command({"currentOp": 1})["inprog"] == []

    def test_top_totals_per_namespace(self):
        server, collection = make_server()
        server.set_profiling(PROFILE_ALL, slow_ms=0.0)
        collection.find_one({"_id": "k0001"})
        collection.insert_one({"_id": "new"})
        totals = server.run_command({"top": 1})["totals"]
        assert totals["db.events"]["query"]["count"] == 1
        assert totals["db.events"]["insert"]["count"] == 1

    def test_server_status_metrics_and_histograms(self):
        server, collection = make_server()
        server.set_profiling(PROFILE_ALL, slow_ms=0.0)
        collection.find_one({"_id": "k0001"})
        status = server.server_status()
        metrics = status["metrics"]
        assert metrics["counters"]["operations.query"] == 1
        latency = metrics["histograms"]["latency.query"]
        assert latency["count"] == 1 and latency["p50_ms"] >= 0.0

    def test_planner_rollup_in_server_status(self):
        # Satellite 1: plan-cache counters roll up under metrics.planner.
        server, collection = make_server()
        collection.find({"counter": {"$gte": 10}}).to_list()
        collection.find({"counter": {"$gte": 20}}).to_list()
        collection.find_one({"_id": "k0001"})
        planner = server.server_status()["metrics"]["planner"]
        cache = collection.stats()["plan_cache"]
        assert planner["collections"] == 1
        assert planner["entries"] == cache["entries"]
        assert planner["hits"] == cache["hits"] == 1
        assert planner["misses"] == cache["misses"]
        assert planner["fast_id_plans"] == cache["fast_id_plans"] == 1

    def test_lock_statistics_in_server_status(self):
        # Satellite 2: per-collection lock stats under server_status()["locks"].
        server, collection = make_server()
        collection.find_one({"_id": "k0001"})
        locks = server.server_status()["locks"]
        stats = locks["db.events"]
        assert stats["acquisitions"] > 0
        assert {"contentions", "wait_seconds",
                "exclusive_acquisitions"} <= set(stats)

    def test_span_lock_wait_is_thread_local(self):
        server, collection = make_server()
        server.set_profiling(PROFILE_ALL, slow_ms=0.0)
        collection.find_one({"_id": "k0001"})
        entry = server.get_slow_ops()[-1]
        # Uncontended single-thread run: the span's wait must be zero even
        # though the collection-wide counters saw acquisitions.
        assert entry["lock_wait_ms"] == 0.0


# -- what the admin surface refuses, on every shape ---------------------------------

@pytest.fixture
def profiled(deployment):
    """A deployment at level 1, ``slowms`` 5, a ring of 9, with 8 operations
    behind it."""
    handle = DocumentClient(deployment).collection("db", "events")
    handle.insert_many([{"_id": f"k{index}"} for index in range(6)])
    deployment.set_profiling(PROFILE_ALL, slow_ms=0.0, capacity=9)
    for index in range(8):
        handle.find_with_cost({"_id": f"k{index % 6}"})
    deployment.set_profiling(PROFILE_SLOW_ONLY, slow_ms=5)
    return deployment


def profiling_state(deployment) -> list[tuple]:
    return [(source, profiler.level, type(profiler.level), profiler.enabled,
             profiler.slow_ms, profiler._slow_ops.maxlen)
            for source, profiler in deployment.profilers()]


class TestAdminArguments:
    @pytest.mark.parametrize("arguments, named", [
        (dict(level=2, slow_ms="abc"), "slow_ms"),
        (dict(level=2, slow_ms=-0.5), "slow_ms"),
        (dict(level=2, slow_ms=True), "slow_ms"),
        (dict(level=2, slow_ms=float("nan")), "slow_ms"),
        (dict(level=2, capacity=-1), "capacity"),
        (dict(level=2, capacity=0), "capacity"),
        (dict(level=2, capacity="7"), "capacity"),
        (dict(level=2, capacity=2.5), "capacity"),
        (dict(level=2, capacity=True), "capacity"),
        (dict(level=True), "level"),
        (dict(level=1.0), "level"),
        (dict(level=3), "level"),
        (dict(level="2"), "level"),
        (dict(level=None, slow_ms=1.0), "level"),
    ], ids=repr)
    def test_a_refused_set_profiling_changes_nothing(self, profiled, arguments, named):
        before = profiling_state(profiled)
        assert all(state[1:] == (1, int, True, 5.0, 9) for state in before)
        for request in (profiled.set_profiling,
                        DocumentClient(profiled).set_profiling):
            with pytest.raises(ValidationError, match=named):
                request(**arguments)
            assert profiling_state(profiled) == before
        if "capacity" not in arguments:
            command = {"profile": arguments["level"]}
            if "slow_ms" in arguments:
                command["slowms"] = arguments["slow_ms"]
            with pytest.raises(ValidationError, match=named):
                profiled.run_command(command)
            assert profiling_state(profiled) == before
        assert profiled.run_command({"profile": -1})["level"] == 1

    def test_an_accepted_set_profiling_reaches_every_profiler(self, profiled):
        profiled.set_profiling(2, slow_ms=3, capacity=4)
        assert all(state[1:] == (2, int, True, 3.0, 4)
                   for state in profiling_state(profiled))
        assert len(profiled.get_slow_ops()) <= 4 * len(profiling_state(profiled))
        profiled.set_profiling(0)  # what is not said stays
        assert all(state[1:] == (0, int, False, 3.0, 4)
                   for state in profiling_state(profiled))

    def test_a_slow_op_limit_means_what_a_read_limit_means(self, profiled):
        """``None`` everything, a positive integer the newest that many, ``0``
        nothing, anything else an error -- from a server's own log and from a
        merged one, through the deployment and through a client."""
        everything = profiled.get_slow_ops()
        assert len(everything) >= 8
        for read in (profiled.get_slow_ops, DocumentClient(profiled).slow_ops):
            assert read() == read(None) == read(len(everything) + 5) == everything
            assert read(len(everything)) == everything
            assert read(3) == everything[-3:]
            assert read(1) == everything[-1:]
            assert read(0) == []
            for limit in (-1, True, False, 1.0, "1"):
                with pytest.raises(ValidationError, match="limit"):
                    read(limit)


# -- merging across replica sets -----------------------------------------------------


class TestReplicaSetSurface:
    def build(self) -> tuple[ReplicaSet, object]:
        replica_set = build_topology(TopologySpec(replicas=3))
        assert isinstance(replica_set, ReplicaSet)
        handle = DocumentClient(replica_set).collection("db", "events")
        handle.insert_many([{"_id": f"k{index:02d}", "counter": index}
                            for index in range(20)])
        return replica_set, handle

    def test_slow_ops_merged_with_member_sources(self):
        replica_set, handle = self.build()
        replica_set.set_profiling(PROFILE_ALL, slow_ms=0.0)
        handle.find_one({"_id": "k01"})
        entries = replica_set.get_slow_ops()
        assert entries
        assert all(entry["source"].startswith("rs0/member")
                   for entry in entries)

    def test_metrics_merged_across_members(self):
        replica_set, handle = self.build()
        replica_set.set_profiling(PROFILE_ALL, slow_ms=0.0)
        handle.insert_one({"_id": "fresh"})
        metrics = replica_set.metrics_snapshot()
        # The secondaries store the insert's post-image without running the
        # insert: the primary's is the one the merged counters hold.
        assert metrics["counters"]["operations.insert"] == 1
        assert metrics["profiler"]["members"] == 3

    def test_profile_command_on_replica_set(self):
        replica_set, _ = self.build()
        result = replica_set.run_command({"profile": 1, "slowms": 9.0})
        assert result["ok"] == 1
        query = replica_set.run_command({"profile": -1})
        assert query["level"] == 1 and query["slowms"] == 9.0

    @pytest.mark.parametrize("shards", [1, 2])
    def test_each_write_kind_is_counted_once(self, shards):
        """A member stores a replicated write's post-image, it does not run
        the write again: the merged slow-op log, ``top`` and the counters
        count each write where the same shape without replicas counts it (a
        replayed delete was counted by every member)."""
        def counted(spec: TopologySpec) -> tuple[dict, ...]:
            deployment = build_topology(spec)
            handle = DocumentClient(deployment).collection("db", "events")
            deployment.set_profiling(PROFILE_ALL, slow_ms=0.0)
            handle.insert_many([{"_id": f"k{index}"} for index in range(4)])
            handle.update_one({"_id": "k1"}, {"$set": {"n": 1}})
            handle.delete_one({"_id": "k2"})
            spans: dict[str, int] = {}
            for span in deployment.get_slow_ops():
                spans[span["op"]] = spans.get(span["op"], 0) + 1
            top = {op: totals["count"]
                   for op, totals in deployment.top()["db.events"].items()}
            counters = {name: value for name, value
                        in deployment.metrics_snapshot()["counters"].items()
                        if name.startswith("operations.")}
            deployment.close()
            return spans, top, counters

        replicated = counted(TopologySpec(shards=shards, replicas=3,
                                          write_concern="majority"))
        assert replicated == counted(TopologySpec(shards=shards))
        if shards == 1:
            spans, top, counters = replicated
            assert spans == top == {"insert": 1, "update": 1, "delete": 1}
            assert counters == {"operations.insert": 1, "operations.update": 1,
                                "operations.delete": 1}


# -- the acceptance scenario: 4-shard replicated cluster -----------------------------


def ticks(simulated_ms: float) -> int:
    """The ticks a span rendered as ``simulated_ms``."""
    return round(simulated_ms * TICKS_PER_SECOND / 1000)


class TestShardedClusterAcceptance:
    RECORDS = 80
    #: The scattered ``$group`` of the mixed workload: a partial group per shard.
    GROUP = [{"$match": {"active": {"$exists": False}}},
             {"$group": {"_id": "$category", "n": {"$count": {}}}}]

    def build(self):
        cluster = build_topology(TopologySpec(
            shards=4, replicas=3, shard_key="_id", shard_strategy="hash"))
        handle = DocumentClient(cluster).collection("db", "events")
        handle.insert_many([
            {"_id": f"k{index:04d}", "counter": index,
             "category": f"cat{index % 3}"}
            for index in range(self.RECORDS)
        ])
        handle.create_index("counter")
        cluster.set_profiling(PROFILE_ALL, slow_ms=0.0)
        return cluster, handle

    def run_mixed_workload(self, handle) -> None:
        handle.find_with_cost({"_id": "k0005"})              # targeted point
        handle.find_with_cost({"counter": {"$gte": 60}})     # scatter range
        handle.update_one({"_id": "k0010"}, {"$set": {"flag": 1}})
        handle.update_many({"category": "cat1"}, {"$inc": {"counter": 0}})
        handle.aggregate(self.GROUP)
        handle.delete_one({"_id": "k0011"})
        handle.insert_one({"_id": "zzz-new", "counter": -1})

    def test_router_spans_combine_children_and_flag_stragglers(self):
        cluster, handle = self.build()
        self.run_mixed_workload(handle)
        router_entries = [entry for entry in cluster.get_slow_ops()
                          if entry["source"] == "router"]
        assert len(router_entries) == 7
        for entry in router_entries:
            children = entry.get("shards")
            if not children:
                continue
            costs = [ticks(child["simulated_ms"]) for child in children
                     if child["shard"] != "balancer"]
            balancer = sum(ticks(child["simulated_ms"]) for child in children
                           if child["shard"] == "balancer")
            combined = (max(costs) if entry["parallel"] else sum(costs))
            assert ticks(entry["simulated_ms"]) == combined + balancer
            if entry["parallel"] and costs:
                assert entry["straggler"] in {child["shard"]
                                              for child in children}

    def test_targeting_matches_explain(self):
        cluster, handle = self.build()
        point_explain = handle.explain({"_id": "k0005"})
        scatter_explain = handle.explain({"counter": {"$gte": 60}})
        assert point_explain["targeting"] == "targeted"
        assert scatter_explain["targeting"] == "scatter"
        handle.find_with_cost({"_id": "k0005"})
        handle.find_with_cost({"counter": {"$gte": 60}})
        point, scatter = [entry for entry in cluster.get_slow_ops()
                          if entry["source"] == "router"]
        assert point["targeting"] == "targeted"
        assert len([c for c in point["shards"] if c["shard"] != "balancer"]) == 1
        assert scatter["targeting"] == "scatter"
        assert len(scatter["shards"]) == 4

    def test_shard_side_paths_match_explain(self):
        cluster, handle = self.build()
        query = {"counter": {"$gte": 60}}
        explain = handle.explain(query)
        expected = {shard: plan["winning_plan"]["access_path"]
                    for shard, plan in explain["shard_plans"].items()}
        assert set(expected.values()) == {"INDEX_RANGE"}
        handle.find_with_cost(query)
        shard_entries = [entry for entry in cluster.get_slow_ops()
                         if entry["source"] != "router"
                         and entry["op"] == "query"]
        assert len(shard_entries) == 4     # one per shard primary
        for entry in shard_entries:
            shard = entry["source"].split("/")[0]
            assert entry["access_path"] == expected[shard]

    def test_shard_side_partial_groups_carry_paths_and_examined(self):
        """Each shard's partial ``$group`` has its own span: its shard's
        access path for the ``$match``, and the documents its drained pass
        examined -- together, every document the shards hold."""
        cluster, handle = self.build()
        explain = handle.explain(self.GROUP[0]["$match"])
        expected = {shard: plan["winning_plan"]["access_path"]
                    for shard, plan in explain["shard_plans"].items()}
        handle.aggregate(self.GROUP)
        shard_entries = [entry for entry in cluster.get_slow_ops()
                         if entry["source"] != "router"
                         and entry["op"] == "aggregate"]
        assert len(shard_entries) == 4     # one per shard primary
        for entry in shard_entries:
            assert entry.get("access_path") == expected[entry["source"].split("/")[0]]
        assert sum(entry["docs_examined"] for entry in shard_entries) == self.RECORDS

    def test_cluster_metrics_and_locks_merged(self):
        cluster, handle = self.build()
        self.run_mixed_workload(handle)
        metrics = cluster.metrics_snapshot()
        assert metrics["counters"]["operations.query"] >= 2
        assert metrics["profiler"]["shards"] == 4
        assert metrics["planner"]["collections"] >= 4
        locks = cluster.locks_report()
        assert "db.events" in locks

    def test_slow_ops_json_round_trip(self):
        cluster, handle = self.build()
        self.run_mixed_workload(handle)
        entries = cluster.get_slow_ops()
        assert entries == json.loads(json.dumps(entries))
        starts = [entry["started"] for entry in entries]
        assert starts == sorted(starts)

    # A limited multi-shard read opens a stream on every shard and closes it
    # on the router: the shard's span lives as long as its stream does.

    LIMITED = {
        "query": lambda handle: handle.find_with_cost({"counter": {"$gte": 20}}, 6),
        "aggregate": lambda handle: handle.aggregate_with_cost([
            {"$match": {"counter": {"$gte": 20}}}, {"$sort": {"counter": 1}},
            {"$limit": 6}]),
    }

    @pytest.mark.parametrize("op", sorted(LIMITED))
    def test_a_limited_read_spans_every_shard_it_opened_truthfully(self, op):
        cluster, handle = self.build()
        result = self.LIMITED[op](handle)
        assert [doc["counter"] for doc in result.documents] == list(range(20, 26))
        router, *shards = cluster.get_slow_ops()
        assert router["source"] == "router" and router["op"] == op
        assert [entry["op"] for entry in shards] == [op] * 4
        by_shard = {entry["source"].split("/")[0]: entry for entry in shards}
        children = {child["shard"]: child for child in router["shards"]}
        assert sorted(by_shard) == sorted(children) == sorted(result.shard_costs)
        for name, child in children.items():
            # a child is its shard's whole bill at close: what it read on its
            # worker and on the caller, and the hop to its primary
            assert child["simulated_ms"] == by_shard[name]["simulated_ms"] \
                == result.shard_costs[name] * 1000 / TICKS_PER_SECOND
            assert child["wall_ms"] == result.shard_wall_seconds[name] * 1000.0
        assert router["simulated_ms"] == max(
            child["simulated_ms"] for child in children.values())
        assert router["straggler"] == max(
            children, key=lambda name: children[name]["wall_ms"])
        assert router["parallel"] and router["targeting"] == "scatter"
        assert router["docs_returned"] == 6
        # Each shard prefetched its share (2 of 6) and read on only when its
        # documents were next: 4 shards examined 10 documents, not 24.
        examined = [entry["docs_examined"] for entry in shards]
        assert min(examined) >= 2 and sum(examined) == 10
        # ... all of which matched and went to the router, which kept 6.
        assert [entry["docs_returned"] for entry in shards] == examined
        assert {entry["access_path"] for entry in shards} == {
            "INDEX_RANGE" if op == "query" else "ORDERED_INDEX_WALK"}

    def test_no_span_outlives_a_limited_read_however_it_ends(self, monkeypatch):
        cluster, handle = self.build()

        def in_flight() -> list:
            assert cluster.profiler.describe()["in_flight"] == 0
            return cluster.current_ops()

        for read in self.LIMITED.values():  # stopped early: the limit cut it
            read(handle)
            assert in_flight() == []
        recorded = len(cluster.get_slow_ops())

        def consumer_raises(streams, order, limit):
            next(iter(streams[1]))
            raise RuntimeError("the merge's consumer gave up")

        with monkeypatch.context() as patched:
            patched.setattr(router_module, "merge_shard_streams", consumer_raises)
            for read in self.LIMITED.values():
                with pytest.raises(RuntimeError, match="gave up"):
                    read(handle)
                assert in_flight() == []
        entries = cluster.get_slow_ops()[recorded:]
        assert len(entries) == 2 * 5  # every stream that was opened was closed
        assert [entry.get("errored") for entry in entries
                if entry["source"] == "router"] == ["RuntimeError"] * 2

        # One shard cannot elect: its open raises out of the fan-out, and the
        # streams its siblings had opened by then are closed all the same.
        recorded = len(entries) + recorded
        lost = cluster.replica_set(2)
        for member in lost.members[:2]:
            lost.kill_member(member.member_id)
        for read in self.LIMITED.values():
            with pytest.raises(NoPrimaryError):
                read(handle)
            assert in_flight() == []
        entries = cluster.get_slow_ops()[recorded:]
        assert sorted(entry["source"].split("/")[0] for entry in entries) == sorted(
            ["router", "shard0", "shard1", "shard3"] * 2)


# -- merge helpers -------------------------------------------------------------------


class TestMergeHelpers:
    def test_merge_slow_ops_tags_sources_and_orders(self):
        first = [{"op": "query", "started": 2.0}]
        second = [{"op": "insert", "started": 1.0}]
        merged = merge_slow_ops([("a", first), ("b", second)])
        assert [entry["source"] for entry in merged] == ["b", "a"]

    def test_merge_top_sums(self):
        tops = [
            {"db.c": {"query": {"count": 1, "simulated_ms": 2.0}}},
            {"db.c": {"query": {"count": 2, "simulated_ms": 3.0}}},
        ]
        merged = merge_top(tops)
        assert merged["db.c"]["query"] == {"count": 3, "simulated_ms": 5.0}


# -- sampler -------------------------------------------------------------------------


class TestMetricsSampler:
    def test_series_is_bounded(self):
        registry = MetricsRegistry()
        sampler = MetricsSampler(registry.snapshot, interval_seconds=0.001,
                                 max_samples=3)
        for __ in range(10):
            sampler.sample()
        assert len(sampler.series()) == 3

    def test_interval_gating(self):
        registry = MetricsRegistry()
        sampler = MetricsSampler(registry.snapshot, interval_seconds=3600.0)
        assert sampler.maybe_sample() is True
        assert sampler.maybe_sample() is False
        assert len(sampler.series()) == 1

    def test_as_dict_shape(self):
        registry = MetricsRegistry()
        registry.increment("ops")
        sampler = MetricsSampler(registry.snapshot, interval_seconds=0.001)
        sampler.sample()
        payload = sampler.as_dict()
        assert payload["interval_seconds"] == 0.001
        sample = payload["samples"][0]
        assert sample["metrics"]["counters"]["ops"] == 1
        assert sample["elapsed_seconds"] >= 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            MetricsSampler(dict, interval_seconds=0.0)
        with pytest.raises(ValidationError):
            MetricsSampler(dict, max_samples=0)


# -- workload runner and CLI integration ---------------------------------------------


class TestRunnerIntegration:
    def test_spec_validates_profile_fields(self):
        from repro.workloads.runner import WorkloadSpec
        with pytest.raises(ValidationError):
            WorkloadSpec(profile_level=3)
        with pytest.raises(ValidationError):
            WorkloadSpec(slow_ms=-1.0)

    def test_benchmark_profiles_and_samples(self):
        from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
        spec = WorkloadSpec(record_count=100, operation_count=50,
                            profile_level=2, slow_ms=0.0)
        benchmark = DocumentBenchmark.for_topology(TopologySpec(), spec)
        sampler = benchmark.attach_sampler(interval_seconds=0.001)
        benchmark.execute_full()
        slow = benchmark.slow_ops()
        assert len(slow) > 0
        assert len(sampler.series()) >= 2      # baseline + final
        final = sampler.series()[-1]["metrics"]
        assert final["counters"]["operations.query"] > 0

    def test_profile_level_0_records_nothing(self):
        from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
        spec = WorkloadSpec(record_count=100, operation_count=20)
        benchmark = DocumentBenchmark.for_topology(TopologySpec(), spec)
        benchmark.execute_full()
        assert benchmark.slow_ops() == []


class TestProfileCli:
    def test_profile_command_table(self, capsys):
        from repro.cli import main
        assert main(["profile", "--records", "120", "--operations", "40"]) == 0
        output = capsys.readouterr().out
        assert "slow-op log:" in output
        assert "planner:" in output

    def test_profile_command_json(self, capsys):
        from repro.cli import main
        assert main(["profile", "--records", "120", "--operations", "40",
                     "--shards", "2", "--replicas", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"result", "slow_ops", "metrics", "sampler"}
        assert payload["slow_ops"]
        for entry in payload["slow_ops"]:
            assert {"op", "ns", "opid", "simulated_ms", "duration_ms",
                    "docs_examined", "docs_returned",
                    "lock_wait_ms"} <= set(entry), entry
        assert payload["sampler"]["samples"]
