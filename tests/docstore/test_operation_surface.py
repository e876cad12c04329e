"""The operation table is the one place operations are written down.

These tests guard against the facades drifting apart again: every
client-facing row of :data:`repro.docstore.operations.OPERATIONS` must exist
on every facade it declares, run through a :class:`DocumentClient` on every
deployment of ``deployments.MATRIX`` with standalone-equal outcomes, and no
facade may grow a public method that is neither a table row nor a declared
extra.  The admin half pins the same for the shared deployment base: seven
commands on every deployment, diagnostics folded over ``children()``.
"""

from __future__ import annotations

import inspect
import random
import re

import pytest

from repro.docstore.client import CollectionHandle, DocumentClient
from repro.docstore.collection import Collection, OperationResult
from repro.docstore.operations import (
    OPERATIONS,
    QUERY_ROUTED_WRITES,
    ROUTED,
)
from repro.docstore.replication.replica_set import ReplicatedCollection
from repro.docstore.sharding.cluster import RoutedCollection, ShardedCluster
from repro.docstore.sharding.router import QueryRouter
from repro.errors import DocumentStoreError, NotFoundError
from tests.docstore.deployments import build

#: Facade class -> (the rows it carries, the name each row goes by there,
#: the hand-written members that differ in kind rather than by mirroring).
FACADES = {
    Collection: (OPERATIONS, "name",
                 ("find", "find_one", "explain", "stats",
                  "index_for", "record_ids",
                  # oplog replay's one write entry, for a run of records of
                  # any kind: no facade carries it, a member's physical
                  # collection is all it is ever called on
                  "apply_post_images")),
    ReplicatedCollection: (OPERATIONS, "name", ("find_one", "explain", "stats")),
    RoutedCollection: (ROUTED, "name", ("find_one", "explain", "stats")),
    CollectionHandle: (ROUTED, "client",
                       ("find", "find_one", "find_cursor", "aggregate",
                        "explain", "stats")),
}


# -- the collection half ---------------------------------------------------------------


@pytest.mark.parametrize("facade", FACADES, ids=lambda cls: cls.__name__)
def test_facade_surface_is_the_table_plus_declared_extras(facade):
    rows, attribute, extras = FACADES[facade]
    generated = {getattr(row, attribute) for row in rows}
    public = {name for name, __ in inspect.getmembers(facade, callable)
              if not name.startswith("_")}
    assert public == generated | set(extras)
    # Generated methods live in the class's own namespace (the outside-in
    # tracer of benchmarks/perf reads ``vars(owner)``), with the row's
    # parameter list.
    for row in rows:
        method = vars(facade)[getattr(row, attribute)]
        assert inspect.isfunction(method)
        assert str(inspect.signature(method)) == f"(self, {row.params})"


def test_router_writes_placed_by_query_come_from_the_table():
    assert {row.name for row in QUERY_ROUTED_WRITES} == {
        "update_one", "update_many", "replace_one", "delete_one", "delete_many"}
    for row in ROUTED:
        assert inspect.isfunction(vars(QueryRouter)[row.name])


def test_shard_side_rows_never_cross_the_router():
    """A partial ``$group`` and the opening of a limited read's stream are
    what a *shard* is asked; no client-facing facade carries them."""
    shard_side = {row.name for row in OPERATIONS} - {row.name for row in ROUTED}
    assert shard_side == {"aggregate_partial", "open_read"}
    for facade in (RoutedCollection, CollectionHandle, QueryRouter):
        assert not shard_side & set(vars(facade))
    for facade in (Collection, ReplicatedCollection):
        assert shard_side <= set(vars(facade))


def _outcome(value):
    """An operation's outcome in a topology-independent form."""
    if isinstance(value, OperationResult):
        return (value.matched_count, value.modified_count, value.deleted_count,
                len(value.inserted_ids),
                sorted(map(repr, value.documents)))
    return value


def _drive(handle: CollectionHandle, seed: int) -> list:
    """A seeded sequence that calls every client-facing row; single-document
    writes pin ``_id`` (an unpinned one may legitimately pick another match
    on a cluster)."""
    rng = random.Random(seed)
    keys = [f"user{index:03d}" for index in range(40)]
    serial = iter(range(10_000))

    def fresh():
        return {"_id": f"new{next(serial):04d}", "group": rng.randrange(4),
                "score": rng.randrange(100), "tags": ["a", "b"][:rng.randrange(3)]}

    def pinned():
        return {"_id": rng.choice(keys)}

    calls = {
        "insert_one": lambda: handle.insert_one(fresh()),
        "insert_many": lambda: handle.insert_many([fresh() for __ in range(3)]),
        "update_one": lambda: handle.update_one(pinned(), {"$inc": {"score": 1}}),
        "update_many": lambda: handle.update_many(
            {"group": rng.randrange(4)}, {"$set": {"touched": True}}),
        "replace_one": lambda: handle.replace_one(
            pinned(), {"group": rng.randrange(4), "score": 0, "replaced": True}),
        "delete_one": lambda: handle.delete_one(pinned()),
        "delete_many": lambda: handle.delete_many({"score": {"$gte": 95}}),
        "find_with_cost": lambda: handle.find_with_cost(
            {"score": {"$lt": rng.randrange(100)}}),
        "count_documents": lambda: handle.count_documents(
            {"group": rng.randrange(4)}),
        "aggregate_with_cost": lambda: handle.aggregate_with_cost([
            {"$group": {"_id": "$group", "n": {"$count": {}},
                        "total": {"$sum": "$score"}}}]),
        "distinct": lambda: handle.distinct("group", {"score": {"$gte": 10}}),
        "create_index": lambda: handle.create_index("group"),
        "drop_index": lambda: handle.drop_index("group"),
    }
    assert set(calls) == {row.client for row in ROUTED}
    handle.insert_many([{"_id": key, "group": index % 4, "score": index}
                        for index, key in enumerate(keys)])
    handle.create_index("group")
    outcomes = []
    for __ in range(6):
        for name in rng.sample(sorted(calls), len(calls)):
            outcomes.append((name, _outcome(calls[name]())))
    outcomes.append(("contents", sorted(map(repr, handle.find({})))))
    return outcomes


@pytest.fixture(scope="module")
def standalone_outcomes():
    server = build("standalone-wiredtiger")
    return _drive(DocumentClient(server).collection("db", "users"), seed=12)


def test_every_row_runs_on_every_topology_like_on_a_standalone(
        deployment, standalone_outcomes):
    target = deployment.database("db").collection("users")
    facade = type(target)
    for row in FACADES[facade][0]:
        assert callable(getattr(target, row.name))
    client = DocumentClient(deployment)
    outcomes = _drive(client.collection("db", "users"), seed=12)
    assert outcomes == standalone_outcomes
    assert {name for name, __ in outcomes} > {row.client for row in ROUTED}
    # Costed rows record their latency under the row's label.
    for label in {row.label for row in ROUTED} - {None}:
        assert client.latencies(label), label


@pytest.mark.parametrize("query", [{"_id": "k03"}, {"_id": {"$gte": "k03"}}, {}],
                         ids=["one-owner", "range", "everything"])
def test_a_limit_means_one_thing_on_every_topology(deployment, query):
    """``0`` reads nothing and returns nothing, a positive integer cuts, and
    anything else is an error -- wherever the limit is consumed: a server's
    read loop, a single owner's, the router's merge of several shards."""
    collection = deployment.database("db").collection("c")
    collection.insert_many([{"_id": f"k{index:02d}"} for index in range(12)])
    handle = DocumentClient(deployment).collection("db", "c")
    for target in (collection, handle):
        assert target.find_with_cost(query, limit=0).documents == []
        assert len(target.find_with_cost(query, limit=1).documents) == 1
        for limit in (-1, True, False, 1.0, "1"):
            with pytest.raises(DocumentStoreError, match="limit"):
                target.find_with_cost(query, limit=limit)
    assert handle.find_cursor(query).limit(0).to_list() == []


def test_replace_one_is_routed_like_update_one(deployment):
    collection = deployment.database("db").collection("c")
    collection.insert_one({"_id": "a", "x": 1})
    result = collection.replace_one({"_id": "a"}, {"x": 2})
    assert (result.matched_count, result.modified_count) == (1, 1)
    assert collection.find_one({"_id": "a"}) == {"_id": "a", "x": 2}
    with pytest.raises(DocumentStoreError, match="operators"):
        collection.replace_one({"_id": "a"}, {"$set": {"x": 3}})


def test_routed_replace_one_keeps_the_shard_key_immutable():
    cluster = ShardedCluster(shards=2, shard_key="region")
    try:
        collection = cluster.database("db").collection("c")
        collection.insert_one({"_id": "a", "region": "eu", "x": 1})
        with pytest.raises(DocumentStoreError, match="immutable"):
            collection.replace_one({"region": "eu"}, {"region": "us", "x": 2})
        with pytest.raises(DocumentStoreError, match="must pin"):
            collection.replace_one({"x": 1}, {"region": "eu", "x": 2})
        collection.replace_one({"region": "eu"}, {"region": "eu", "x": 2})
        assert collection.find_one({"_id": "a"})["x"] == 2
    finally:
        cluster.close()


# -- the admin half ----------------------------------------------------------------------


def test_shared_commands_are_accepted_by_every_deployment(deployment):
    client = DocumentClient(deployment)
    client.collection("db", "c").insert_one({"_id": "a"})
    for command in ({"ping": 1}, {"serverStatus": 1}, {"profile": -1},
                    {"profile": 1, "slowms": 5}, {"currentOp": 1}, {"top": 1},
                    {"dbStats": "db"}, {"collStats": "db.c"}):
        assert client.command(command)["ok"] == 1, command
    assert client.command({"profile": -1})["level"] == 1
    assert client.command({"dbStats": "db"})["documents"] == 1
    for command in ({"dbStats": "nope"}, {"collStats": "db.nope"},
                    {"collStats": "nope.c"}):
        with pytest.raises(NotFoundError):
            client.command(command)
    with pytest.raises(DocumentStoreError, match="unsupported"):
        client.command({"noSuchCommand": 1})


def test_diagnostics_fold_over_the_deployment_tree():
    cluster = ShardedCluster(shards=2, replicas=2, write_concern="majority")
    try:
        cluster.set_profiling(2, slow_ms=0)
        handle = DocumentClient(cluster).collection("db", "c")
        handle.insert_many([{"_id": f"k{index}", "v": index} for index in range(12)])
        handle.find({"v": {"$gte": 3}})          # scatter
        handle.update_one({"_id": "k1"}, {"$inc": {"v": 1}})  # targeted
        entries = cluster.get_slow_ops()
        sources = {entry["source"] for entry in entries}
        assert all(re.fullmatch(r"router|shard[01]/member[01]", source)
                   for source in sources), sources
        assert "router" in sources
        assert {source.split("/")[0] for source in sources} == {
            "router", "shard0", "shard1"}
        assert [entry["started"] for entry in entries] == sorted(
            entry["started"] for entry in entries)
        members = [member for shard in cluster.shards for member in shard.members]
        profiler = cluster.metrics_snapshot()["profiler"]
        assert profiler["slow_ops_recorded"] == (
            cluster.profiler.slow_ops_recorded
            + sum(member.server.profiler.slow_ops_recorded for member in members))
        assert profiler["slow_ops_recorded"] == len(entries)
        assert profiler["shards"] == 2 and profiler["level"] == 2
        assert cluster.shards[0].metrics_snapshot()["profiler"]["members"] == 2
        assert all(entry["source"] in sources for entry in cluster.current_ops())
    finally:
        cluster.close()


def test_the_modelled_speedup_follows_the_live_engine():
    """The mechanism ablations (E9) swap a server's engine for a subclass with
    another concurrency profile; the runner must read the profile of the
    engine that serves the collection, not of the registered engine class."""
    from repro.docstore.mmapv1 import MmapV1Engine
    from repro.docstore.server import DocumentServer
    from repro.docstore.wiredtiger import WiredTigerEngine
    from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
    from repro.workloads.ycsb import OperationMix

    class DocLockMmap(MmapV1Engine):
        concurrency = WiredTigerEngine.concurrency

    def throughput(server):
        spec = WorkloadSpec(record_count=60, operation_count=120, threads=8,
                            mix=OperationMix(read=0.5, update=0.5), seed=11)
        return DocumentBenchmark(server, spec).execute_full().throughput_ops_per_sec

    swapped = DocumentServer("mmapv1")
    swapped._new_engine = lambda: DocLockMmap()
    assert throughput(swapped) > 2 * throughput(DocumentServer("mmapv1"))
