"""The operation table is the one place operations are written down.

These tests guard against the facades drifting apart again: every
client-facing row of :data:`repro.docstore.operations.OPERATIONS` must exist
on every facade it declares, run through a :class:`DocumentClient` on every
deployment of ``deployments.MATRIX`` with the outcomes of the
:class:`~tests.docstore.reference.ReferenceStore`, and no facade may grow a
public method that is neither a table row nor a declared extra.  The admin
half pins the same for the shared deployment base: seven commands on every
deployment, diagnostics folded over ``children()``.
"""

from __future__ import annotations

import inspect
import re

import pytest

from repro.docstore.client import CollectionHandle, DocumentClient
from repro.docstore.collection import Collection
from repro.docstore.operations import (
    OPERATIONS,
    QUERY_ROUTED_WRITES,
    ROUTED,
)
from repro.docstore.replication.replica_set import ReplicatedCollection
from repro.docstore.sharding.cluster import RoutedCollection, ShardedCluster
from repro.docstore.sharding.router import QueryRouter
from repro.errors import DocumentStoreError, NotFoundError
from tests.docstore.reference import ReferenceStore, every_row

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


def test_the_reference_store_answers_every_client_row():
    for row in ROUTED:
        parameters = inspect.signature(getattr(ReferenceStore, row.client)).parameters
        assert [name if each.default is each.empty else f"{name}={each.default!r}"
                for name, each in parameters.items()] == [
            "self", *(param.strip() for param in row.params.split(","))], row.client


@pytest.fixture(scope="module")
def expected_outcomes():
    return every_row(ReferenceStore(), seed=12)


def test_every_row_runs_on_every_topology_like_on_a_standalone(
        deployment, expected_outcomes):
    target = deployment.database("db").collection("users")
    facade = type(target)
    for row in FACADES[facade][0]:
        assert callable(getattr(target, row.name))
    client = DocumentClient(deployment)
    outcomes = every_row(client.collection("db", "users"), seed=12)
    assert outcomes == expected_outcomes
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
    documents = [{"_id": f"k{index:02d}"} for index in range(12)]
    collection = deployment.database("db").collection("c")
    collection.insert_many(documents)
    handle = DocumentClient(deployment).collection("db", "c")
    reference = ReferenceStore(documents)
    for target in (collection, handle, reference):
        assert target.find_with_cost(query, limit=0).documents == []
        assert len(target.find_with_cost(query, limit=1).documents) == 1
        for limit in (-1, True, False, 1.0, "1"):
            with pytest.raises(DocumentStoreError, match="limit"):
                target.find_with_cost(query, limit=limit)
    finds = (handle.find_cursor, reference.find_cursor)
    assert len({repr(find(query).sort("_id", -1).skip(1).limit(2).to_list())
                for find in finds}) == 1
    for find in finds:
        assert find(query).limit(0).to_list() == []
        for limit in (-1, True, False, 1.0, "1"):
            with pytest.raises(DocumentStoreError, match="limit"):
                find(query).limit(limit)
        for skip in (-2, True, 1.5, "1", None):
            with pytest.raises(DocumentStoreError, match="skip"):
                find(query).skip(skip)


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
