"""The deployments every docstore differential runs on: one matrix.

A differential asserts that one workload ends the same on every deployment
-- sharded == replicated == standalone.  Its deployments are the entries of
:data:`MATRIX`, each built from a :class:`TopologySpec` through
:func:`build_topology`, so a new kind or engine option joins every
differential by one line here.  The one walk over a deployment's servers is
:func:`servers`; its collections, engines and replica sets derive from it.
What a seeded YCSB run leaves on a shape is :func:`after_ycsb`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable, NamedTuple

import pytest

from repro.docstore.replication.replica_set import ReplicaSet
from repro.docstore.sharding.chunks import Chunk, ChunkManager
from repro.docstore.topology import TopologySpec, build_topology
from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
from repro.workloads.ycsb import CORE_WORKLOADS


class Entry(NamedTuple):
    spec: TopologySpec
    engine_options: dict[str, Any] = {}
    #: Built, then closed: a cluster whose pool is shut fans out serially.
    serial: bool = False


MATRIX: dict[str, Entry] = {
    "standalone-wiredtiger": Entry(TopologySpec()),
    "standalone-mmapv1": Entry(TopologySpec(storage_engine="mmapv1")),
    # A wiredTiger cache smaller than a few thousand documents: a scan evicts.
    "standalone-evicting": Entry(TopologySpec(), {"cache_bytes": 100_000}),
    "four-shards": Entry(TopologySpec(shards=4)),
    "four-shards-serial": Entry(TopologySpec(shards=4), serial=True),
    "replica-set": Entry(TopologySpec(replicas=3, write_concern="majority")),
    "shards-of-replica-sets": Entry(TopologySpec(shards=2, replicas=3,
                                                 write_concern="majority")),
    # Two members: a majority is every member, so each write waits on both.
    "shards-of-replica-pairs": Entry(TopologySpec(shards=2, replicas=2,
                                                  write_concern="majority")),
}


def resolve(name: str, engine: str | None = None, **engine_options: Any) -> Entry:
    """The entry :func:`build` builds for these arguments.  An ``engine`` or
    engine options given replace the entry's own (which belong to the entry's
    engine)."""
    entry = MATRIX[name]
    if engine is None and not engine_options:
        return entry
    return entry._replace(spec=replace(
        entry.spec, storage_engine=engine or entry.spec.storage_engine),
        engine_options=engine_options)


def build(name: str, engine: str | None = None, **engine_options: Any) -> Any:
    """The deployment of ``MATRIX[name]``, as :func:`resolve` says."""
    spec, options, serial = resolve(name, engine, **engine_options)
    deployment = build_topology(spec, **options)
    if serial:
        deployment.close()
    return deployment


def distinct(engine: str | None = None) -> list[str]:
    """The entries that stay distinct deployments when each is built on
    ``engine`` (or its own) with engine options of the caller's, which
    replace its own: of those built alike, the first on its own engine."""
    first: dict[tuple, str] = {}
    for name in sorted(MATRIX, key=lambda name: engine not in (
            None, MATRIX[name].spec.storage_engine)):
        spec, __, serial = resolve(name, engine or MATRIX[name].spec.storage_engine)
        first.setdefault((spec, serial), name)
    return [name for name in MATRIX if name in first.values()]


#: Each engine's options for a cache, or a memory, that ``churn``'s data
#: outgrows: a read evicts (wiredTiger) or faults (mmapv1).
SMALL = {"wiredtiger": {"cache_bytes": 6_000}, "mmapv1": {"memory_bytes": 20_000}}


def small(name: str) -> Any:
    """The deployment of ``MATRIX[name]``, on a cache its data outgrows."""
    return build(name, **SMALL[MATRIX[name].spec.storage_engine])


def close(*deployments: Any) -> None:
    for deployment in deployments:
        deployment.close()


@pytest.fixture(params=list(MATRIX))
def deployment(request) -> Any:
    """Each matrix entry, closed at teardown."""
    built = build(request.param)
    yield built
    built.close()


def after_ycsb(topology: TopologySpec, workload: str) -> list[dict[str, Any]]:
    """The documents a seeded run of YCSB ``workload`` (120 records, 240
    operations on 4 threads) leaves on ``topology``, in ``_id`` order."""
    core = CORE_WORKLOADS[workload]
    spec = WorkloadSpec(record_count=120, operation_count=240, threads=4,
                        mix=core.mix, distribution=core.distribution, seed=13)
    benchmark = DocumentBenchmark.for_topology(topology, spec)
    benchmark.execute_full()
    return sorted(benchmark.handle.find_with_cost({}).documents,
                  key=lambda document: document["_id"])


def parts(deployment: Any) -> list[Any]:
    """The deployment and every deployment inside it, each before its own."""
    return [deployment] + [part for __, child in deployment.children()
                           for part in parts(child)]


def servers(deployment: Any) -> list[Any]:
    """Every server of ``deployment``: in shard order, then member order."""
    return [part for part in parts(deployment) if not part.children()]


def collections(deployment: Any, database: str = "db",
                collection: str = "c") -> list[Any]:
    """The physical ``database.collection`` of every server."""
    return [server.database(database).collection(collection)
            for server in servers(deployment)]


def engines(deployment: Any, database: str = "db", collection: str = "c") -> list[Any]:
    return [each.engine for each in collections(deployment, database, collection)]


def replica_sets(deployment: Any) -> list[ReplicaSet]:
    return [part for part in parts(deployment) if isinstance(part, ReplicaSet)]


def owners_of(manager: ChunkManager,
              shard_key_values: Iterable[Any]) -> dict[Any, list[Chunk]]:
    """Map each value to every chunk covering it (exactly one when valid)."""
    owners: dict[Any, list[Chunk]] = {}
    for value in shard_key_values:
        point = manager.routing_point(value)
        owners[value] = [chunk for chunk in manager.chunks() if chunk.covers(point)]
    return owners
