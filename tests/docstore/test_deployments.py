"""The deployment matrix builds what it names, and walks it in order."""

from __future__ import annotations

import pytest

from repro.docstore.server import BUILD_INFO
from repro.docstore.sharding import ShardedCluster
from repro.docstore.topology import (
    KIND_REPLICA_SET,
    KIND_REPLICATED_CLUSTER,
    KIND_SHARDED,
    KIND_STANDALONE,
    topology_of,
)
from tests.docstore.deployments import MATRIX, build, close, distinct, servers

SERVERS = {"standalone-wiredtiger": 1, "standalone-mmapv1": 1,
           "standalone-evicting": 1, "four-shards": 4, "four-shards-serial": 4,
           "replica-set": 3, "shards-of-replica-sets": 6,
           "shards-of-replica-pairs": 4}


@pytest.mark.parametrize("name", list(MATRIX))
def test_an_entry_is_the_deployment_its_spec_describes(name):
    deployment = build(name)
    try:
        assert topology_of(deployment) == MATRIX[name].spec
        assert len(servers(deployment)) == SERVERS[name]
        if isinstance(deployment, ShardedCluster):  # only the serial pool is shut
            assert deployment.executor._closed == MATRIX[name].serial
    finally:
        close(deployment)


def test_servers_come_in_shard_order_then_member_order():
    shards, replica_set, cluster = (build(name) for name in (
        "four-shards", "replica-set", "shards-of-replica-sets"))
    try:
        assert servers(shards) == shards.shards
        assert servers(replica_set) == [member.server
                                        for member in replica_set.members]
        assert servers(cluster) == [member.server for shard in cluster.shards
                                    for member in shard.members]
    finally:
        close(shards, replica_set, cluster)


def test_the_matrix_covers_every_topology_kind_and_engine():
    specs = [entry.spec for entry in MATRIX.values()]
    assert {spec.kind for spec in specs} == {
        KIND_STANDALONE, KIND_REPLICA_SET, KIND_SHARDED, KIND_REPLICATED_CLUSTER}
    assert sorted({spec.storage_engine for spec in specs}) == BUILD_INFO[
        "storageEngines"]


def test_distinct_keeps_one_of_the_entries_built_alike():
    """Options of a suite's own replace an entry's, so the evicting standalone
    is a plain one; a crossed engine leaves the standalone named for it."""
    assert distinct() == [name for name in MATRIX if name != "standalone-evicting"]
    for engine in BUILD_INFO["storageEngines"]:
        assert distinct(engine) == [f"standalone-{engine}"] + [
            name for name in MATRIX if not name.startswith("standalone")]
