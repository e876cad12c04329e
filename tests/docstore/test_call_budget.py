"""What a router and a replica set add to a point operation, in Python calls.

A clock-free guard for the routing and the replicated-read tax
(``benchmarks/perf`` measures them in microseconds): the number of Python
``call`` events (``sys.setprofile``) one warm operation through a
:class:`DocumentClient` raises is exact and repeats, so a frame that creeps
back into the single-owner path fails here before a benchmark can show it.
The counts hold for this data set (the depth of a B-tree search is part of
them); what is pinned is the *difference* to the standalone server, and the
standalone's own count as a ceiling -- what the shared read path
(``Collection._find_with_cost``) costs every operation built on it.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.docstore.client import CollectionHandle, DocumentClient
from repro.docstore.replication.replica_set import ReplicaSet
from repro.docstore.server import DocumentServer
from repro.docstore.sharding import ShardedCluster

DEPLOYMENTS = {
    "standalone": DocumentServer,
    "sharded": lambda: ShardedCluster(shards=4),
    "replicated": lambda: ReplicaSet(members=3, write_concern="majority"),
}
OPERATIONS = {
    "read": lambda handle: handle.find_with_cost({"_id": "k7"}),
    "count": lambda handle: handle.count_documents({"_id": "k7"}),
    "update": lambda handle: handle.update_one({"_id": "k7"}, {"$set": {"v": 1}}),
    "insert": lambda handle: handle.insert_one({"_id": "new", "v": 1}),
}

#: Calls more than the standalone server's: (sharded, replicated).  The read
#: and count rows are budgets (ISSUE 15: at most +14 / +14 routed, +11
#: replicated read); the write rows record what that change reached, from
#: +19 / +144 (update) and +17 / +182 (insert).
ADDED = {
    "read": (14, 11),
    "count": (14, 10),
    "update": (10, 139),
    "insert": (13, 177),
}

#: Ceilings on the standalone server's own counts.  A count and an update's
#: first-match lookup go through ``Collection._find_with_cost`` (ISSUE 17):
#: its frame, its ``OperationResult`` and, for a count, the lookup-cost read
#: are what they pay for having no loop of their own (20 -> 23, 78 -> 79; the
#: issue budgeted 80); a read and an insert stay where they were.
STANDALONE = {"read": 27, "count": 23, "update": 79, "insert": 76}


def calls(operation, handle: CollectionHandle) -> int:
    """Python ``call`` events of one ``operation(handle)``, its own excluded.

    The collector is held off meanwhile: a finalizer of some earlier test's
    garbage (a cluster's closes its executor) would be counted as well.
    """
    count = -1

    def profile(frame, event, argument) -> None:
        nonlocal count
        count += event == "call"

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        operation(handle)
    finally:
        sys.setprofile(None)
        gc.enable()
    return count


@pytest.fixture(scope="module")
def counts() -> dict[str, dict[str, int]]:
    counted: dict[str, dict[str, int]] = {}
    for kind, build in DEPLOYMENTS.items():
        handle = DocumentClient(build()).collection("db", "c")
        for index in range(200):
            handle.insert_one({"_id": f"k{index}", "v": index})
        counted[kind] = {}
        for name, operation in OPERATIONS.items():
            if name != "insert":  # warm: plan cache, stand-ins, listeners
                operation(handle)
            counted[kind][name] = calls(operation, handle)
    return counted


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_calls_of_the_standalone_path(counts, name):
    assert counts["standalone"][name] <= STANDALONE[name]


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_calls_added_to_the_standalone_path(counts, name):
    alone = counts["standalone"][name]
    sharded, replicated = ADDED[name]
    assert counts["sharded"][name] - alone <= sharded
    assert counts["replicated"][name] - alone <= replicated


def test_counting_is_exact():
    handle = DocumentClient(DocumentServer()).collection("db", "c")
    handle.insert_one({"_id": "k7", "v": 7})
    OPERATIONS["read"](handle)
    assert len({calls(OPERATIONS["read"], handle) for __ in range(5)}) == 1
