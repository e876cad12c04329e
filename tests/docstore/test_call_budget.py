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

The second half pins, the same way, what a *limited read over four shards*
costs (ISSUE 18): the documents the cluster examines for it, the one fan-out
of four tasks it stays and its Python calls; and, for every routed read, that
its filter and pipeline are parsed once, by the router, and never by a shard.

The third half pins what an *unindexed* read costs per document it examines:
a full scan is one pass of the engine with the document in hand, drained as
one list when nothing can cut the read, lazy when a limit may.

Beside it, what an *indexed* read costs per document it examines: an
``INDEX_EQ`` plan hands the engine its sorted record ids and the engine reads
them in one pass (``StorageEngine.read_ids``) -- one descent of the tree for
all of them and one bill when the pass ends, instead of a search and a charge
per id -- for a count, a find, an ``update_many`` and a ``delete_many`` on each
engine; the two writes store their matches as one run.

The fourth half pins what a *batch* costs per document below the client (ISSUE
22): a router and a replica set keep it a batch, and the maintenance rounds a
load triggers find a document's chunk by bisect.

The last half pins the profiling tax (ISSUE 24): level 0 costs a warm point
read not one call, level 2 what its spans record -- the figures E16 reports in
wall-clock, stated without a clock.
"""

from __future__ import annotations

import gc
import random
import sys
from functools import partial

import pytest

from repro.docstore.client import CollectionHandle, DocumentClient
from repro.docstore.server import DocumentServer
from repro.docstore.sharding import ShardedCluster
from repro.workloads.generator import RecordGenerator
from tests.docstore.deployments import build, close, collections

#: Three named matrix entries, not the whole matrix: a call count is pinned
#: per shape.
ALONE, SHARDED, REPLICATED = "standalone-wiredtiger", "four-shards", "replica-set"
OPERATIONS = {
    "read": lambda handle: handle.find_with_cost({"_id": "k7"}),
    "count": lambda handle: handle.count_documents({"_id": "k7"}),
    "update": lambda handle: handle.update_one({"_id": "k7"}, {"$set": {"v": 1}}),
    "insert": lambda handle: handle.insert_one({"_id": "new", "v": 1}),
    "delete": lambda handle: handle.delete_one({"_id": "k9"}),
}
#: A delete removes its document, so it is warmed on another key.
WARM = {"delete": lambda handle: handle.delete_one({"_id": "k8"})}

#: Calls more than the standalone server's: (sharded, replicated).  The read
#: and count rows are budgets (at most +14 / +14 routed, +11 replicated
#: read); the write rows record what the code reaches.  A replicated update
#: was +139 and an insert +177 while the primary's listener, the oplog and a
#: member each had a call per write kind, and a delete +211 while every
#: member ran it again; one listener call, one append and one member apply of
#: post-images for every kind took them to +123 / +153 / +157.  With one
#: engine write, a member's update and insert lose what the primary's do
#: (+117 / +149); a routed update rises to +11 (its total still falls, 88 ->
#: 86): the search the standalone update lost costs less on a shard's
#: one-level tree.  A delete with one descent does the same: a routed delete
#: rises to +9 (89 -> 88) and a replicated one falls to +153 (238 -> 232).
ADDED = {
    "read": (14, 11),
    "count": (14, 10),
    "update": (11, 117),
    "insert": (13, 149),
    "delete": (9, 153),
}

#: Ceilings on the standalone server's own counts.  A count and an update's
#: first-match lookup go through ``Collection._find_with_cost``: its frame,
#: its ``OperationResult`` and, for a count, the lookup-cost read are what
#: they pay for having no loop of their own (20 -> 23, 78 -> 79).  A write
#: asks for its listener inline, with no helper frame (update 79 -> 78,
#: insert 72 -> 71; a delete spends that frame on the removal it shares with
#: a member's apply, and stays at 82).  ``store_batch`` is the engine's one
#: write: an insert no longer passes through a per-record helper and a size
#: check, an update no longer searches before it stores, and a delete
#: revalidates inline as an update does (update 78 -> 75, insert 71 -> 69,
#: delete 82 -> 81).  A delete is one descent, which says what it removed: no
#: search before it (81 -> 79).  An update is built from what it changes: the
#: stored size comes with the revalidating ``peek`` and only the touched
#: field is measured again, not every field of the post-image (75 -> 71).
STANDALONE = {"read": 27, "count": 23, "update": 71, "insert": 69, "delete": 79}


def calls(operation, handle: CollectionHandle, of: str | None = None,
          made_in: str = "") -> int:
    """Python ``call`` events of one ``operation(handle)``, its own excluded
    -- or, given ``of``, only the calls of the function of that name (made
    from a file whose path ends in ``made_in``).  This thread's only.

    The collector is held off meanwhile: a finalizer of some earlier test's
    garbage (a cluster's closes its executor) would be counted as well.
    """
    count = -1 if of is None else 0

    def profile(frame, event, argument) -> None:
        nonlocal count
        if event == "call" and (of is None or (
                frame.f_code.co_name == of
                and frame.f_back.f_code.co_filename.endswith(made_in))):
            count += 1

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
    for kind in ALONE, SHARDED, REPLICATED:
        handle = DocumentClient(build(kind)).collection("db", "c")
        for index in range(200):
            handle.insert_one({"_id": f"k{index}", "v": index})
        counted[kind] = {}
        for name, operation in OPERATIONS.items():
            if name != "insert":  # warm: plan cache, stand-ins, listeners
                WARM.get(name, operation)(handle)
            counted[kind][name] = calls(operation, handle)
        print(f"python calls, {kind}: {counted[kind]}")  # CI prints it (-rP)
    return counted


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_calls_of_the_standalone_path(counts, name):
    assert counts[ALONE][name] <= STANDALONE[name]


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_calls_added_to_the_standalone_path(counts, name):
    alone = counts[ALONE][name]
    sharded, replicated = ADDED[name]
    assert counts[SHARDED][name] - alone <= sharded
    assert counts[REPLICATED][name] - alone <= replicated


def test_counting_is_exact():
    handle = DocumentClient(DocumentServer()).collection("db", "c")
    handle.insert_one({"_id": "k7", "v": 7})
    OPERATIONS["read"](handle)
    assert len({calls(OPERATIONS["read"], handle) for __ in range(5)}) == 1


# -- what profiling adds to a warm point read -------------------------------------

#: Python calls a level-2 read adds to the level-0 one.  One span (a
#: standalone's, a primary's) was +27, a router's on top of its shard's +59;
#: ISSUE 24 budgeted +14 / +32 / +14.  What a span still calls: its wrapper,
#: the lock-wait reads before and after, the shape memo and its key, ``start``
#: (the thread's name, the span's constructor), ``note_plan`` /
#: ``note_result``, ``finish``, the one registry round and its histogram --
#: and a router's names its one owner as a child.
PROFILED_ADDS = {ALONE: 14, SHARDED: 27, REPLICATED: 14}


@pytest.fixture(scope="module")
def profiled_reads() -> dict[str, dict[str, int]]:
    """Per deployment, the calls of one warm read at level 0, at level 2,
    switched off again, and with no profiler on any collection at all."""
    read, counted = OPERATIONS["read"], {}
    for kind in PROFILED_ADDS:
        deployment = build(kind)
        handle = DocumentClient(deployment).collection("db", "c")
        for index in range(200):
            handle.insert_one({"_id": f"k{index}", "v": index})
        read(handle)
        counted[kind] = {"level 0": calls(read, handle)}
        deployment.set_profiling(2, slow_ms=0)
        read(handle)  # warm: the shape memo, the interned names
        counted[kind]["level 2"] = calls(read, handle)
        deployment.set_profiling(0)
        counted[kind]["off again"] = calls(read, handle)
        for collection in collections(deployment):
            collection.profiler = None
        counted[kind]["no profiler"] = calls(read, handle)
        print(f"python calls of a point read, {kind}: {counted[kind]}")
    return counted


@pytest.mark.parametrize("kind", sorted(PROFILED_ADDS))
def test_level_0_costs_a_point_read_no_call(profiled_reads, counts, kind):
    counted = profiled_reads[kind]
    assert (counted["level 0"] == counted["no profiler"] == counted["off again"]
            == counts[kind]["read"])


@pytest.mark.parametrize("kind", sorted(PROFILED_ADDS))
def test_calls_level_2_adds_to_a_point_read(profiled_reads, kind):
    counted = profiled_reads[kind]
    assert 0 < counted["level 2"] - counted["level 0"] <= PROFILED_ADDS[kind]


# -- a limited read over four shards ---------------------------------------------------

SHARDS, LIMIT = 4, 10
PREFETCH = -(-LIMIT // SHARDS)
LIMITED = {
    "scan": lambda handle: handle.find_with_cost({"_id": {"$gte": "k0100"}}, LIMIT),
    "topk": lambda handle: handle.aggregate_with_cost([
        {"$match": {"counter": {"$gte": 100}}}, {"$sort": {"counter": 1}},
        {"$limit": LIMIT}]),
}
#: Documents the four shards examine for one read (each read ``LIMIT`` of
#: them before the prefetch lane: 40 and 40).
EXAMINED = {"scan": 17, "topk": 15}
#: Python calls of one warm read: the calling thread's while the pool is
#: open (it opens shard 0, waits, merges), and the whole read's on one thread
#: once it is closed.  The open ceilings keep the slack they had for the
#: caller's blocking wait: a worker that finishes first spares the caller
#: that half of it.  Since a shard binds the router's parse instead of
#: reading the filter and the pipeline again, 405 / 679 and 337 / 564 are
#: measured (459 / 844 and 411 / 782 before).
CALLS = {"scan": (413, 679), "topk": (351, 564)}


def seeded(deployment) -> CollectionHandle:
    handle = DocumentClient(deployment).collection("db", "c")
    handle.insert_many([{"_id": f"k{index:04d}", "counter": index * 37 % 400}
                        for index in range(400)])
    handle.create_index("counter")
    return handle


@pytest.fixture(scope="module")
def clusters():
    """The pool open (``True``) and closed (``False``: serial fan-out)."""
    built = {True: build(SHARDED), False: build("four-shards-serial")}
    assert {cluster.shard_count for cluster in built.values()} == {SHARDS}
    yield {open_pool: seeded(cluster) for open_pool, cluster in built.items()}
    close(*built.values())


@pytest.mark.parametrize("name", sorted(LIMITED))
def test_a_limited_read_examines_its_share_not_four_limits(clusters, name):
    handle = clusters[True]
    cluster = handle._client.server
    expected = LIMITED[name](handle).documents
    assert len(expected) == LIMIT
    before = cluster.server_status()["fanout"]
    recorded = len(cluster.get_slow_ops())
    cluster.set_profiling(2, slow_ms=0)
    try:
        assert LIMITED[name](handle).documents == expected
    finally:
        cluster.set_profiling(0)
    after = cluster.server_status()["fanout"]
    assert (after["fanouts"] - before["fanouts"],
            after["tasks_dispatched"] - before["tasks_dispatched"]) == (1, SHARDS)
    examined = [span["docs_examined"] for span in cluster.get_slow_ops()[recorded:]
                if span["source"] != "router"]
    assert len(examined) == SHARDS and min(examined) >= PREFETCH
    assert sum(examined) == EXAMINED[name] <= SHARDS * PREFETCH + LIMIT


@pytest.mark.parametrize("name", sorted(LIMITED))
def test_calls_of_a_limited_read_over_four_shards(clusters, name):
    for open_pool, ceiling in zip((True, False), CALLS[name]):
        LIMITED[name](clusters[open_pool])  # warm
        counted = calls(LIMITED[name], clusters[open_pool])
        assert counted <= ceiling
    assert calls(LIMITED[name], clusters[False]) == counted  # serial: exact


#: Every read the router parses: each filters on the indexed, unsharded
#: ``counter`` (or ``_id`` ranges, which a hashed ``_id`` cannot target).
ROUTED_READS = {
    **LIMITED,
    "find": lambda handle: handle.find_with_cost({"counter": {"$gte": 100}}),
    "count": lambda handle: handle.count_documents({"counter": {"$gte": 100}}),
    "group": lambda handle: handle.aggregate_with_cost([
        {"$match": {"counter": {"$gte": 100}}},
        {"$group": {"_id": None, "n": {"$sum": 1}}}]),
}


@pytest.mark.parametrize("name", sorted(ROUTED_READS))
def test_a_routed_read_is_parsed_once(clusters, name):
    """On a closed pool every frame runs on this thread: the router reads
    the filter once (one ``query_shape``, one walk of the raw filter, its
    shape compiled once) and a pipeline once; no shard plans a raw filter or
    parses a stage again.  A top-k ran ``parse_pipeline`` 6 times,
    ``query_shape`` and ``compile_shape`` 5 times each, and a limited find
    ``query_shape`` 4 times, while each shard re-read what it was handed."""
    read, handle = ROUTED_READS[name], clusters[False]
    read(handle)  # warm
    assert calls(read, handle, of="query_shape") == 1
    assert calls(read, handle, of="query_shape", made_in="planner.py") == 0
    assert calls(read, handle, of="_shape_clauses") == 1
    assert calls(read, handle, of="compile_shape") == 1
    assert calls(read, handle, of="parse_pipeline") <= 1


@pytest.mark.parametrize("kind", [ALONE, REPLICATED])
def test_a_warm_plan_binds_its_intervals(kind):
    """One server reads the filter once too: a warm plan walks it with one
    ``query_shape`` and binds the interval template its plan cache keeps --
    no interval set is built from the raw query (a raw-query interval walk
    ran per warm read before)."""
    handle = seeded(build(kind))
    for name, read in LIMITED.items():
        read(handle)  # warm
        assert calls(read, handle, of="query_shape") == 1, name
        assert calls(read, handle, of="parse_pipeline") == (
            1 if name == "topk" else 0)
    scan = LIMITED["scan"]
    assert calls(scan, handle, of="bind", made_in="planner.py") == 1


# -- an unindexed read, per examined document ---------------------------------------

DOCUMENTS = 2_000
#: The pipeline ``benchmarks/perf`` times as ``group_p50_ms``.
GROUP_PIPELINE = [
    {"$match": {"active": True}},
    {"$group": {"_id": "$category", "count": {"$sum": 1},
                "sum": {"$sum": "$counter"}}},
]
UNINDEXED = {
    "group": lambda handle: handle.aggregate_with_cost(GROUP_PIPELINE),
    "find": lambda handle: handle.find({"active": True}),
    "count": lambda handle: handle.count_documents({"active": True}),
    # A limit that never cuts: the lazy pass, the one a limited read takes.
    "find-limited": lambda handle: handle.find_with_cost({"active": True},
                                                         DOCUMENTS),
}
#: Python calls per document a ``FULL_SCAN`` examines (half of them match),
#: by engine.  While the plan listed every record id and the executor searched
#: for each again the three cost 20.6 / 17.0 / 16.0 on wiredTiger and 16.6 /
#: 13.0 / 12.0 on mmapv1 (12 / 9 / 8 were budgeted for both).  A read
#: nothing cuts -- group, find, count -- takes the engine's pass as one list
#: (``StorageEngine.drain``).  On wiredTiger that is a cache probe per B-tree
#: node, not per document, and no resume: what is left per document is the
#: matcher's two frames and, per match, the consumer (4.77 / 3.23 / 2.23,
#: from 7.21 / 5.17 / 4.17 while every read took the lazy pass; a ``$group``
#: source also lost its resume per match).  mmapv1 drains its lazy pass: a
#: resume and the one frame of its page-fault share per document (6.55 /
#: 5.02 / 4.02).  A limited find takes the lazy pass, limit or no cut: on
#: wiredTiger a resume and a cache probe per document more (5.17 on both
#: engines, the budget every find had before the drained pass).  A wiredTiger
#: miss costs no frame beyond the cache probe while its size is in the
#: engine's memo of miss ticks, so a cache that every document misses meets
#: the same budget; a size out of the memo costs the one ``_miss_cost``
#: frame, as every miss did before the memo.  Half a call of slack: one frame
#: more per document fails.
PER_DOCUMENT = {
    "wiredtiger": {"group": 5.0, "find": 3.5, "count": 2.5, "find-limited": 5.5},
    "mmapv1": {"group": 7.5, "find": 5.5, "count": 4.5, "find-limited": 5.5},
}
#: Each engine with its default cache (the 2,000 documents stay resident);
#: wiredTiger with a cache of about a third of them, where a pass in
#: record-id order misses on every document it examines; and that cache over
#: documents of 2,000 sizes, more than the memo holds, so that every miss
#: misses the memo too.  Each: (the matrix entry, one size per document).
SCANNED = {"wiredtiger": ("standalone-wiredtiger", False),
           "wiredtiger-evicting": ("standalone-evicting", False),
           "wiredtiger-every-size": ("standalone-evicting", True),
           "mmapv1": ("standalone-mmapv1", False)}


def two_thousand(shape: str, every_size: bool = False) -> CollectionHandle:
    handle = DocumentClient(build(shape)).collection("db", "c")
    handle.insert_many([
        {"_id": f"user{index}", "field0": "x" * (100 + index * every_size),
         "counter": index, "category": f"cat{index % 10}",
         "active": bool(index % 2)}
        for index in range(DOCUMENTS)])
    return handle


@pytest.fixture(scope="module", params=sorted(SCANNED))
def unindexed(request) -> tuple[str, CollectionHandle]:
    return request.param, two_thousand(*SCANNED[request.param])


@pytest.mark.parametrize("name", sorted(UNINDEXED))
def test_calls_per_document_of_a_full_scan(unindexed, name):
    scanned, handle = unindexed
    engine = handle._client.server.database("db").collection("c").engine
    UNINDEXED[name](handle)  # warm: the plan cache
    if engine.name == "wiredtiger":
        cache, memo = engine._cache.stats, engine._miss_ticks
        misses, formula_runs = cache.misses, memo.cache_info().misses
    per_document = calls(UNINDEXED[name], handle) / DOCUMENTS
    print(f"python calls per document of an unindexed {name}, {scanned}: "
          f"{per_document:.2f}")  # CI prints it (-rP)
    budget = PER_DOCUMENT[engine.name][name]
    if engine.name == "wiredtiger":
        misses = cache.misses - misses
        formula_runs = memo.cache_info().misses - formula_runs
        assert misses == (0 if scanned == "wiredtiger" else DOCUMENTS)
        assert formula_runs == (DOCUMENTS if scanned == "wiredtiger-every-size"
                                else 0)
        budget += formula_runs / DOCUMENTS  # the one ``_miss_cost`` frame each
    assert per_document <= budget


# -- an indexed read, per examined document -----------------------------------------

#: One category of the ten: the ``count_p50_ms`` query of ``benchmarks/perf``.
CATEGORY = {"category": "cat3"}
INDEXED = {
    "count": lambda handle, query: handle.count_documents(query),
    "find": lambda handle, query: handle.find(query),
    "update_many": lambda handle, query: handle.update_many(
        query, {"$inc": {"counter": 1}}),
    "delete_many": lambda handle, query: handle.delete_many(query),
}
#: A delete removes what it examines: it is warmed on one category and
#: counted on another, neither the one the reads ask for.
DELETED = ({"category": "cat4"}, {"category": "cat5"})
#: Python calls per document an ``INDEX_EQ`` plan examines (all of them
#: match).  While the plan's ids were read one ``read`` at a time -- a
#: root-to-leaf search, a charge each -- count, find and ``update_many`` cost
#: 7.2 / 9.2 / 66.1 on wiredTiger and 6.2 / 8.2 / 47.2 on mmapv1.  Every one of
#: these reads drains its plan (``StorageEngine.drain``).  What is left of the
#: read: the engine's pass (wiredTiger: a resume of the tree's sorted search,
#: and a cache probe per node's worth of ids; mmapv1: a resume of its lazy
#: pass and the one frame of its page-fault share) and the matcher's two
#: frames -- count and find 3.27 / 5.29 on wiredTiger, from 5.26 / 7.28 while
#: the pass was lazy there too, with a resume and a cache probe per id more;
#: 4.25 / 6.27 on mmapv1.  ``update_many`` and ``delete_many`` wrote each match
#: in a lock round of its own -- the stripe lock, a store with its charges, an
#: index bill and a listener check per document: 62.9 / 77.2 on wiredTiger and
#: 43.3 / 53.1 on mmapv1 -- and store their matches as one run since (38.0 /
#: 57.2 and 26.3 / 39.2).  A run copies each B-tree node once, for the
#: engine's tree and the index trees alike, and a delete is one descent
#: (34.8 / 42.5 and 26.4 / 30.8).  An update measures only the field it
#: touched, not all six of the post-image (``update_many`` 28.8 and 20.4),
#: and on wiredTiger their find drains (26.8 / 40.5).
#: Half a call of slack: one frame more per document fails.
INDEXED_PER_DOCUMENT = {
    "wiredtiger": {"count": 3.5, "find": 5.5, "update_many": 27.5,
                   "delete_many": 41.0},
    "mmapv1": {"count": 4.5, "find": 6.5, "update_many": 20.5,
               "delete_many": 31.5},
}


@pytest.fixture(scope="module", params=sorted(INDEXED_PER_DOCUMENT))
def indexed(request) -> tuple[str, CollectionHandle]:
    handle = two_thousand(f"standalone-{request.param}")
    handle.create_index("category")
    return request.param, handle


@pytest.mark.parametrize("name", sorted(INDEXED))
def test_calls_per_document_of_an_indexed_read(indexed, name):
    engine, handle = indexed
    warm, query = DELETED if name == "delete_many" else (CATEGORY, CATEGORY)
    INDEXED[name](handle, warm)  # warm: the plan cache
    examined = handle.count_documents(query)
    assert examined == DOCUMENTS // 10
    per_document = calls(partial(INDEXED[name], query=query), handle) / examined
    print(f"python calls per document of an indexed {name}, {engine}: "
          f"{per_document:.2f}")  # CI prints it (-rP)
    assert per_document <= INDEXED_PER_DOCUMENT[engine][name]


# -- a batch, per document, and the maintenance it triggers ---------------------------

BATCH = 1_000
#: Python calls per document of a warm 1,000-document ``insert_many`` of
#: generated records: 61.4 on a standalone; on four shards 4.1 more (placing
#: a document is 7, smaller trees give some back; 35.0 more while the router
#: looped ``insert_one``); 154.2 on three members (209.2 while the primary
#: logged and the secondaries applied one entry at a time).  ISSUE 22 asked
#: for at most + 8 and, with the longer records of ``benchmarks/perf``, 175.
#: Counted on a closed cluster -- worker threads would hide frames -- and
#: without the maintenance rounds, which have the next row.  Each: the matrix
#: entry and what it is built with.
BATCHED = {ALONE: {}, "four-shards-serial": {"auto_maintenance": False},
           REPLICATED: {}}
SHARDED_ADDS, REPLICATED_BATCH = 8, 160


@pytest.fixture(scope="module")
def batch_calls() -> dict[str, float]:
    generator = RecordGenerator(field_count=10, field_length=100)
    rng = random.Random(7)
    warm, measured = ([generator.record(index, rng)
                       for index in range(start, start + BATCH)]
                      for start in (0, BATCH))
    per_document = {}
    for kind, options in BATCHED.items():
        handle = DocumentClient(build(kind, **options)).collection("db", "c")
        handle.insert_many(warm)
        per_document[kind] = calls(
            lambda handle: handle.insert_many(measured), handle) / BATCH
    return per_document


def test_calls_per_document_of_a_batch_below_the_client(batch_calls):
    assert batch_calls["four-shards-serial"] - batch_calls[ALONE] <= SHARDED_ADDS
    assert batch_calls[REPLICATED] <= REPLICATED_BATCH


def test_a_maintenance_round_finds_a_chunk_by_bisect():
    """``Chunk.covers`` is asked once per document a round scans (the check
    behind the bisect) and once per split -- not once per chunk passed on the
    way: 17,732 calls for these 600 documents and their 116 chunks before,
    2,575 now."""
    def round_calls(of: str, made_in: str = "") -> int:
        cluster = ShardedCluster(shards=4, split_threshold=8,
                                 auto_maintenance=False)
        handle = DocumentClient(cluster).collection("db", "c")
        handle.insert_many([{"_id": f"k{index}"} for index in range(600)])
        counted = calls(lambda handle: cluster.maintain("db", "c"), handle,
                        of=of, made_in=made_in)
        assert len(cluster.chunk_map("db", "c")) > 64
        return counted

    scanned = (round_calls("get_path", "sharding/cluster.py")
               + round_calls("get_path", "sharding/balancer.py"))
    assert scanned >= 600
    assert round_calls("covers") <= scanned + round_calls("_split_at")
