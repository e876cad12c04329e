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
#: and count rows are budgets; the write rows record what the code reaches:
#: a replicated write is one listener call, one oplog append and one member
#: apply of its post-images, and a routed write finds the one owner, whose
#: one-level tree costs less than the standalone's (``CHANGES.md`` keeps how
#: each row moved).
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
#: they pay for having no loop of their own.  A write asks for its listener
#: inline, with no helper frame; ``store_batch`` is the engine's one write; a
#: delete is one descent, which says what it removed; an update is built from
#: what it changes, its stored size coming with the revalidating ``peek``.
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

#: Python calls a level-2 read adds to the level-0 one.  What a span calls:
#: its wrapper, the lock-wait reads before and after, the shape memo and its
#: key, ``start`` (the thread's name, the span's constructor), ``note_plan``
#: / ``note_result``, ``finish``, the one registry round and its histogram --
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
#: that half of it.
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
    parses a stage again."""
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
#: by engine (``CHANGES.md`` keeps how they fell).  A read nothing cuts --
#: group, find, count -- takes the engine's pass as one list
#: (``StorageEngine.drain``) and runs one generated kernel over it: its
#: filter's ``select`` and, for a ``$group``, its accumulate loop, with no
#: frame per document.  On wiredTiger the pass is a cache probe per B-tree
#: node, not per document, so what is left per document is that pass and a
#: find's copy of each match (group / find / count 0.32 / 1.29 / 0.29).  mmapv1 drains its lazy pass: a resume and
#: the one frame of its page-fault share per document (2.05 / 3.02 / 2.02).
#: A limited find takes the lazy pass, limit or no cut, and its ``match``
#: per document: on wiredTiger a resume and a cache probe per document more
#: (5.23; 5.02 on mmapv1).  A wiredTiger miss costs no frame beyond the cache
#: probe while its size is in the engine's memo of miss ticks, so a cache
#: that every document misses meets the same budget; a size out of the memo
#: costs the one ``_miss_cost`` frame.  Half a call of slack: one frame more
#: per document fails.
PER_DOCUMENT = {
    "wiredtiger": {"group": 0.5, "find": 1.5, "count": 0.5, "find-limited": 5.5},
    "mmapv1": {"group": 2.5, "find": 3.5, "count": 2.5, "find-limited": 5.5},
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
#: match; ``CHANGES.md`` keeps how they fell).  Every one of these reads
#: drains its plan (``StorageEngine.drain``) and filters it with its kernel's
#: ``select``, no frame per document.  What is left of a read is the engine's
#: pass (wiredTiger: a resume of the tree's sorted search, and a cache probe
#: per node's worth of ids; mmapv1: a resume of its lazy pass and the one
#: frame of its page-fault share) and a find's copy of each match -- count
#: and find 1.32 / 3.33 on wiredTiger, 2.27 / 4.29 on mmapv1.
#: ``update_many`` and ``delete_many`` store their matches as one run, with
#: a lock round, the charges, the index bills and a listener check for the
#: run: 24.89 / 34.55 on wiredTiger, 18.42 / 24.84 on mmapv1.  Half a call
#: of slack: one frame more per document fails.
INDEXED_PER_DOCUMENT = {
    "wiredtiger": {"count": 1.5, "find": 3.5, "update_many": 25.0,
                   "delete_many": 35.0},
    "mmapv1": {"count": 2.5, "find": 4.5, "update_many": 18.5,
               "delete_many": 25.0},
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
#: a document is 7, smaller trees give some back); 154.2 on three members.
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
    way: 2,575 calls for these 600 documents and their 116 chunks."""
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
