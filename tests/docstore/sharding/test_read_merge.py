"""The router's one merge: ``merge_shard_streams`` behind every multi-shard read.

A limited multi-shard ``find`` merges the shards' streams in the order they
already arrive in -- ``(value, record id)`` from an ``INDEX_RANGE`` walk,
record-id order from ``INDEX_EQ`` -- instead of sorting their concatenation.
The property: for one constrained *indexed* field the merged result is what
deduplicating and re-sorting gave (the router's previous merge,
``reference_merge_limited`` below, kept here as the reference), and what a
single server returns, document for document and in order.

A *limited* multi-shard read does not materialise its shards' results any
more: every shard hands the merge a ``ShardStream`` -- its share of the limit
read on its own worker, the rest suspended -- and the merge resumes only the
streams whose documents are next.  What that must not change is pinned below
the property: the documents (parallel, serial and a single server agree), the
simulated cost of a read the limit did not cut (against values taken at the
commit before the change), failover at the open, and dual residence.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.aggregation import (
    ParsedPipeline,
    ShardStream,
    group_token,
    parse_pipeline,
)
from repro.docstore.cursor import sort_key
from repro.docstore.documents import get_path
from repro.docstore.matching import ParsedQuery
from repro.docstore.server import DocumentServer
from repro.docstore.sharding import ShardedCluster
from repro.errors import DocumentStoreError
from tests.docstore.test_predicates import query_intervals

SHARD_COUNTS = (2, 3, 4, 8)
SEEDS = (1, 2, 3)
DOCUMENTS = 120


def make_documents(seed: int) -> list[dict]:
    """``n`` repeats (ties fall to the record id) and disagrees with ``_id`` order."""
    rng = random.Random(seed)
    return [{"_id": f"k{index:03d}", "n": rng.randrange(40)}
            for index in range(DOCUMENTS)]


def reference_merge_limited(shard_documents: list[list[dict]], query: dict,
                            limit: int) -> list[dict]:
    """The router's merge before there was one: concatenate in shard order,
    deduplicate, re-sort by the one constrained field, cut."""
    seen: set[tuple] = set()
    documents = []
    for shard in shard_documents:
        for document in shard:
            identity = group_token(document.get("_id"))
            if identity not in seen:
                seen.add(identity)
                documents.append(document)
    constraints = {field_path: interval_set for field_path, interval_set
                   in query_intervals(query).items() if not interval_set.is_full}
    if len(constraints) == 1:
        ((field_path, interval_set),) = constraints.items()
        if interval_set.point_values() is not None:
            documents = sorted(documents, key=lambda doc: str(doc.get("_id")))
        else:
            documents = sorted(
                documents,
                key=lambda doc: (sort_key(get_path(doc, field_path)[1]),
                                 str(doc.get("_id"))))
    return documents[:limit]


@pytest.fixture(scope="module")
def deployments():
    """``(seed, shards) -> collection`` (1 shard = a single server), built on
    first use: the property only reads, so examples share them."""
    built: dict[tuple[int, int, bool], object] = {}
    clusters = []

    def deployment(seed: int, shards: int, parallel: bool = True):
        if (seed, shards, parallel) not in built:
            if shards == 1:
                server = DocumentServer()
            else:
                server = ShardedCluster(shards=shards, auto_maintenance=False)
                if not parallel:
                    server.close()  # a closed pool fans out serially
                clusters.append(server)
            collection = server.database("app").collection("users")
            collection.insert_many(make_documents(seed))
            collection.create_index("n")
            built[seed, shards, parallel] = collection
        return built[seed, shards, parallel]

    yield deployment
    for cluster in clusters:
        cluster.close()


identifiers = st.integers(0, DOCUMENTS + 5).map(lambda index: f"k{index:03d}")
numbers = st.integers(-2, 42)


@st.composite
def bounds(draw, values, lows=("$gt", "$gte"), highs=("$lt", "$lte")):
    """A one- or two-sided range condition over ``values``."""
    condition = {}
    sides = draw(st.sampled_from(["low", "high", "both"]))
    if sides != "high":
        condition[draw(st.sampled_from(lows))] = draw(values)
    if sides != "low":
        condition[draw(st.sampled_from(highs))] = draw(values)
    return condition


queries = st.one_of(
    bounds(identifiers).map(lambda condition: {"_id": condition}),
    bounds(numbers).map(lambda condition: {"n": condition}),
    st.tuples(numbers, numbers).map(lambda pair: {"$and": [
        {"n": {"$gte": pair[0]}}, {"n": {"$lt": pair[1]}}]}),
    numbers.map(lambda value: {"n": value}),
    st.lists(numbers, min_size=1, max_size=5).map(
        lambda values: {"n": {"$in": values}}),
)


#: Mostly limits that cut the read; ``DOCUMENTS + 80`` is above every match count.
limits = st.one_of(st.integers(1, 25), st.just(DOCUMENTS + 80))


@settings(max_examples=150, deadline=None)
@given(seed=st.sampled_from(SEEDS), shards=st.sampled_from(SHARD_COUNTS),
       query=queries, limit=limits)
def test_limited_merge_equals_the_resort_and_a_single_server(
        deployments, seed, shards, query, limit):
    routed = deployments(seed, shards)
    cluster = routed.cluster
    per_shard = [
        cluster.shard_collection_on(shard_id, "app", "users")
        .find_with_cost(query, limit=limit).documents
        for shard_id in range(shards)]
    merged = routed.find_with_cost(query, limit=limit).documents
    single = deployments(seed, 1)
    assert merged == reference_merge_limited(per_shard, query, limit)
    assert merged == single.find_with_cost(query, limit=limit).documents
    serial = deployments(seed, shards, parallel=False)
    assert merged == serial.find_with_cost(query, limit=limit).documents
    # The top-k pipeline over the same matches takes the same lane, parallel
    # or serial; a descending sort keeps the materialising fan-out.  Either
    # way: a single server's documents.
    for direction, deployed in ((1, (routed, serial)), (-1, (routed,))):
        pipeline = [{"$match": query}, {"$sort": {"n": direction}},
                    {"$limit": limit}]
        top = single.aggregate(pipeline).documents
        for collection in deployed:
            assert collection.aggregate(pipeline).documents == top


# -- what the prefetch lane must not change ---------------------------------------

UNCUT_READS = {
    "id-range": lambda c: c.find_with_cost({"_id": {"$gte": "k110"}}, limit=25),
    "n-range": lambda c: c.find_with_cost({"n": {"$gte": 38}}, limit=25),
    "n-in": lambda c: c.find_with_cost({"n": {"$in": [3, 4]}}, limit=25),
    "unordered": lambda c: c.find_with_cost(
        {"n": {"$gte": 38}, "_id": {"$gte": "k050"}}, limit=25),
    "top-k": lambda c: c.aggregate([{"$match": {"n": {"$gte": 38}}},
                                    {"$sort": {"n": 1}}, {"$limit": 25}]),
    "stream-limit": lambda c: c.aggregate([{"$match": {"n": {"$gte": 38}}},
                                           {"$limit": 25}]),
}
CLUSTERS = {"plain": {"shards": 4}, "replicated": {"shards": 2, "replicas": 3}}
#: ``(documents, ticks, shard_costs)`` of each read on
#: ``make_documents(1)``, taken at the commit before the prefetch lane (90ded82).
UNCUT_AT_THE_PARENT = {
    ("plain", "id-range"): (10, 82_500_000, {
        "shard0": 42_000_000, "shard1": 15_000_000,
        "shard2": 82_500_000, "shard3": 3_000_000}),
    ("plain", "n-range"): (3, 15_000_000, {
        "shard0": 15_000_000, "shard1": 15_000_000,
        "shard2": 1_500_000, "shard3": 15_000_000}),
    ("plain", "n-in"): (2, 15_000_000, {
        "shard0": 1_500_000, "shard1": 15_000_000,
        "shard2": 1_500_000, "shard3": 15_000_000}),
    ("plain", "unordered"): (2, 285_000_000, {
        "shard0": 285_000_000, "shard1": 244_500_000,
        "shard2": 190_500_000, "shard3": 15_000_000}),
    ("plain", "top-k"): (3, 15_000_000, {
        "shard0": 15_000_000, "shard1": 15_000_000,
        "shard2": 1_500_000, "shard3": 15_000_000}),
    ("plain", "stream-limit"): (3, 15_000_000, {
        "shard0": 15_000_000, "shard1": 15_000_000,
        "shard2": 1_500_000, "shard3": 15_000_000}),
    ("replicated", "id-range"): (10, 834_000_000, {
        "shard0": 807_000_000, "shard1": 834_000_000}),
    ("replicated", "n-range"): (3, 780_000_000, {
        "shard0": 780_000_000, "shard1": 766_500_000}),
    ("replicated", "n-in"): (2, 765_000_000, {
        "shard0": 765_000_000, "shard1": 765_000_000}),
    ("replicated", "unordered"): (2, 1_281_000_000, {
        "shard0": 1_281_000_000, "shard1": 1_173_000_000}),
    ("replicated", "top-k"): (3, 780_000_000, {
        "shard0": 780_000_000, "shard1": 766_500_000}),
    ("replicated", "stream-limit"): (3, 780_000_000, {
        "shard0": 780_000_000, "shard1": 766_500_000}),
}


@pytest.fixture(scope="module", params=sorted(CLUSTERS))
def seeded_cluster(request):
    cluster = ShardedCluster(auto_maintenance=False, **CLUSTERS[request.param])
    collection = cluster.database("app").collection("users")
    collection.insert_many(make_documents(seed=1))
    collection.create_index("n")
    yield request.param, collection
    cluster.close()


@pytest.mark.parametrize("read", sorted(UNCUT_READS))
def test_a_read_the_limit_does_not_cut_costs_what_it_did(seeded_cluster, read):
    """Every shard is drained, so every shard read what it always read."""
    kind, collection = seeded_cluster
    result = UNCUT_READS[read](collection)
    assert (len(result.documents), result.ticks,
            result.shard_costs) == UNCUT_AT_THE_PARENT[kind, read]


def test_a_read_the_limit_cuts_costs_less_and_says_so_per_shard(seeded_cluster):
    kind, collection = seeded_cluster
    shards = collection.cluster.shard_count
    cut = collection.find_with_cost({"_id": {"$gte": "k010"}}, limit=8)
    assert [document["_id"] for document in cut.documents] == [
        f"k{index:03d}" for index in range(10, 18)]
    on_its_own = [collection.cluster.shard_collection_on(shard_id, "app", "users")
                  .find_with_cost({"_id": {"$gte": "k010"}}, limit=8)
                  for shard_id in range(shards)]
    assert sorted(cut.shard_costs) == [f"shard{index}" for index in range(shards)]
    assert sorted(cut.shard_wall_seconds) == sorted(cut.shard_costs)
    assert cut.ticks == max(cut.shard_costs.values())
    assert cut.ticks < max(each.ticks for each in on_its_own)


def test_a_primary_killed_before_the_read_fails_over_at_the_open():
    cluster = ShardedCluster(shards=2, replicas=3, write_concern="majority",
                             auto_maintenance=False)
    try:
        collection = cluster.database("app").collection("users")
        collection.insert_many(make_documents(seed=1))
        collection.create_index("n")
        reads = {name: read(collection).documents
                 for name, read in UNCUT_READS.items()}
        reads["cut"] = collection.find_with_cost({"n": {"$gte": 5}}, 7).documents
        for failovers, name in enumerate(sorted(reads), start=1):
            cluster.replica_set(1).kill_member(cluster.replica_set(1).primary.member_id)
            again = (collection.find_with_cost({"n": {"$gte": 5}}, 7)
                     if name == "cut" else UNCUT_READS[name](collection))
            assert again.documents == reads[name], name
            assert cluster.replica_set(1).failovers == failovers
            # The election the open paid for is on the shard that held it.
            assert again.shard_costs["shard1"] > again.shard_costs["shard0"]
            cluster.replica_set(1).restart_member(
                next(member.member_id for member in cluster.replica_set(1).members
                     if not member.up))
    finally:
        cluster.close()


def test_a_shard_stream_is_opened_prefetched_and_closed_by_its_holder(
        monkeypatch):
    """The shard-side row on its own: prefetch, register, suspend, bill."""
    server = DocumentServer()
    collection = server.database("app").collection("users")
    collection.insert_many(make_documents(seed=1))
    whole = collection.find_with_cost({"_id": {"$gte": "k100"}}, limit=6)
    parsed = ParsedQuery({"_id": {"$gte": "k100"}})
    opened: list[ShardStream] = []
    stream = collection.open_read(parsed, 6, 2, opened)
    assert opened == [stream] and len(stream.prefetched) == 2
    stream.close()
    prefetch_only = stream.ticks
    assert 0 < prefetch_only < whole.ticks
    stream = collection.open_read(parsed, 6, 2, opened)
    assert list(stream) == whole.documents  # the limit still ends the stream
    stream.close()
    assert stream.ticks == whole.ticks
    staged = collection.open_read(ParsedPipeline(parse_pipeline(
        [{"$match": {"_id": {"$gte": "k100"}}}, {"$limit": 6}])), None, 2, opened)
    assert list(staged) == whole.documents
    staged.close()
    assert staged.ticks == whole.ticks
    server.set_profiling(2, slow_ms=0)

    def refused(*arguments, **keywords):
        raise DocumentStoreError("the plan failed")
    monkeypatch.setattr(collection.planner, "plan", refused)
    with pytest.raises(DocumentStoreError):
        collection.open_read(parsed, 6, 2, opened)
    assert len(opened) == 3  # only what opened is the holder's to close
    assert server.current_ops() == []  # ... a failed open ended its own span
    assert server.get_slow_ops()[-1]["errored"] == "DocumentStoreError"


class TestDualResidence:
    """Mid-migration a document lives on donor and recipient; every
    multi-shard read returns it once."""

    @pytest.fixture()
    def handle(self):
        cluster = ShardedCluster(shards=4, auto_maintenance=False)
        handle = cluster.database("app").collection("users")
        handle.insert_many(make_documents(seed=1))
        handle.create_index("n")
        owner = cluster.sharding_state("app", "users").manager.shard_for("k007")
        stored = handle.find_one({"_id": "k007"})
        cluster.shard_collection_on((owner + 1) % 4, "app", "users").insert_one(stored)
        assert sum(cluster.shard_collection_on(shard_id, "app", "users")
                   .count_documents({"_id": "k007"}) for shard_id in range(4)) == 2
        yield handle
        cluster.close()

    @pytest.mark.parametrize("limit", [None, 3, 500])
    def test_find_returns_it_once(self, handle, limit):
        for query in ({}, {"n": {"$gte": 0}}, {"_id": {"$gte": "k000"}},
                      {"_id": {"$in": ["k007", "k008"]}}):
            found = [document["_id"] for document in
                     handle.find_with_cost(query, limit=limit).documents]
            assert len(found) == len(set(found)), query
            if limit != 3:
                assert found.count("k007") == 1, query

    @pytest.mark.parametrize("pipeline", [
        [{"$sort": {"n": 1}}],
        [{"$sort": {"n": 1}}, {"$limit": 500}],
        [{"$sort": {"n": -1}}, {"$limit": 500}],
        [{"$match": {"n": {"$gte": 0}}}, {"$limit": 500}],
        [{"$match": {"_id": {"$gte": "k000"}}}],
    ], ids=["sort", "top-k", "descending-sort", "stream-limit", "stream"])
    def test_aggregate_returns_it_once(self, handle, pipeline):
        found = [document["_id"] for document in handle.aggregate(pipeline).documents]
        assert len(found) == DOCUMENTS and found.count("k007") == 1
