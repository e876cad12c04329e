"""The router's one merge: ``merge_shard_streams`` behind every multi-shard read.

A limited multi-shard ``find`` merges the shards' streams in the order they
already arrive in -- ``(value, record id)`` from an ``INDEX_RANGE`` walk,
record-id order from ``INDEX_EQ`` -- instead of sorting their concatenation.
The property: for one constrained *indexed* field the merged result is what
deduplicating and re-sorting gave (the router's previous merge,
``reference_merge_limited`` below, kept here as the reference), and what a
single server returns, document for document and in order.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.aggregation import group_token
from repro.docstore.cursor import sort_key
from repro.docstore.documents import get_path
from repro.docstore.predicates import query_intervals
from repro.docstore.server import DocumentServer
from repro.docstore.sharding import ShardedCluster

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
    built: dict[tuple[int, int], object] = {}
    clusters = []

    def deployment(seed: int, shards: int):
        if (seed, shards) not in built:
            if shards == 1:
                server = DocumentServer()
            else:
                server = ShardedCluster(shards=shards, auto_maintenance=False)
                clusters.append(server)
            collection = server.database("app").collection("users")
            collection.insert_many(make_documents(seed))
            collection.create_index("n")
            built[seed, shards] = collection
        return built[seed, shards]

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


@settings(max_examples=150, deadline=None)
@given(seed=st.sampled_from(SEEDS), shards=st.sampled_from(SHARD_COUNTS),
       query=queries, limit=st.integers(1, 25))
def test_limited_merge_equals_the_resort_and_a_single_server(
        deployments, seed, shards, query, limit):
    routed = deployments(seed, shards)
    cluster = routed.cluster
    per_shard = [
        cluster.shard_collection_on(shard_id, "app", "users")
        .find_with_cost(query, limit=limit).documents
        for shard_id in range(shards)]
    merged = routed.find_with_cost(query, limit=limit).documents
    assert merged == reference_merge_limited(per_shard, query, limit)
    assert merged == deployments(seed, 1).find_with_cost(query, limit=limit).documents


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
        [{"$sort": {"n": -1}}, {"$limit": 500}],
        [{"$match": {"n": {"$gte": 0}}}, {"$limit": 500}],
        [{"$match": {"_id": {"$gte": "k000"}}}],
    ], ids=["sort", "descending-sort", "stream-limit", "stream"])
    def test_aggregate_returns_it_once(self, handle, pipeline):
        found = [document["_id"] for document in handle.aggregate(pipeline).documents]
        assert len(found) == DOCUMENTS and found.count("k007") == 1
