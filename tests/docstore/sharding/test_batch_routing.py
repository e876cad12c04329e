"""Differential: the router's grouped ``insert_many`` == the per-document loop.

Until ISSUE 22 ``QueryRouter.insert_many`` *was* a loop over
:meth:`QueryRouter.insert_one`; it now ships one ``insert_many`` per owning
shard per maintenance segment.  The loop lives on here, verbatim, as the
reference: whatever the batches, the sharding, the indexes, the dispatch (an
open pool or a closed one) and the shape of the shards, both leave the same
answer and the same cluster --
through maintenance rounds firing in the middle of a batch, and through a
document that fails at any position (where the ordered-insert rule says which
documents persist: those before it *in batch order*).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.collection import OperationResult
from repro.docstore.sharding import ShardedCluster
from repro.errors import DocumentStoreError, DuplicateKeyError

DATABASE, COLLECTION = "db", "c"
SHARDS, SPLIT_THRESHOLD = 3, 4


def looped_insert_many(router, documents) -> OperationResult:
    """``QueryRouter.insert_many`` as it was: the reference."""
    combined = OperationResult()
    for document in documents:
        result = router.insert_one(DATABASE, COLLECTION, document)
        combined.inserted_ids.extend(result.inserted_ids)
        combined.ticks += result.ticks
        for shard, cost in result.shard_costs.items():
            combined.shard_costs[shard] = combined.shard_costs.get(shard, 0) + cost
    return combined


def build(shape: dict) -> ShardedCluster:
    cluster = ShardedCluster(
        shards=SHARDS, split_threshold=SPLIT_THRESHOLD, shard_key=shape["key"],
        strategy=shape["strategy"], replicas=shape["replicas"],
        write_concern=shape["write_concern"])
    if not shape["open_pool"]:
        cluster.close()  # a closed pool fans out serially
    handle = cluster.database(DATABASE).collection(COLLECTION)
    if shape["secondary_index"]:
        handle.create_index("v")
    if shape["unique_index"]:
        handle.create_index(shape["key"], unique=True)
    return cluster


def index_contents(collection) -> dict:
    return {index.field_path: (index.unique, index.ordered_records(),
                               {key: set(bucket)
                                for key, bucket in index._entries.items()})
            for index in [*collection.indexes, collection.index_for("_id")]}


def cluster_state(cluster: ShardedCluster, oplogs: bool = True) -> dict:
    """Everything the two routes must agree on.  ``oplogs=False`` after a
    failing batch: shards that stored documents past the failing one saw an
    insert and a delete the loop never made."""
    state = cluster.sharding_state(DATABASE, COLLECTION)
    stats = cluster.collection_stats(DATABASE, COLLECTION)
    router = cluster.router
    shards = []
    for shard in cluster.shards:
        members = shard.members if cluster.replicated else [shard]
        shards.append([
            {"documents": list(collection.engine.scan_uncharged()),
             "indexes": index_contents(collection)}
            for collection in (
                (member.server if cluster.replicated else member)
                .database(DATABASE).collection(COLLECTION) for member in members)])
    observed = {
        "chunk_map": cluster.chunk_map(DATABASE, COLLECTION),
        "chunk_distribution": stats["chunk_distribution"],
        "splits_and_migrations": (stats["splits"], stats["migrations"]),
        "shards": shards,
        "counters": (state.inserts_since_maintenance, state.documents_routed),
        "router": (router.targeted_operations, router.scatter_operations,
                   router.maintenance_ticks),
    }
    if cluster.replicated and oplogs:
        observed["oplogs"] = [
            [(entry.optime, entry.operation, entry.record_id, entry.document)
             for entry in shard.oplog] for shard in cluster.shards]
        observed["applied"] = [[(member.applied, member.entries_applied)
                                for member in shard.members]
                               for shard in cluster.shards]
    return observed


SHAPES = st.fixed_dictionaries({
    "key": st.sampled_from(["_id", "k"]),
    "strategy": st.sampled_from(["hash", "range"]),
    "open_pool": st.booleans(),
    "secondary_index": st.booleans(),
    "unique_index": st.booleans(),
    # Mostly plain shards: a replicated example builds nine servers.
    "replicas": st.sampled_from([1, 1, 1, 3]),
    "write_concern": st.sampled_from([1, "majority"]),
})
#: Sizes on both sides of the trigger (``SPLIT_THRESHOLD`` inserts at first,
#: half the routed documents later): a round fires before, inside -- twice
#: inside, for the long ones -- and after a batch; ``0`` is the empty batch.
BATCH_SIZES = st.lists(st.integers(0, 14), min_size=1, max_size=4)
SEEDS = st.integers(0, 10_000)


def make_batches(seed: int, shape: dict, sizes: list[int]) -> list[list[dict]]:
    """Documents with distinct ``_id``s (some not strings, where the routing
    points need not compare) and distinct ``k``s, in a seeded order."""
    serials = list(range(sum(sizes)))
    random.Random(seed).shuffle(serials)
    identifiers = iter(serials)
    mixed = shape["key"] != "_id" or shape["strategy"] == "hash"
    return [[{"_id": serial if mixed and serial % 3 else f"d{serial:03d}",
              "k": (serial * 7) % 50 + serial * 100, "v": serial % 4}
             for serial in (next(identifiers) for __ in range(size))]
            for size in sizes]


@settings(max_examples=30, deadline=None)
@given(shape=SHAPES, sizes=BATCH_SIZES, seed=SEEDS)
def test_grouped_batches_equal_looped_inserts(shape, sizes, seed):
    batches = make_batches(seed, shape, sizes)
    grouped, looped = build(shape), build(shape)
    try:
        for batch in batches:
            result = grouped.router.insert_many(DATABASE, COLLECTION, batch)
            reference = looped_insert_many(looped.router, batch)
            assert result.inserted_ids == reference.inserted_ids  # batch order
            assert result.inserted_ids == [document["_id"] for document in batch]
            assert sorted(result.shard_costs) == sorted(reference.shard_costs)
            if shape["replicas"] == 1 or shape["write_concern"] == 1:
                # (A replicated shard acknowledges its share of a segment
                # once, as a replica set acknowledges a batch; the loop waited
                # for every document.)
                assert result.ticks == reference.ticks
                assert result.shard_costs == reference.shard_costs
            else:
                assert result.ticks <= reference.ticks
            assert cluster_state(grouped) == cluster_state(looped)
    finally:
        grouped.close()
        looped.close()


def test_a_round_fires_twice_inside_one_batch():
    """The segments of one long batch: the round runs after the very document
    the loop's trigger fires on, each time."""
    batch = [{"_id": f"d{index:03d}", "v": index} for index in range(40)]
    grouped, looped = (ShardedCluster(shards=SHARDS, split_threshold=SPLIT_THRESHOLD,
                                      strategy="range")
                       for __ in range(2))
    rounds: dict[ShardedCluster, list[int]] = {grouped: [], looped: []}
    for cluster in grouped, looped:
        cluster.close()  # a closed pool fans out serially
        def counting(database, collection, state, cluster=cluster,
                     maintain=cluster._maintain_locked):
            rounds[cluster].append(state.documents_routed)
            return maintain(database, collection, state)
        cluster._maintain_locked = counting
    result = grouped.router.insert_many(DATABASE, COLLECTION, batch)
    reference = looped_insert_many(looped.router, batch)
    assert rounds[grouped] == rounds[looped] == [4, 8, 15, 29]
    assert result.shard_costs["balancer"] == reference.shard_costs["balancer"]
    assert result.ticks == reference.ticks
    assert cluster_state(grouped) == cluster_state(looped)


# -- a failing document, at any position ----------------------------------------------

FAILURES = ["duplicate_stored", "duplicate_in_batch", "unique_index",
            "invalid_field", "missing_shard_key", "not_a_dictionary"]


def failing_document(kind: str, stored: dict, earlier: dict | None):
    if kind == "duplicate_stored":
        return {"_id": stored["_id"], "k": stored["k"], "v": 0}
    if kind == "duplicate_in_batch":
        return dict(earlier or stored)
    if kind == "unique_index":  # needs the unique index on the shard key "k"
        return {"_id": "fresh", "k": stored["k"], "v": 0}
    if kind == "invalid_field":
        return {"_id": "fresh", "k": 1_000_003, "$bad": 1}
    if kind == "missing_shard_key":  # needs the shard key "k"
        return {"_id": "fresh", "v": 0}
    return 5


@settings(max_examples=30, deadline=None)
@given(shape=SHAPES, kind=st.sampled_from(FAILURES), size=st.integers(1, 16),
       seed=SEEDS)
def test_a_failing_batch_ends_where_the_loop_ends(shape, kind, size, seed):
    if kind in ("unique_index", "missing_shard_key"):
        shape = {**shape, "key": "k", "unique_index": kind == "unique_index"}
    stored, batch = make_batches(seed, shape, [6, size])
    position = seed % size
    batch[position] = failing_document(
        kind, stored[0], batch[position - 1] if position else None)
    grouped, looped = build(shape), build(shape)
    try:
        for cluster in grouped, looped:
            looped_insert_many(cluster.router, stored)
        with pytest.raises((DocumentStoreError, TypeError)) as raised:
            grouped.router.insert_many(DATABASE, COLLECTION, batch)
        with pytest.raises((DocumentStoreError, TypeError)) as expected:
            looped_insert_many(looped.router, batch)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
        # The valid batch-order prefix persists and the error names it ...
        assert raised.value.inserted_ids == [
            document["_id"] for document in batch[:position]]
        # ... nothing after it does, on any shard, in any index.
        after, reference = (cluster_state(cluster, oplogs=False)
                            for cluster in (grouped, looped))
        assert after == reference
        # Both carry on alike.
        more = [{"_id": f"more{index}", "k": 2_000_000 + index, "v": 1}
                for index in range(9)]
        assert (grouped.router.insert_many(DATABASE, COLLECTION, more).inserted_ids
                == looped_insert_many(looped.router, more).inserted_ids)
        assert (cluster_state(grouped, oplogs=False)
                == cluster_state(looped, oplogs=False))
    finally:
        grouped.close()
        looped.close()


def test_a_non_dictionary_is_refused_as_everywhere_else():
    """``with_id(5)`` used to answer ``TypeError: argument of type 'int' is
    not iterable`` where a server and a replica set raise this."""
    cluster = ShardedCluster(shards=2)
    for insert in (lambda: cluster.router.insert_one(DATABASE, COLLECTION, 5),
                   lambda: cluster.router.insert_many(DATABASE, COLLECTION, [5])):
        with pytest.raises(DocumentStoreError,
                           match="documents must be dictionaries, got int"):
            insert()


def test_an_error_that_is_no_documents_fault_propagates():
    """A shard that cannot acknowledge raises out of the batch; what the
    shards stored stays stored, as unacknowledged writes always do."""
    from repro.errors import WriteConcernError
    cluster = ShardedCluster(shards=2, replicas=3, write_concern=3)
    cluster.close()
    batch = [{"_id": f"d{index}"} for index in range(8)]
    owners = {cluster.sharding_state(DATABASE, COLLECTION).manager.shard_for(
        document["_id"]) for document in batch}
    assert owners == {0, 1}
    cluster.replica_set(0).kill_member(2)
    with pytest.raises(WriteConcernError):
        cluster.router.insert_many(DATABASE, COLLECTION, batch)
    stored = cluster.replica_set(0).primary.server.database(
        DATABASE).collection(COLLECTION)
    assert len(stored) > 0


def test_duplicate_key_errors_say_how_far_the_batch_got():
    cluster = ShardedCluster(shards=2)
    batch = [{"_id": "a"}, {"_id": "b"}, {"_id": "a"}, {"_id": "c"}]
    with pytest.raises(DuplicateKeyError) as raised:
        cluster.router.insert_many(DATABASE, COLLECTION, batch)
    assert raised.value.inserted_ids == ["a", "b"]
    assert sorted(document["_id"] for document in cluster.router.find_with_cost(
        DATABASE, COLLECTION, {}).documents) == ["a", "b"]
