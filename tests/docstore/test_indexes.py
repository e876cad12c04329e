"""Index maintenance on updates: ``IndexCatalog.replace_document``.

An update re-indexes only the indexes whose value changed, told by object
identity, and asks every unique index before it touches one.  The property:
after any sequence of updates -- value <-> missing, ``1`` -> ``True`` ->
``1.0`` (equal as dict keys; the index keeps the bool apart), scalar <->
array, unique collisions -- every index holds what an index built from the
stored documents holds, hash entries and B-tree alike, and a refused update
leaves all of them as they were.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.aggregation import parse_pipeline, plan_source
from repro.docstore.collection import Collection
from repro.docstore.documents import clone_document
from repro.docstore.indexes import IndexCatalog, SecondaryIndex
from repro.docstore.predicates import ordered_key, scalar_rank
from repro.docstore.wiredtiger import WiredTigerEngine
from repro.errors import DuplicateKeyError

MISSING = object()
PATHS = (("value", False), ("nested.value", False), ("token", True))


def new_catalog() -> IndexCatalog:
    catalog = IndexCatalog()
    for path, unique in PATHS:
        catalog.publish(SecondaryIndex(path, unique=unique))
    return catalog


def hash_entries(index: SecondaryIndex) -> dict:
    return {key: set(bucket) for key, bucket in index._entries.items()}


def tree_entries(index: SecondaryIndex) -> dict:
    return {key: set(bucket) for key, bucket in index._tree.items()}


def tree_node_accesses(index: SecondaryIndex) -> int:
    """An index tree's cumulative node-access counter: every reader's and
    writer's visits so far (a walk's own cost is its ``visited`` cell)."""
    return index._tree.node_accesses


def snapshot(catalog: IndexCatalog) -> list:
    return [(hash_entries(index), tree_entries(index), index.ordered_records())
            for index in catalog]


def assert_equals_rebuilt(catalog: IndexCatalog, stored: dict[str, dict]) -> None:
    rebuilt = new_catalog()
    for record_id, document in stored.items():
        rebuilt.add_document(record_id, document)
    for index, expected in zip(catalog, rebuilt):
        path = index.field_path
        assert hash_entries(index) == hash_entries(expected), path
        assert index.ordered_records() == expected.ordered_records(), path
        assert sorted(index.iter_ordered()) == sorted(expected.iter_ordered()), path
        assert tree_entries(index) == tree_entries(expected), path
        index._tree.check_invariants()


scalars = st.sampled_from([1, True, 1.0, 0, False, 2, 2.5, "a", "b", None])
values = st.one_of(
    st.just(MISSING), scalars, scalars,
    st.lists(st.sampled_from([1, True, 2, "a", [1]]), max_size=3),
    st.fixed_dictionaries({"k": st.integers(0, 1)}),
)
changes = st.fixed_dictionaries(
    {}, optional={"value": values, "nested.value": values,
                  "token": st.one_of(st.just(MISSING), st.integers(0, 3),
                                     st.sampled_from([True, 1.0, "t"]))})


def changed_copy(old: dict, change: dict) -> dict:
    """What ``apply_update`` builds: a clone of the stored version (sharing
    every scalar it leaves alone) with the changed paths set or unset."""
    new = clone_document(old)
    for path, value in change.items():
        target = new
        *parents, leaf = path.split(".")
        for parent in parents:
            target = target.setdefault(parent, {})
        if value is MISSING:
            target.pop(leaf, None)
        else:
            target[leaf] = clone_document(value)
    return new


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), changes), min_size=1, max_size=30))
def test_replace_document_keeps_every_index_equal_to_a_rebuilt_one(steps):
    catalog = new_catalog()
    stored: dict[str, dict] = {}
    for key, change in steps:
        record_id = f"r{key}"
        old = stored.get(record_id)
        if old is None:
            new = changed_copy({"_id": record_id}, change)
            try:
                catalog.add_document(record_id, new)
            except DuplicateKeyError:
                catalog.remove_document(record_id, new)  # the collection's rollback
                assert_equals_rebuilt(catalog, stored)
                continue
        else:
            new = changed_copy(old, change)
            before = snapshot(catalog)
            try:
                catalog.replace_document(record_id, old, new)
            except DuplicateKeyError:
                assert snapshot(catalog) == before
                continue
        stored[record_id] = new
        assert_equals_rebuilt(catalog, stored)


class TestReplaceDocument:
    def test_an_untouched_index_is_not_touched(self):
        """Identity skip: the unchanged index sees no remove and no add."""
        catalog = new_catalog()
        old = {"_id": "a", "value": 7, "token": "t", "other": 1}
        catalog.add_document("a", old)
        new = clone_document(old)
        new["other"] = 2
        accesses = [tree_node_accesses(index) for index in catalog]
        catalog.replace_document("a", old, new)
        assert [tree_node_accesses(index) for index in catalog] == accesses
        assert_equals_rebuilt(catalog, {"a": new})

    def test_equal_values_of_another_type_are_re_indexed(self):
        """``True`` and ``1.0`` compare equal but sort under different ranks:
        they are different objects, so the index moves the ordered entry."""
        catalog = new_catalog()
        old = {"_id": "a", "value": True}
        catalog.add_document("a", old)
        new = {"_id": "a", "value": 1.0}
        catalog.replace_document("a", old, new)
        index = catalog.get("value")
        assert scalar_rank(True) != scalar_rank(1.0)
        assert index._tree.get(ordered_key(1.0)) == (True, {"a"})
        assert index._tree.get(ordered_key(True)) == (False, None)
        assert_equals_rebuilt(catalog, {"a": new})

    def test_a_unique_violation_is_found_before_any_index_changes(self):
        catalog = new_catalog()
        first = {"_id": "a", "value": 1, "token": "x"}
        second = {"_id": "b", "value": 2, "token": "y"}
        catalog.add_document("a", first)
        catalog.add_document("b", second)
        before = snapshot(catalog)
        with pytest.raises(DuplicateKeyError):
            catalog.replace_document("b", second, {"_id": "b", "value": 3, "token": "x"})
        assert snapshot(catalog) == before

    def test_a_record_may_keep_or_swap_its_own_unique_value(self):
        catalog = new_catalog()
        old = {"_id": "a", "token": 1}
        catalog.add_document("a", old)
        catalog.replace_document("a", old, {"_id": "a", "token": 1.0})  # equal key, own
        catalog.replace_document("a", {"_id": "a", "token": 1.0}, {"_id": "a", "token": [1, 2]})
        assert_equals_rebuilt(catalog, {"a": {"_id": "a", "token": [1, 2]}})


class TestBoolIsNotANumber:
    """``True == 1 == 1.0`` as dict keys, but a bool matches only a bool
    (``matching._scalar_equal``): the index keys them apart."""

    def test_a_unique_index_takes_true_and_one(self):
        collection = Collection("c", WiredTigerEngine())
        collection.create_index("v", unique=True)
        collection.insert_one({"_id": "a", "v": True})
        collection.insert_one({"_id": "b", "v": 1})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"_id": "c", "v": 1.0})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"_id": "d", "v": [True]})
        assert [d["_id"] for d in collection.find({"v": True})] == ["a"]
        assert [d["_id"] for d in collection.find({"v": 1})] == ["b"]

    def test_an_index_that_lost_both_is_empty(self):
        index = SecondaryIndex("v")
        documents = {"a": {"_id": "a", "v": True}, "b": {"_id": "b", "v": 1}}
        for record_id, document in documents.items():
            index.add(record_id, document)
        assert index.lookup(True) == {"a"} and index.lookup(1) == {"b"}
        for record_id, document in documents.items():
            index.remove(record_id, document)
        assert hash_entries(index) == {} and tree_entries(index) == {}
        assert index.ordered_records() == 0


class TestSubDocumentElements:
    """An array's sub-document elements are keyed as its scalars are, since a
    non-array operand matches every element: an equality lookup finds the
    array, and a unique index refuses a second document holding the element."""

    DOCUMENTS = [{"_id": "a", "v": {"b": 1}}, {"_id": "b", "v": [{"b": 1}, {"b": 2}]},
                 {"_id": "c", "v": [{"b": 1}]}, {"_id": "d", "v": [[{"b": 1}]]}]

    @pytest.mark.parametrize("query", [{"v": {"b": 1}}, {"v": {"$eq": {"b": 1}}},
                                       {"v": {"$in": [{"b": 1}]}}])
    def test_an_indexed_find_sees_every_element(self, query):
        found = []
        for indexed in (False, True):
            collection = Collection("c", WiredTigerEngine())
            if indexed:
                collection.create_index("v")
            collection.insert_many(self.DOCUMENTS)
            found.append(sorted(document["_id"] for document in collection.find(query)))
        assert found == [["a", "b", "c"]] * 2

    def test_a_unique_index_refuses_a_shared_element(self):
        collection = Collection("c", WiredTigerEngine())
        collection.create_index("v", unique=True)
        collection.insert_one({"_id": "a", "v": [{"b": 1}, {"b": 2}]})
        with pytest.raises(DuplicateKeyError):
            collection.insert_one({"_id": "b", "v": {"b": 2}})
        collection.insert_one({"_id": "c", "v": [[{"b": 1}]]})  # no element is {"b": 1}


# -- a run of records writes each index tree through one writer ------------------------


def people(start: int, stop: int) -> list[dict]:
    return [{"_id": f"p{index:03d}", "n": index, "team": f"t{index % 7}"}
            for index in range(start, stop)]


def indexed_collection() -> Collection:
    collection = Collection("people", WiredTigerEngine())
    collection.create_index("n")
    collection.create_index("team")
    collection.insert_many(people(0, 40))
    return collection


def trees(collection: Collection) -> list[SecondaryIndex]:
    return [*collection.indexes, collection.index_for("_id")]


def assert_trees_rebuilt(collection: Collection) -> None:
    """Every index tree holds what one built from the stored documents does."""
    for index in trees(collection):
        rebuilt = SecondaryIndex(index.field_path)
        for record_id, document in collection.engine.scan_uncharged():
            rebuilt.add(record_id, document)
        assert tree_entries(index) == tree_entries(rebuilt), index.field_path
        assert hash_entries(index) == hash_entries(rebuilt), index.field_path
        assert index.ordered_records() == rebuilt.ordered_records()
        index._tree.check_invariants()


SORTS = ([{"$sort": {"n": 1}}], [{"$sort": {"_id": 1}}])


def sorted_reads(collection: Collection) -> list[list[dict]]:
    return [collection.aggregate(pipeline).documents for pipeline in SORTS]


class TestARunOfRecords:
    """``Collection._store_run`` gives each index tree one writer for a run of
    more than one record and publishes them all before ``store_batch``:
    between two records a reader sees every tree as it was before the run."""

    def test_a_search_between_two_records_sees_the_trees_before_the_run(self):
        collection = indexed_collection()
        before = {index.field_path: (index._tree._root, list(index._tree.items()))
                  for index in trees(collection)}
        by_n, run = collection.index_for("n"), people(40, 90)

        def documents():  # drawn by the run's records generator, one at a time
            for position, document in enumerate(run):
                for index in trees(collection):
                    root, items = before[index.field_path]
                    assert index._tree._root is root
                    assert list(index._tree.items()) == items
                assert not any(by_n._tree.search(ordered_key(earlier["n"]))[0]
                               for earlier in run[:position])
                yield document

        collection.insert_many(documents())
        assert all(by_n._tree.search(ordered_key(document["n"]))[0]
                   for document in run)
        assert collection.count_documents({}) == 90
        assert_trees_rebuilt(collection)

    def test_a_sorted_walk_between_two_records_returns_the_documents_before_it(self):
        collection = indexed_collection()
        before = sorted_reads(collection)
        assert before[0] == sorted(before[0], key=lambda document: document["n"])
        seen = []

        def documents():
            for document in people(40, 60):
                seen.append(sorted_reads(collection))
                yield document

        collection.insert_many(documents())
        assert seen == [before] * 20
        after = sorted_reads(collection)
        assert [len(documents) for documents in after] == [60, 60]
        assert after[0][:40] == before[0]
        assert [plan_source(collection, parse_pipeline(pipeline)).mode
                for pipeline in SORTS] == ["index_walk", "index_walk"]

    def test_a_unique_rollback_inside_a_run_goes_through_its_writer(self):
        collection = indexed_collection()
        collection.create_index("serial", unique=True)
        batch = [dict(document, serial=document["n"]) for document in people(40, 50)]
        batch[6]["serial"] = 42  # refused by the unique index: the run ends there
        with pytest.raises(DuplicateKeyError) as refused:
            collection.insert_many(batch)
        assert refused.value.inserted_ids == [f"p{index:03d}" for index in range(40, 46)]
        assert collection.count_documents({}) == 46
        assert_trees_rebuilt(collection)
        for index in trees(collection):
            assert index._writes is index._tree  # no run left open
