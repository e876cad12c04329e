"""Property-based tests of the document store.

The central property: both storage engines are *functionally equivalent* --
for any sequence of operations they return exactly the documents the
reference store returns -- and differ only in cost/footprint, which is what
the paper's demo compares.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.btree import BTree
from repro.docstore.collection import Collection
from repro.docstore.documents import freeze_document
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.update_ops import apply_update
from repro.docstore.wiredtiger import WiredTigerEngine
from tests.docstore.reference import ReferenceStore, matches, measure_document

field_names = st.sampled_from(["a", "b", "c", "n"])
scalars = st.one_of(st.integers(-50, 50), st.text(alphabet="xyz", max_size=5),
                    st.booleans(), st.none())
documents = st.dictionaries(field_names, scalars, max_size=4)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20), documents), min_size=1, max_size=40),
       st.integers(-50, 50))
def test_engines_are_functionally_equivalent(operations, threshold):
    """wiredTiger and mmapv1 return what the reference store returns."""
    stores = [Collection("c", WiredTigerEngine()), Collection("c", MmapV1Engine()),
              ReferenceStore()]
    for store in stores:
        for key, payload in operations:
            if not store.count_documents({"_id": f"d{key}"}):
                store.insert_one({"_id": f"d{key}", **payload})
            elif key % 3 == 0:
                store.delete_one({"_id": f"d{key}"})
            else:
                store.update_one({"_id": f"d{key}"}, {"$set": payload})
    assert len({repr([sorted(map(repr, store.find_with_cost(query).documents))
                      for query in ({}, {"n": {"$gt": threshold}})])
                for store in stores}) == 1


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 500), min_size=1, max_size=120))
def test_btree_behaves_like_sorted_dict(keys):
    tree = BTree(order=8)
    reference: dict[int, int] = {}
    for key in keys:
        tree.insert(key, key * 2)
        reference[key] = key * 2
    tree.check_invariants()
    assert len(tree) == len(reference)
    assert [key for key, _ in tree.items()] == sorted(reference)
    for key in reference:
        assert tree.get(key) == (True, reference[key])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=80),
       st.lists(st.integers(0, 100), max_size=40))
def test_btree_deletion_preserves_remaining_keys(inserts, deletes):
    tree = BTree(order=6)
    for key in inserts:
        tree.insert(key, key)
    expected = set(inserts)
    for key in deletes:
        removed, __, __visited = tree.delete(key)
        assert removed == (key in expected)
        expected.discard(key)
    tree.check_invariants()
    assert [key for key, _ in tree.items()] == sorted(expected)


@settings(max_examples=80, deadline=None)
@given(documents, st.dictionaries(field_names, st.integers(-10, 10), min_size=1, max_size=3))
def test_set_then_match_roundtrip(base, updates):
    """After ``$set`` of values, an equality query on them must match."""
    document = {"_id": "x", **base}
    updated, __ = apply_update(*freeze_document(document), {"$set": updates})
    assert matches(updated, dict(updates))
    assert updated["_id"] == "x"


@settings(max_examples=80, deadline=None)
@given(documents)
def test_document_size_positive_and_monotone(base):
    document = {"_id": "x", **base}
    size = measure_document(document)
    assert size > 0
    grown = dict(document)
    grown["extra_field"] = "y" * 100
    assert measure_document(grown) > size


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(field_names, st.integers(-20, 20)), min_size=1, max_size=8))
def test_inc_accumulates_like_plain_addition(increments):
    document, size = freeze_document({"_id": "x"})
    expected: dict[str, int] = {}
    for field, amount in increments:
        document, size = apply_update(document, size, {"$inc": {field: amount}})
        expected[field] = expected.get(field, 0) + amount
    for field, total in expected.items():
        assert document[field] == total
    assert size == measure_document(document)
