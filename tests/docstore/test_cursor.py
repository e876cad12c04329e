"""Tests for cursor semantics (lazy evaluation, modifiers, projections).

Every cursor here is a real one -- ``Collection.find`` over the four
documents, or a client handle's ``find_cursor`` -- so the assertions run over
the one read path (:func:`repro.docstore.cursor.cursor_read`), not a fake.
"""

from __future__ import annotations

import random

import pytest

from repro.docstore.client import DocumentClient
from repro.docstore.collection import Collection
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.topology import TopologySpec, build_topology
from repro.docstore.wiredtiger import WiredTigerEngine
from tests.docstore.reference import ReferenceStore

DOCUMENTS = [
    {"_id": "a", "n": 3, "name": "carol"},
    {"_id": "b", "n": 1, "name": "alice"},
    {"_id": "c", "n": 2, "name": "bob"},
    {"_id": "d", "n": None, "name": "dave"},
]


def make_collection(documents=DOCUMENTS, engine=WiredTigerEngine) -> Collection:
    collection = Collection("people", engine())
    collection.insert_many(documents)
    return collection


def make_cursor(projection=None, counter=None):
    collection = make_collection()
    if counter is not None:
        # Count the reads behind the cursor, sorted (a pipeline) or not.
        for name in ("find_with_cost", "aggregate"):
            def counted(*arguments, _read=getattr(collection, name), **keywords):
                counter.append(1)
                return _read(*arguments, **keywords)
            setattr(collection, name, counted)
    return collection.find(projection=projection)


class TestLaziness:
    def test_fetch_not_called_until_consumed(self):
        calls = []
        cursor = make_cursor(counter=calls)
        assert calls == []
        cursor.to_list()
        assert calls == [1]

    def test_fetch_called_only_once(self):
        calls = []
        cursor = make_cursor(counter=calls)
        cursor.to_list()
        cursor.to_list()
        len(cursor)
        assert calls == [1]

    def test_sorted_fetch_called_only_once(self):
        calls = []
        cursor = make_cursor(counter=calls).sort("n")
        cursor.to_list()
        cursor.first()
        assert calls == [1]

    def test_limit_zero_fetches_nothing(self):
        calls = []
        assert make_cursor(counter=calls).skip(2).limit(0).to_list() == []
        assert calls == []

    def test_modifiers_after_consumption_rejected(self):
        cursor = make_cursor()
        cursor.to_list()
        with pytest.raises(RuntimeError):
            cursor.sort("n")


@pytest.fixture(params=["collection", "reference"])
def cursor(request):
    """A fresh cursor over the four documents: a collection's, or the
    reference store's the differentials hold every cursor to."""
    if request.param == "reference":
        return lambda: ReferenceStore(DOCUMENTS).find_cursor()
    return make_cursor


class TestModifiers:
    def test_sort_ascending_and_descending(self, cursor):
        ascending = [doc["_id"] for doc in cursor().sort("n")]
        assert ascending == ["d", "b", "c", "a"]  # None sorts first
        descending = [doc["_id"] for doc in cursor().sort("n", -1)]
        assert descending == ["a", "c", "b", "d"]

    def test_multi_key_sort(self, cursor):
        ordered = cursor().sort("name").sort("n")
        # Last sort applied has the lowest precedence (first key wins).
        names = [doc["name"] for doc in ordered]
        assert names == sorted(names, key=lambda value: value)

    def test_skip_and_limit(self, cursor):
        ordered = cursor().sort("_id").skip(1).limit(2)
        assert [doc["_id"] for doc in ordered] == ["b", "c"]

    def test_skip_beyond_end(self, cursor):
        assert cursor().skip(100).to_list() == []

    def test_limit_zero(self, cursor):
        assert cursor().limit(0).to_list() == []

    def test_first_and_len(self):
        assert make_cursor().sort("_id").first()["_id"] == "a"
        assert len(make_cursor()) == 4
        empty = make_collection([]).find()
        assert empty.first() is None


class TestProjection:
    def test_inclusion_keeps_id(self):
        documents = make_cursor(projection={"name": 1}).to_list()
        assert all(set(doc) == {"name", "_id"} for doc in documents)

    def test_exclusion(self):
        documents = make_cursor(projection={"name": 0}).to_list()
        assert all("name" not in doc and "_id" in doc for doc in documents)

    def test_id_can_be_excluded(self):
        documents = make_cursor(projection={"name": 1, "_id": 0}).to_list()
        assert all(set(doc) == {"name"} for doc in documents)


# -- the two surfaces are one cursor ---------------------------------------------------

NESTED = [{"_id": "x", "a": {"b": 3}}, {"_id": "y", "a": {"b": 1}},
          {"_id": "z", "a": {"b": 2}}]

ENGINES = {"wiredtiger": WiredTigerEngine, "mmapv1": MmapV1Engine}


def surfaces(documents, engine="wiredtiger"):
    """``find`` of a bare collection and ``find_cursor`` of a client handle
    over the same documents."""
    server = build_topology(TopologySpec(storage_engine=engine))
    handle = DocumentClient(server).collection("db", "c")
    handle.insert_many(documents)
    return make_collection(documents, ENGINES[engine]).find, handle.find_cursor


class TestOneCursor:
    def test_a_dotted_sort_path_sorts_on_both_surfaces(self):
        for find in surfaces(NESTED):
            assert [doc["a"]["b"] for doc in find().sort("a.b")] == [1, 2, 3]

    def test_sort_ties_break_by_id_on_both_surfaces(self):
        tied = [{"_id": key, "n": 1} for key in ("q", "p", "s", "r")]
        for find in surfaces(tied, "mmapv1"):  # scans in insertion order
            assert [doc["_id"] for doc in find().sort("n")] == ["p", "q", "r", "s"]

    def test_a_sorted_cursor_with_limit_zero_is_empty_on_both_surfaces(self):
        for find in surfaces(DOCUMENTS):
            assert find().sort("n").limit(0).to_list() == []
            assert find({"n": {"$gte": 1}}).sort("n", -1).skip(1).limit(0).to_list() == []

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_collection_find_equals_find_cursor(self, deployment, seed):
        rng = random.Random(seed)
        documents = [{"_id": f"d{index:02d}", "group": rng.randrange(4),
                      "score": rng.choice([None, 1, 2, 2.5, "x"]),
                      "a": {"b": rng.randrange(3)}}
                     for index in range(40)]
        rng.shuffle(documents)
        find = make_collection(documents).find
        handle = DocumentClient(deployment).collection("db", "c")
        handle.insert_many(documents)
        for __ in range(12):
            query = rng.choice([{}, {"group": {"$lte": 2}}, {"a.b": 1}])
            spec = [(key, rng.choice([1, -1])) for key in
                    rng.sample(["group", "score", "a.b"], rng.randint(1, 2))]
            skip, limit = rng.randrange(4), rng.choice([None, 0, 5, 50])
            cursors = [find(query), handle.find_cursor(query)]
            for cursor in cursors:
                for key, direction in spec:
                    cursor.sort(key, direction)
                cursor.skip(skip)
                if limit is not None:
                    cursor.limit(limit)
            assert cursors[1].to_list() == cursors[0].to_list()
