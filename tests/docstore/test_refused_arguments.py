"""A filter that is not a document, and a field path that names no field,
are refused -- the same way on every deployment of ``deployments.MATRIX``,
before anything is read, locked, written or logged.

``None`` is the only stand-in for "no filter": an empty list, an empty string
or ``0`` used to match every document (``update_many([], ...)`` updated them
all), and a list with something in it failed with a bare ``AttributeError``
on a server and a replica set.  A field path of ``distinct``,
``create_index`` and ``drop_index`` is a non-empty string of non-empty
dot-separated parts: ``create_index("")`` used to build an index on the empty
path (a replica set logged it, a cluster broadcast it) and ``distinct("a.")``
answered ``[]``.

An ``_id`` that is an array is refused too, as MongoDB refuses it: by
``insert_one``, ``insert_many`` and ``replace_one``, before anything is
stored or logged.  One was stored, and ``find({"_id": 1})`` then missed the
``[1, 2]`` the brute-force reference matches.
"""

from __future__ import annotations

import re
from typing import Any

import pytest

from repro.docstore.client import CollectionHandle, DocumentClient
from repro.errors import DocumentStoreError
from tests.docstore.deployments import MATRIX, build, collections, replica_sets

NOT_DOCUMENTS = [[], [1], "", "x", 0, False, ("n", 1)]
REFUSED_FILTER = {
    "find": lambda handle, query: handle.find_with_cost(query),
    "find-limited": lambda handle, query: handle.find_with_cost(query, 3),
    "find-one": lambda handle, query: handle.find_one(query),
    "cursor": lambda handle, query: handle.find_cursor(query).to_list(),
    "cursor-sorted": lambda handle, query: handle.find_cursor(query).sort(
        "n").to_list(),
    "count": lambda handle, query: handle.count_documents(query),
    "distinct": lambda handle, query: handle.distinct("n", query),
    "update-one": lambda handle, query: handle.update_one(query, {"$set": {"v": 1}}),
    "update-many": lambda handle, query: handle.update_many(query, {"$set": {"v": 1}}),
    "replace-one": lambda handle, query: handle.replace_one(query, {"n": -1}),
    "delete-one": lambda handle, query: handle.delete_one(query),
    "delete-many": lambda handle, query: handle.delete_many(query),
}

NOT_FIELDS = [5, None, "", ".", "a.", ".a", "a..b", ["n"]]
REFUSED_PATH = {
    "distinct": lambda handle, path: handle.distinct(path),
    "distinct-filtered": lambda handle, path: handle.distinct(path, {"n": 3}),
    "create-index": lambda handle, path: handle.create_index(path),
    "create-unique-index": lambda handle, path: handle.create_index(path, unique=True),
    "drop-index": lambda handle, path: handle.drop_index(path),
}


def state(deployment: Any) -> tuple[list[Any], list[int]]:
    """What a refused operation must leave as it found it: every physical
    collection's documents, indexes and engine bills, and every oplog."""
    return ([(sorted(map(repr, collection.engine.scan_uncharged())),
              collection.indexes.names(), dict(collection.engine.costs.counts))
             for collection in collections(deployment)],
            [len(replica_set.oplog) for replica_set in replica_sets(deployment)])


ARRAY_IDS = [[1, 2], [], ["k01"]]
REFUSED_ID = {
    "insert-one": lambda handle, _id: handle.insert_one({"_id": _id, "n": -1}),
    "insert-many": lambda handle, _id: handle.insert_many(
        [{"_id": _id, "n": -1}, {"_id": "later", "n": -2}]),
    "replace-one": lambda handle, _id: handle.replace_one(
        {"_id": "k01"}, {"_id": _id, "n": -1}),
}


@pytest.fixture(scope="module", params=list(MATRIX))
def loaded(request) -> tuple[Any, CollectionHandle]:
    deployment = build(request.param)
    handle = DocumentClient(deployment).collection("db", "c")
    handle.insert_many([{"_id": f"k{index:02d}", "n": index, "a": {"b": index % 3}}
                        for index in range(40)])
    handle.create_index("n")
    yield deployment, handle
    deployment.close()


@pytest.mark.parametrize("name", sorted(REFUSED_FILTER))
def test_a_filter_that_is_not_a_document_is_refused(loaded, name):
    deployment, handle = loaded
    before = state(deployment)
    for query in NOT_DOCUMENTS:
        with pytest.raises(DocumentStoreError, match="queries must be dictionaries"):
            REFUSED_FILTER[name](handle, query)
    assert state(deployment) == before


@pytest.mark.parametrize("name", sorted(REFUSED_ID))
def test_an_array_id_is_refused(loaded, name):
    deployment, handle = loaded
    before = state(deployment)
    for _id in ARRAY_IDS:
        with pytest.raises(DocumentStoreError, match="an _id may not be an array"):
            REFUSED_ID[name](handle, _id)
    assert state(deployment) == before


def test_none_is_no_filter(loaded):
    __, handle = loaded
    assert len(handle.find_with_cost(None).documents) == 40
    assert handle.count_documents(None) == 40
    assert handle.distinct("a.b", None) == [0, 1, 2]
    assert handle.find_one(None) is not None
    assert len(handle.find_cursor(None).sort("n").to_list()) == 40


@pytest.mark.parametrize("name", sorted(REFUSED_PATH))
def test_a_path_that_names_no_field_is_refused(loaded, name):
    deployment, handle = loaded
    before = state(deployment)
    for path in NOT_FIELDS:
        with pytest.raises(DocumentStoreError, match=re.escape(repr(path))):
            REFUSED_PATH[name](handle, path)
    assert state(deployment) == before


def test_a_dotted_path_still_names_a_field(loaded):
    __, handle = loaded
    assert handle.distinct("a.b") == [0, 1, 2]
    assert handle.create_index("a.b") == "a.b"
    assert handle.count_documents({"a.b": 1}) == 13
    assert handle.drop_index("a.b")
