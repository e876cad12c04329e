"""Value identity (:mod:`repro.docstore.values`) held to the rule, on every
deployment.

The rule is :func:`tests.docstore.test_matching.same`, the brute-force
reference's equality, written out there without ``src/``.  Over the ``1`` /
``1.0`` / ``"1"`` / ``True`` / ``None`` family, nested in sub-documents and
arrays, ``key``, ``order``, ``text`` and ``record_id`` tell two values apart
exactly when the rule does, and the compiled matcher answers what the
reference answers.

Then the family goes into every entry of ``deployments.MATRIX``: as ``_id``,
as an indexed field, as an unindexed field and as a shard-key value, through
find, count, distinct, ``$group``, ``$sort``, update and delete.  Every
deployment answers what ``standalone-wiredtiger`` answers and what the
reference says.  The five defects the value identity fixed each have a test
of their own below, on every entry too.
"""

from __future__ import annotations

from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.client import DocumentClient
from repro.docstore.values import ESCAPE, key, order, record_id, text
from repro.errors import DocumentStoreError, DuplicateKeyError
from tests.docstore.deployments import MATRIX, build
from tests.docstore.test_matching import compiled, matches, same

LEAVES = st.sampled_from([1, 1.0, "1", True, None, 0, False, -0.0, 2.5, "",
                          ESCAPE + "1"])
FAMILY_VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(
        st.sampled_from(["a", "b", "c"]), children, max_size=3),
    max_leaves=8)


def reference_order(value: Any) -> tuple:
    """The order the rule implies, written out: None < bool < number <
    string < sub-document (fields by name) < array (element-wise) < a value
    no document can hold (by its ``repr``)."""
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, dict):
        return (4, [(name, reference_order(value[name])) for name in sorted(value)])
    if isinstance(value, list):
        return (5, [reference_order(item) for item in value])
    return (6, repr(value))


# -- the functions, held to the rule -------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(FAMILY_VALUES, FAMILY_VALUES)
def test_key_order_text_and_record_id_are_the_rule(left, right):
    equal = same(left, right)
    assert (key(left) == key(right)) == equal
    assert (order(left) == order(right)) == equal
    assert (text(left) == text(right)) == equal
    assert (record_id(left) == record_id(right)) == equal
    if equal:
        assert hash(key(left)) == hash(key(right))
    assert (order(left) < order(right)) == (
        reference_order(left) < reference_order(right))


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=4) | st.sampled_from([ESCAPE, ESCAPE + "n1", "1"]))
def test_a_str_is_its_own_record_id(value):
    if value.startswith(ESCAPE):
        assert record_id(value) == ESCAPE + value
    else:
        assert record_id(value) is value
    assert key(value) is value


@settings(max_examples=300, deadline=None)
@given(FAMILY_VALUES, FAMILY_VALUES)
def test_the_compiled_matcher_is_the_reference(stored, operand):
    document = {"_id": "d", "a": stored, "n": {"a": stored}}
    for query in ({"a": operand}, {"a": {"$eq": operand}}, {"a": {"$ne": operand}},
                  {"a": {"$in": [operand, "zz"]}}, {"a": {"$nin": [operand]}},
                  {"a": {"$all": [operand]}}, {"a": {"$gte": operand}},
                  {"a": {"$lt": operand}}, {"n.a": operand}):
        assert compiled(document, query) == matches(document, query), query


# -- the family on every deployment ----------------------------------------------------

SCALARS = [1, 1.0, "1", True, None, 0, False, "x", 2.5]
NESTED = [{"b": 1}, {"b": 1.0}, {"b": True}, {"b": None}, {"b": "1"},
          {"c": 1, "b": 1}, {"b": 1, "c": 1.0}]
ARRAYS = [[1], [1.0], [True], ["1"], [None], [{"b": 1}], [{"b": True}],
          [1, True], []]
#: What an ``_id`` and a shard key may hold: no array.
IDS = SCALARS + NESTED
FAMILY = IDS + ARRAYS
FIELDS = ("_id", "i", "u")  # the ``_id``, an indexed and an unindexed field


def loaded(deployment: Any) -> tuple[Any, Any, list[tuple]]:
    """The family stored on ``deployment``: collection ``c`` holds it in the
    indexed ``i`` and the unindexed ``u`` and, as far as it is taken, as
    ``_id``; ``k`` holds it as the shard key ``s`` (on a cluster).  Returns
    both handles and the outcome of every insert."""
    client = DocumentClient(deployment)
    if hasattr(deployment, "shard_collection"):
        deployment.shard_collection("db", "k", key="s")
    handle, keyed = client.collection("db", "c"), client.collection("db", "k")
    handle.create_index("i")
    outcomes = []
    for document in documents():
        try:
            outcomes.append(("stored", handle.insert_one(document).inserted_ids))
        except DuplicateKeyError:
            outcomes.append(("refused", document["_id"]))
    keyed.insert_many([{"_id": f"s{position:02d}", "s": value}
                       for position, value in enumerate(IDS)])
    return handle, keyed, outcomes


def documents() -> list[dict[str, Any]]:
    return ([{"_id": f"d{position:02d}", "i": value, "u": value, "n": 0}
             for position, value in enumerate(FAMILY)]
            + [{"_id": value, "i": position, "u": position, "n": 0}
               for position, value in enumerate(IDS)])


def reference_load() -> tuple[list[dict[str, Any]], list[tuple]]:
    stored: list[dict[str, Any]] = []
    outcomes = []
    for document in documents():
        if any(same(document["_id"], held["_id"]) for held in stored):
            outcomes.append(("refused", document["_id"]))
        else:
            stored.append(document)
            outcomes.append(("stored", [document["_id"]]))
    return stored, outcomes


def ids(found: list[dict[str, Any]]) -> list[str]:
    """Which documents a read found, in no particular order: an ``_id`` is
    the object stored, so its ``repr`` names it on every deployment."""
    return sorted(repr(document["_id"]) for document in found)


def alike(left: list[Any], right: list[Any]) -> bool:
    return len(left) == len(right) and all(map(same, left, right))


def queries() -> list[dict[str, Any]]:
    made = []
    for value in FAMILY:
        for field in FIELDS:
            made += [{field: value}, {field: {"$in": [value, "zz"]}},
                     {field: {"$ne": value}}, {field: {"$all": [value]}}]
            if isinstance(value, (bool, int, float, str)):
                made.append({field: {"$gte": value}})
    return made


def answers(deployment: Any) -> dict[str, Any]:
    """Everything the family differential asks one deployment, in order;
    the writes come last and change what is stored."""
    handle, keyed, outcomes = loaded(deployment)
    answered: dict[str, Any] = {"inserts": outcomes, "reads": [], "keyed": []}
    for query in queries():
        answered["reads"].append((ids(handle.find_with_cost(query).documents),
                                  handle.count_documents(query)))
    for value in FAMILY:
        answered["keyed"].append(ids(keyed.find_with_cost({"s": value}).documents))
    answered["distinct"] = [handle.distinct(field) for field in FIELDS]
    answered["group"] = [
        handle.aggregate_with_cost([{"$group": {"_id": f"${field}",
                                                "n": {"$sum": 1}}}]).documents
        for field in ("i", "u")]
    answered["sort"] = [
        [document["_id"] for document in handle.aggregate_with_cost(
            [{"$sort": {field: direction}}]).documents]
        for field in ("i", "u") for direction in (1, -1)]
    writes = []
    for value in FAMILY:
        updated = handle.update_many({"u": value}, {"$inc": {"n": 1}})
        writes.append((updated.matched_count, updated.modified_count,
                       handle.update_one({"_id": value},
                                         {"$set": {"w": 1}}).matched_count))
    for value in (1, True, {"b": 1}, [1], None):
        writes.append(handle.delete_many({"i": value}).deleted_count)
        writes.append(handle.delete_one({"_id": value}).deleted_count)
    answered["writes"] = writes
    answered["stored"] = sorted(
        (repr(document["_id"]), document.get("n"), document.get("w"))
        for document in handle.find_with_cost({}).documents)
    return answered


@pytest.fixture(scope="module")
def expected() -> dict[str, Any]:
    deployment = build("standalone-wiredtiger")
    try:
        return answers(deployment)
    finally:
        deployment.close()


@pytest.mark.parametrize("name", list(MATRIX))
def test_the_family_answers_alike_everywhere(expected, name):
    deployment = build(name)
    try:
        answered = answers(deployment)
    finally:
        deployment.close()
    assert answered["inserts"] == expected["inserts"]
    assert answered["reads"] == expected["reads"]
    assert answered["keyed"] == expected["keyed"]
    for mine, theirs in zip(answered["distinct"], expected["distinct"]):
        assert alike(mine, theirs)
    for mine, theirs in zip(answered["group"], expected["group"]):
        assert alike([row["_id"] for row in mine], [row["_id"] for row in theirs])
        assert [row["n"] for row in mine] == [row["n"] for row in theirs]
    for mine, theirs in zip(answered["sort"], expected["sort"]):
        assert alike(mine, theirs)
    assert answered["writes"] == expected["writes"]
    assert answered["stored"] == expected["stored"]


def test_the_standalone_answers_what_the_reference_says(expected):
    stored, outcomes = reference_load()
    assert expected["inserts"] == outcomes
    for query, (found, counted) in zip(queries(), expected["reads"]):
        matching = [document for document in stored if matches(document, query)]
        assert found == ids(matching) and counted == len(matching), query
    keyed = [{"_id": f"s{position:02d}", "s": value}
             for position, value in enumerate(IDS)]
    for value, found in zip(FAMILY, expected["keyed"]):
        assert found == ids([document for document in keyed
                             if matches(document, {"s": value})]), value
    for field, values in zip(FIELDS, expected["distinct"]):
        distinct: list[Any] = []
        for document in stored:
            for item in (document[field] if isinstance(document[field], list)
                         else [document[field]]):
                if not any(same(item, held) for held in distinct):
                    distinct.append(item)
        assert alike(values, sorted(distinct, key=reference_order)), field
    for field, rows in zip(("i", "u"), expected["group"]):
        groups: list[list[Any]] = []
        for document in stored:
            for group in groups:
                if same(group[0], document[field]):
                    group[1] += 1
                    break
            else:
                groups.append([document[field], 1])
        groups.sort(key=lambda group: reference_order(group[0]))
        assert alike([row["_id"] for row in rows], [group[0] for group in groups])
        assert [row["n"] for row in rows] == [group[1] for group in groups]
    by_id = {repr(document["_id"]): document for document in stored}
    for (field, direction), sorted_ids in zip(
            [(field, direction) for field in ("i", "u") for direction in (1, -1)],
            expected["sort"]):
        assert sorted(map(repr, sorted_ids)) == sorted(by_id)
        keys = [reference_order(by_id[repr(_id)][field]) for _id in sorted_ids]
        assert keys == sorted(keys, reverse=direction < 0), field
    # The writes of ``answers``, replayed on the reference's documents.
    model, writes = [dict(document) for document in stored], []
    for value in FAMILY:
        matched = [document for document in model if matches(document, {"u": value})]
        for document in matched:
            document["n"] += 1
        first = [document for document in model if matches(document, {"_id": value})]
        for document in first[:1]:
            document["w"] = 1
        writes.append((len(matched), len(matched), len(first[:1])))
    for value in (1, True, {"b": 1}, [1], None):
        for field, limit in (("i", None), ("_id", 1)):
            gone = [document for document in model
                    if matches(document, {field: value})][:limit]
            model = [document for document in model
                     if not any(document is each for each in gone)]
            writes.append(len(gone))
    assert expected["writes"] == writes
    assert expected["stored"] == sorted(
        (repr(document["_id"]), document.get("n"), document.get("w"))
        for document in model)


# -- the five defects, one test each ------------------------------------------------


@pytest.fixture(params=list(MATRIX))
def client(request):
    deployment = build(request.param)
    yield DocumentClient(deployment)
    deployment.close()


def test_one_and_the_string_one_are_two_ids(client):
    """A single server refused ``"1"`` after ``1`` (its record id was
    ``str(_id)``) while a cluster stored both; every deployment stored
    ``1.0`` beside ``1``."""
    handle = client.collection("db", "c")
    handle.insert_one({"_id": 1})
    handle.insert_one({"_id": "1"})
    with pytest.raises(DuplicateKeyError):
        handle.insert_one({"_id": 1.0})
    assert handle.count_documents({}) == 2
    assert [document["_id"] for document in handle.find_cursor({"_id": "1"})] == ["1"]


def test_one_point_zero_after_one_is_a_duplicate(client):
    """``1.0`` was stored beside ``1``: ``find({"_id": 1})`` then returned one
    of the two documents the matcher matches."""
    handle = client.collection("db", "c")
    handle.insert_one({"_id": 1, "v": "first"})
    with pytest.raises(DuplicateKeyError):
        handle.insert_one({"_id": 1.0, "v": "second"})
    with pytest.raises(DuplicateKeyError):
        handle.insert_many([{"_id": 2}, {"_id": 2.0}])
    assert handle.count_documents({}) == 2
    assert handle.distinct("_id") == [1, 2]
    assert [document["v"] for document in handle.find_cursor({"_id": 1.0})] == ["first"]


def test_a_bool_in_a_sub_document_is_no_number(client):
    """``{"a": {"b": 1}}`` matched ``{"a": {"b": True}}`` while ``a`` was not
    indexed, and not once it was; inside an array alike.  Both collections
    now answer the same."""
    handle = client.collection("db", "c")
    indexed = client.collection("db", "indexed")
    indexed.create_index("a")
    for collection in handle, indexed:
        collection.insert_many([{"_id": "bool", "a": {"b": True}},
                                {"_id": "one", "a": {"b": 1}},
                                {"_id": "listed", "a": [{"b": True}]},
                                {"_id": "listed-one", "a": [{"b": 1}]}])
    for collection in handle, indexed:
        assert collection.distinct("_id", {"a": {"b": 1}}) == ["listed-one", "one"]
        assert collection.distinct("_id", {"a": {"b": 1.0}}) == ["listed-one", "one"]
        assert collection.distinct("_id", {"a": {"b": True}}) == ["bool", "listed"]
        assert collection.distinct("_id", {"a": [{"b": 1}]}) == ["listed-one"]


def test_a_bool_in_an_array_is_no_number(client):
    """``{"$all": [True]}`` matched ``[1]``, and ``{"a": [1]}`` matched
    ``[True]``."""
    handle = client.collection("db", "c")
    handle.insert_many([{"_id": "ones", "a": [1]}, {"_id": "trues", "a": [True]}])
    assert handle.distinct("_id", {"a": {"$all": [True]}}) == ["trues"]
    assert handle.distinct("_id", {"a": {"$all": [1.0]}}) == ["ones"]
    assert handle.distinct("_id", {"a": [1]}) == ["ones"]
    assert handle.distinct("_id", {"a": [True]}) == ["trues"]


def test_an_array_id_is_refused(client):
    """``insert_one({"_id": [1, 2]})`` was stored, and ``find({"_id": 1})``
    then missed it while the reference matched it."""
    handle = client.collection("db", "c")
    with pytest.raises(DocumentStoreError, match="an _id may not be an array"):
        handle.insert_one({"_id": [1, 2]})
    assert handle.count_documents({}) == 0


def test_an_update_to_another_class_modifies(client):
    """``True`` -> ``1`` changed the document, but ``==`` called it
    unmodified; ``$addToSet`` took ``True`` for the ``1`` it held and
    ``$pull`` of ``1`` pulled ``True`` as well."""
    handle = client.collection("db", "c")
    handle.insert_many([{"_id": "a", "v": True, "arr": [1, True]},
                        {"_id": "b", "v": True, "arr": [1]}])
    assert handle.update_one({"_id": "a"}, {"$set": {"v": 1}}).modified_count == 1
    assert handle.update_many({}, {"$set": {"v": 1}}).modified_count == 1
    assert handle.update_many({}, {"$set": {"v": 1}}).modified_count == 0
    handle.update_one({"_id": "b"}, {"$addToSet": {"arr": {"$each": [True, 1.0]}}})
    handle.update_one({"_id": "a"}, {"$pull": {"arr": 1.0}})
    assert [document["arr"] for document in handle.find_cursor({}).sort("_id")] == [
        [True], [1, True]]
