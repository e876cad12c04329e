"""Tests for the update-operator language.

:func:`~tests.docstore.reference.reference_update` and
:func:`~tests.docstore.reference.measure_document` are how a post-image was
built before it was built from what it changes: the whole stored document
cloned, every operator applied to the clone, the result validated and sized
by one walk of all of it.  They are kept in the reference module, out of
``src/``, as the reference :func:`~repro.docstore.update_ops.apply_update`
must agree with -- the same post-image in the same key order, its size, and
the same error -- while it copies, validates and sizes only the top-level
fields an update touches.
"""

from __future__ import annotations

import random
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.client import DocumentClient
from repro.docstore.collection import Collection
from repro.docstore.documents import clone_document, freeze_document
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.update_ops import apply_update, is_update_document
from repro.docstore.wiredtiger import WiredTigerEngine
from repro.errors import DocumentStoreError
from tests.docstore.reference import UPDATE_OPERATORS, measure_document, reference_update


def updated(document: dict[str, Any], update: dict[str, Any]) -> dict[str, Any]:
    """``update`` applied to ``document`` as stored -- checked against the
    reference, the size included."""
    stored, size = freeze_document(document)
    post_image, new_size = apply_update(stored, size, update)
    expected = reference_update(stored, update)
    assert repr(post_image) == repr(expected)
    assert new_size == measure_document(expected)
    return post_image


BASE = {"_id": "d1", "count": 5, "name": "widget", "tags": ["a"], "nested": {"x": 1}}


class TestReplacement:
    def test_whole_document_replacement_keeps_id(self):
        assert updated(BASE, {"name": "other"}) == {"name": "other", "_id": "d1"}

    def test_a_replacement_keeps_its_key_order_and_the_stored_id(self):
        replaced = updated(BASE, {"a": 1, "_id": "other", "b": [2]})
        assert list(replaced.items()) == [("a", 1), ("_id", "d1"), ("b", [2])]

    def test_a_replacement_shares_nothing_with_the_caller(self):
        replacement = {"nested": {"n": [1]}}
        stored, size = freeze_document(BASE)
        replaced, __ = apply_update(stored, size, replacement)
        replacement["nested"]["n"].append(2)
        assert replaced["nested"] == {"n": [1]}

    def test_is_update_document(self):
        assert is_update_document({"$set": {"a": 1}})
        assert not is_update_document({"a": 1})
        assert not is_update_document({1: "a"})

    def test_the_first_invalid_value_in_key_order_is_named(self):
        """What a walk of the whole post-image raises: ``a`` comes before
        ``b`` in the document, whatever order the update names them in."""
        with pytest.raises(DocumentStoreError, match="type set at a$"):
            updated(BASE | {"a": 1, "b": 2}, {"$set": {"b": (1,), "a": {1}}})

    def test_an_operand_is_copied_not_shared(self):
        operand = {"deep": [1]}
        stored, size = freeze_document(BASE)
        post_image, __ = apply_update(stored, size, {
            "$set": {"a": operand}, "$push": {"tags": operand},
            "$addToSet": {"more": {"$each": [operand]}}})
        operand["deep"].append(2)
        assert post_image["a"] == post_image["tags"][1] == post_image["more"][0] == {
            "deep": [1]}

    def test_original_document_is_not_mutated(self):
        stored, size = freeze_document(BASE)
        apply_update(stored, size, {"$set": {"name": "changed", "nested.x": 2},
                                    "$push": {"tags": "b"}})
        assert stored == BASE


class TestSetUnsetRename:
    def test_set_creates_and_overwrites(self):
        result = updated(BASE, {"$set": {"name": "gadget", "new": 1, "nested.y": 2}})
        assert result["name"] == "gadget"
        assert result["new"] == 1
        assert result["nested"] == {"x": 1, "y": 2}

    def test_unset_removes(self):
        assert "name" not in updated(BASE, {"$unset": {"name": "", "missing": ""}})

    def test_rename(self):
        result = updated(BASE, {"$rename": {"name": "title"}})
        assert result["title"] == "widget"
        assert "name" not in result

    @pytest.mark.parametrize("target", ["name.sub", "name", "nested.x.y"])
    def test_rename_refuses_a_target_on_its_own_path(self, target):
        """``{"a": "a.b"}`` nested ``a`` under itself, and ``{"a": "a"}``
        moved it to the end; MongoDB refuses both."""
        source = "nested.x" if target.startswith("nested") else "name"
        with pytest.raises(DocumentStoreError, match="overlap"):
            updated(BASE, {"$rename": {source: target}})
        with pytest.raises(DocumentStoreError, match="overlap"):
            updated(BASE, {"$rename": {target: source}})

    @pytest.mark.parametrize("target", [5, None, ["title"]])
    def test_rename_refuses_a_target_that_is_no_string(self, target):
        with pytest.raises(DocumentStoreError, match="must be a string"):
            updated(BASE, {"$rename": {"name": target}})

    @pytest.mark.parametrize("update", [
        {"$set": {"_id": "other"}},
        {"$unset": {"_id": ""}},
        {"$set": {"_id.x": 1}},
        {"$rename": {"name": "_id"}},
        {"$rename": {"_id": "name"}},
    ])
    def test_id_cannot_be_modified(self, update):
        with pytest.raises(DocumentStoreError, match="_id field cannot be modified"):
            updated(BASE, update)
        with pytest.raises(DocumentStoreError, match="_id field cannot be modified"):
            updated({**BASE, "_id": {"x": 0}}, update)

    def test_unknown_operator_raises(self):
        with pytest.raises(DocumentStoreError):
            updated(BASE, {"$bogus": {"a": 1}})

    def test_operator_spec_must_be_object(self):
        with pytest.raises(DocumentStoreError):
            updated(BASE, {"$set": 5})

    def test_field_paths_must_be_strings(self):
        with pytest.raises(DocumentStoreError, match="must be strings"):
            updated(BASE, {"$set": {1: "x"}})


class TestNumericOperators:
    def test_inc_existing_and_missing(self):
        result = updated(BASE, {"$inc": {"count": 3, "fresh": 2}})
        assert result["count"] == 8
        assert result["fresh"] == 2

    def test_inc_non_numeric_field_raises(self):
        with pytest.raises(DocumentStoreError):
            updated(BASE, {"$inc": {"name": 1}})

    def test_inc_requires_numeric_operand(self):
        with pytest.raises(DocumentStoreError):
            updated(BASE, {"$inc": {"count": "one"}})

    def test_mul(self):
        assert updated(BASE, {"$mul": {"count": 2}})["count"] == 10

    def test_min_max(self):
        assert updated(BASE, {"$min": {"count": 3}})["count"] == 3
        assert updated(BASE, {"$min": {"count": 9}})["count"] == 5
        assert updated(BASE, {"$max": {"count": 9}})["count"] == 9
        assert updated(BASE, {"$max": {"count": 3}})["count"] == 5
        assert updated(BASE, {"$max": {"absent": 7}})["absent"] == 7

    @pytest.mark.parametrize("update, field, expected", [
        ({"$min": {"count": "x"}}, "count", 5),
        ({"$max": {"count": "x"}}, "count", "x"),
        ({"$max": {"count": None}}, "count", 5),
        ({"$min": {"count": None}}, "count", None),
        ({"$min": {"nested": {"x": 0}}}, "nested", {"x": 0}),
        ({"$max": {"tags": {"x": 0}}}, "tags", ["a"]),
        ({"$max": {"c": True}}, "c", 0),
        ({"$min": {"c": True}}, "c", True),
        ({"$max": {"c": 0.0}}, "c", 0),
    ])
    def test_min_max_compare_by_the_value_order(self, update, field, expected):
        """Any two values compare, by the order ``$sort`` and the ``$group``
        accumulators use: None < bool < number < string < sub-document <
        array.  A bool is no number (``True`` is not ``1``), and a tie
        keeps the held value (``0.0`` does not replace ``0``).  A string
        against a number, or ``None``, used to be refused."""
        result = updated(BASE | {"c": 0}, update)[field]
        assert result == expected and type(result) is type(expected)


class TestArrayOperators:
    def test_push_scalar_and_each(self):
        assert updated(BASE, {"$push": {"tags": "b"}})["tags"] == ["a", "b"]
        result = updated(BASE, {"$push": {"tags": {"$each": ["b", "c"]}}})
        assert result["tags"] == ["a", "b", "c"]

    def test_push_creates_array(self):
        assert updated(BASE, {"$push": {"log": "x"}})["log"] == ["x"]

    def test_push_to_non_array_raises(self):
        with pytest.raises(DocumentStoreError):
            updated(BASE, {"$push": {"count": 1}})

    @pytest.mark.parametrize("operator", ["$push", "$addToSet"])
    @pytest.mark.parametrize("each", [3, "bc", {"b": 1}, None])
    def test_each_needs_an_array(self, operator, each):
        """``$push`` raised a bare ``TypeError`` for ``3`` and pushed a
        string's characters."""
        with pytest.raises(DocumentStoreError, match=r"\$each on field 'tags'"):
            updated(BASE, {operator: {"tags": {"$each": each}}})

    def test_add_to_set_deduplicates(self):
        assert updated(BASE, {"$addToSet": {"tags": "a"}})["tags"] == ["a"]
        assert updated(BASE, {"$addToSet": {"tags": "b"}})["tags"] == ["a", "b"]

    def test_add_to_set_each_appends_what_is_absent_in_order(self):
        """It appended the literal ``{"$each": ...}`` and then failed on
        its ``$`` key."""
        document = {"_id": "x", "arr": [1, 2]}
        each = {"$addToSet": {"arr": {"$each": [3, 1, 4, 3]}}}
        assert updated(document, each)["arr"] == [1, 2, 3, 4]
        assert updated(document, {"$addToSet": {"new": {"$each": [[1], [1]]}}}
                       )["new"] == [[1]]

    def test_pull_removes_matching(self):
        document = {"_id": "x", "tags": ["a", "b", "a"]}
        assert updated(document, {"$pull": {"tags": "a"}})["tags"] == ["b"]

    def test_pop_front_and_back(self):
        document = {"_id": "x", "tags": ["a", "b", "c"]}
        assert updated(document, {"$pop": {"tags": 1}})["tags"] == ["a", "b"]
        assert updated(document, {"$pop": {"tags": -1}})["tags"] == ["b", "c"]

    def test_pop_empty_is_noop(self):
        document = {"_id": "x", "tags": []}
        assert updated(document, {"$pop": {"tags": 1}})["tags"] == []

    @pytest.mark.parametrize("operand", [0, 2, -2, True, "1", None, [1]])
    def test_pop_takes_one_or_minus_one(self, operand):
        """Anything else popped the last element."""
        with pytest.raises(DocumentStoreError, match=r"\$pop on field 'tags'"):
            updated(BASE, {"$pop": {"tags": operand}})


# -- the property: what an update changes, against the whole-document reference --------

FIELDS = ["a", "b", "c", "_id"]
scalars = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                    st.floats(-4, 4, allow_nan=False), st.text("xyé", max_size=3))
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(FIELDS[:3]), children, max_size=3)),
    max_leaves=6)
stored_documents = st.builds(
    lambda id_, fields: {"_id": id_, **fields},
    st.one_of(st.text("k", min_size=1, max_size=2), st.integers(0, 3)),
    st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]), values, max_size=5))
#: Paths into the stored shape, into what is absent, through arrays, onto
#: ``_id`` and onto keys no document may hold.
paths = st.lists(st.sampled_from(["a", "b", "c", "f", "0", "1", "_id", "$x"]),
                 min_size=1, max_size=3).map(".".join)
#: Operands: JSON-like values, ``$each`` forms, ``$`` keys and values no
#: document may hold.
operands = st.one_of(
    values, values,
    st.fixed_dictionaries({"$each": st.one_of(st.lists(values, max_size=3), scalars)}),
    st.dictionaries(st.sampled_from(["a", "$y"]), scalars, min_size=1, max_size=2),
    st.sampled_from([(1,), {1, 2}, object]),
    st.sampled_from([1, -1]),
)
OPERATORS = sorted(UPDATE_OPERATORS) + ["$bogus"]
updates = st.one_of(
    st.dictionaries(st.sampled_from(OPERATORS),
                    st.one_of(st.dictionaries(paths, operands, max_size=3),
                              st.just(5)),
                    min_size=1, max_size=3),
    st.dictionaries(st.sampled_from(FIELDS + ["$z"]), operands, max_size=3),
    st.dictionaries(st.sampled_from(OPERATORS),
                    st.dictionaries(paths, paths, max_size=2),
                    min_size=1, max_size=2),
)


def touched_fields(update: dict[str, Any]) -> set[str] | None:
    """The top-level fields ``update``'s operators name -- ``None`` for a
    replacement, which touches everything."""
    if not is_update_document(update):
        return None
    fields = set()
    for operator, spec in update.items():
        for path, operand in (spec.items() if isinstance(spec, dict) else ()):
            fields.add(str(path).partition(".")[0])
            if operator == "$rename":
                fields.add(str(operand).partition(".")[0])
    return fields


@settings(max_examples=400, deadline=None)
@given(stored_documents, updates)
def test_an_update_is_the_reference_built_from_what_it_changes(document, update):
    stored, size = freeze_document(document)
    before = repr(stored)
    try:
        expected = reference_update(clone_document(stored), update)
    except Exception as refusal:  # noqa: BLE001 -- the same refusal, below
        with pytest.raises(type(refusal)) as raised:
            apply_update(stored, size, update)
        assert str(raised.value) == str(refusal)
    else:
        post_image, new_size = apply_update(stored, size, update)
        assert repr(post_image) == repr(expected)
        assert new_size == measure_document(post_image)
        touched = touched_fields(update)
        if touched is not None:
            assert all(post_image[field] is value for field, value in stored.items()
                       if field not in touched)
    assert repr(stored) == before


# -- the stored size, on both engines ----------------------------------------------------

ENGINES = {"wiredtiger": lambda: WiredTigerEngine(cache_bytes=4_000),
           "mmapv1": lambda: MmapV1Engine(padding_factor=1.05)}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["one", "many", "replace"]),
                          st.integers(0, 7), updates), min_size=1, max_size=25))
def test_the_stored_size_is_the_size_of_the_stored_document(engine, steps):
    collection = Collection("c", ENGINES[engine]())
    rng = random.Random(len(steps))
    collection.insert_many([{"_id": f"k{index}", "n": index,
                             "s": "x" * rng.randrange(40), "arr": [index]}
                            for index in range(8)])
    for kind, index, update in steps:
        query = {"_id": f"k{index}"} if kind != "many" else {"n": {"$gte": index}}
        try:
            if kind == "one":
                collection.update_one(query, update)
            elif kind == "many":
                collection.update_many(query, update)
            else:
                collection.replace_one(query, update)
        except DocumentStoreError:
            pass
    for record_id in collection.record_ids():
        document, size = collection.engine.peek(record_id)
        assert size == measure_document(document)
    collection.engine.verify_accounting()


# -- a refused operand, on every deployment ----------------------------------------------

REFUSED = {
    "$push $each": {"$push": {"arr": {"$each": 3}}},
    "$addToSet $each": {"$addToSet": {"arr": {"$each": "ab"}}},
    "$pop operand": {"$pop": {"arr": 2}},
    "$rename onto itself": {"$rename": {"a": "a.b"}},
}


def test_a_refused_operand_leaves_the_document_as_it_was(deployment):
    handle = DocumentClient(deployment).collection("db", "c")
    handle.insert_one({"_id": "k1", "a": 5, "arr": [1, 2]})
    for name, update in REFUSED.items():
        field = next(iter(next(iter(update.values()))))
        with pytest.raises(DocumentStoreError, match=repr(field)):
            handle.update_one({"_id": "k1"}, update)
        with pytest.raises(DocumentStoreError, match=repr(field)):
            handle.update_many({}, update)
        assert handle.find_one({"_id": "k1"}) == {
            "_id": "k1", "a": 5, "arr": [1, 2]}, name
