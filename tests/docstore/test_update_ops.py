"""Tests for the update-operator language.

``reference_update`` and ``measure_document`` are how a post-image was built
before it was built from what it changes: the whole stored document cloned,
every operator applied to the clone, the result validated and sized by one
walk of all of it.  They are kept here, out of ``src/``, as the reference
:func:`~repro.docstore.update_ops.apply_update` must agree with -- the same
post-image in the same key order, its size, and the same error -- while it
copies, validates and sizes only the top-level fields an update touches.
"""

from __future__ import annotations

import copy
import random
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.client import DocumentClient
from repro.docstore.collection import Collection
from repro.docstore.documents import (
    clone_document,
    freeze_document,
    get_path,
    set_path,
    unset_path,
)
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.update_ops import apply_update, is_update_document
from repro.docstore.wiredtiger import WiredTigerEngine
from repro.errors import DocumentStoreError
from tests.docstore.test_matching import same

# -- the reference ---------------------------------------------------------------------

_SUPPORTED = {"$set", "$unset", "$inc", "$mul", "$min", "$max", "$rename",
              "$push", "$pull", "$addToSet", "$pop"}


def measure_document(document: Any) -> int:
    """Validate and size a whole document in one walk."""
    if not isinstance(document, dict):
        raise DocumentStoreError(
            f"documents must be dictionaries, got {type(document).__name__}")
    return _measure_dict(document, "")


def _measure_dict(value: dict[str, Any], path: str) -> int:
    size = 5
    for key, item in value.items():
        if not isinstance(key, str):
            raise DocumentStoreError(
                f"document keys must be strings (at {path or '<root>'}), got {key!r}")
        if key.startswith("$"):
            raise DocumentStoreError(
                f"field names may not start with '$' (at {path}.{key})")
        size += len(key.encode("utf-8")) + 2 + _measure_value(
            item, f"{path}.{key}" if path else key)
    return size


def _measure_value(value: Any, path: str) -> int:
    if value is None or value is True or value is False:
        return 1
    if isinstance(value, str):
        return len(value.encode("utf-8")) + 5
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, list):
        size = 5
        for position, item in enumerate(value):
            size += _measure_value(item, f"{path}[{position}]") + 2
        return size
    if isinstance(value, dict):
        return _measure_dict(value, path)
    raise DocumentStoreError(
        f"unsupported value type {type(value).__name__} at {path or '<root>'}")


def reference_update(document: dict[str, Any], update: dict[str, Any]
                     ) -> dict[str, Any]:
    """The post-image of ``update`` on the stored ``document``, validated
    (``measure_document`` sizes it)."""
    if not is_update_document(update):
        replacement = copy.deepcopy(update)
        measure_document(replacement)
        replacement["_id"] = document["_id"]
        return replacement
    result = clone_document(document)
    for operator, spec in update.items():
        if operator not in _SUPPORTED:
            raise DocumentStoreError(f"unknown update operator {operator!r}")
        if not isinstance(spec, dict):
            raise DocumentStoreError(f"{operator} expects an object of field updates")
        for path, operand in spec.items():
            _check_path(operator, path)
            if operator == "$rename":
                if not isinstance(operand, str):
                    raise DocumentStoreError(
                        f"$rename target of {path!r} must be a string")
                if (operand == path or operand.startswith(path + ".")
                        or path.startswith(operand + ".")):
                    raise DocumentStoreError(
                        f"$rename source {path!r} and target {operand!r} overlap")
                _check_path(operator, operand)
            _reference_one(result, operator, path, operand)
    measure_document(result)
    return result


def _check_path(operator: str, path: Any) -> None:
    if not isinstance(path, str):
        raise DocumentStoreError(f"{operator} field paths must be strings, got {path!r}")
    if path == "_id" or path.startswith("_id."):
        raise DocumentStoreError("the _id field cannot be modified")


def _reference_one(document: dict[str, Any], operator: str, path: str,
                   operand: Any) -> None:
    if operator == "$set":
        set_path(document, path, copy.deepcopy(operand))
        return
    if operator == "$unset":
        unset_path(document, path)
        return
    if operator == "$rename":
        found, value = get_path(document, path)
        if found:
            unset_path(document, path)
            set_path(document, operand, value)
        return
    found, current = get_path(document, path)
    if operator in ("$inc", "$mul"):
        if found and (not isinstance(current, (int, float)) or isinstance(current, bool)):
            raise DocumentStoreError(
                f"cannot apply {operator} to non-numeric field {path!r}")
        if not isinstance(operand, (int, float)) or isinstance(operand, bool):
            raise DocumentStoreError(f"{operator} requires a numeric operand")
        base = current if found else 0
        set_path(document, path, base + operand if operator == "$inc" else base * operand)
        return
    if operator in ("$min", "$max"):
        if found:
            try:
                replaces = operand < current if operator == "$min" else operand > current
            except TypeError:
                raise DocumentStoreError(
                    f"cannot apply {operator} to field {path!r}: "
                    f"{type(operand).__name__} and {type(current).__name__} "
                    f"do not compare") from None
            if not replaces:
                return
        set_path(document, path, copy.deepcopy(operand))
        return
    if operator in ("$push", "$addToSet"):
        if found and not isinstance(current, list):
            raise DocumentStoreError(f"cannot {operator} to non-array field {path!r}")
        array = list(current) if found else []
        if isinstance(operand, dict) and "$each" in operand:
            if not isinstance(operand["$each"], list):
                raise DocumentStoreError(
                    f"{operator} $each on field {path!r} requires an array")
            items = copy.deepcopy(operand["$each"])
        else:
            items = [copy.deepcopy(operand)]
        for item in items:
            if operator == "$push" or not any(same(item, held) for held in array):
                array.append(item)
        set_path(document, path, array)
        return
    if operator == "$pull":
        if found and isinstance(current, list):
            set_path(document, path,
                     [item for item in current if not same(item, operand)])
        return
    if operator == "$pop":
        if operand not in (1, -1) or isinstance(operand, bool):
            raise DocumentStoreError(
                f"$pop on field {path!r} takes 1 or -1, got {operand!r}")
        if found and isinstance(current, list) and current:
            array = list(current)
            array.pop(0 if operand == -1 else -1)
            set_path(document, path, array)
        return
    raise DocumentStoreError(f"unknown update operator {operator!r}")


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

    @pytest.mark.parametrize("update", [
        {"$min": {"count": "x"}},
        {"$max": {"count": None}},
        {"$min": {"nested": {"x": 0}}},
    ])
    def test_min_max_refuse_what_does_not_compare(self, update):
        """A bare ``TypeError`` escaped from the comparison."""
        [(operator, spec)] = update.items()
        with pytest.raises(DocumentStoreError, match=rf"\{operator} to field "
                                                     rf"'{next(iter(spec))}'"):
            updated(BASE, update)


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
OPERATORS = sorted(_SUPPORTED) + ["$bogus"]
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
    "$min on a number": {"$min": {"a": "x"}},
    "$max on a number": {"$max": {"a": None}},
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
