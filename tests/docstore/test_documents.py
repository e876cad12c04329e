"""Tests for document validation, path handling and size accounting."""

from __future__ import annotations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.documents import (
    clone_document,
    field_size,
    freeze_document,
    get_path,
    new_object_id,
    set_path,
    unset_path,
    with_id,
)
from repro.errors import DocumentStoreError
from tests.docstore.reference import measure_document


def size_of(document: dict) -> int:
    return freeze_document(document)[1]


class TestValidation:
    def test_accepts_json_like_documents(self):
        doc = {"a": 1, "b": [1, "x", None], "c": {"nested": True}}
        assert freeze_document(doc)[0] == doc

    def test_rejects_non_dict(self):
        with pytest.raises(DocumentStoreError):
            freeze_document([1, 2])

    def test_rejects_dollar_fields(self):
        with pytest.raises(DocumentStoreError):
            freeze_document({"$set": 1})

    def test_rejects_non_string_keys(self):
        with pytest.raises(DocumentStoreError):
            freeze_document({"a": {1: "x"}})

    def test_rejects_unsupported_types(self):
        with pytest.raises(DocumentStoreError):
            freeze_document({"a": object()})


class TestIds:
    def test_new_object_ids_unique(self):
        assert new_object_id() != new_object_id()

    def test_with_id_preserves_existing(self):
        assert with_id({"_id": "custom", "a": 1})["_id"] == "custom"

    def test_with_id_generates_when_missing(self):
        doc = with_id({"a": 1})
        assert doc["_id"].startswith("oid-")
        assert "_id" not in {"a": 1}  # original untouched


class TestDocumentSize:
    def test_size_grows_with_content(self):
        assert size_of({"a": "x" * 1000}) > size_of({"a": "x"}) + 900

    def test_size_of_nested_structures(self):
        assert size_of({"a": [1, 2, 3]}) > size_of({"a": []})

    def test_size_rejects_unknown_types(self):
        with pytest.raises(DocumentStoreError):
            field_size("a", object())


_walker_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
_walker_values = st.recursive(
    _walker_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(alphabet="abcxyz_", min_size=1, max_size=6),
                        children, max_size=4),
    ),
    max_leaves=12,
)
_walker_documents = st.dictionaries(
    st.text(alphabet="abcxyz_", min_size=1, max_size=6), _walker_values,
    max_size=5,
)


class TestWalkerAgreement:
    """``documents.py`` holds two single-walk combinations of the
    validate/copy/size semantics; this pins both to the whole-document
    ``measure_document`` of the tests so an edit to one walker cannot
    silently skew the other (engines mix their outputs: inserts store freeze
    sizes, updates store sizes a field at a time)."""

    @settings(max_examples=150, deadline=None)
    @given(_walker_documents)
    def test_freeze_field_size_and_measure_agree(self, document):
        frozen, freeze_size = freeze_document(document)
        assert frozen == document
        assert freeze_size == measure_document(document)
        assert freeze_size == 5 + sum(field_size(key, value)
                                      for key, value in document.items())
        cloned = clone_document(frozen)
        assert cloned == frozen
        assert measure_document(cloned) == freeze_size

    def test_freeze_shares_nothing_mutable(self):
        document = {"a": {"b": [1, {"c": 2}]}, "d": [3]}
        frozen, __ = freeze_document(document)
        document["a"]["b"][1]["c"] = 99
        document["d"].append(4)
        assert frozen == {"a": {"b": [1, {"c": 2}]}, "d": [3]}

    @pytest.mark.parametrize("bad", [
        {"$top": 1},
        {"nested": {"$op": 1}},
        {"a": object()},
        {"a": [object()]},
    ])
    def test_freeze_and_field_size_reject_like_measure(self, bad):
        with pytest.raises(DocumentStoreError) as measured:
            measure_document(bad)
        with pytest.raises(DocumentStoreError) as frozen:
            freeze_document(bad)
        [(key, value)] = bad.items()
        with pytest.raises(DocumentStoreError) as sized:
            field_size(key, value)
        assert str(frozen.value) == str(sized.value) == str(measured.value)


class TestPaths:
    def test_get_path_simple_and_nested(self):
        doc = {"a": {"b": {"c": 5}}, "arr": [10, 20]}
        assert get_path(doc, "a.b.c") == (True, 5)
        assert get_path(doc, "arr.1") == (True, 20)
        assert get_path(doc, "a.missing") == (False, None)
        assert get_path(doc, "a.b.c.d") == (False, None)

    def test_set_path_creates_intermediates(self):
        doc = {}
        set_path(doc, "a.b.c", 1)
        assert doc == {"a": {"b": {"c": 1}}}

    def test_set_path_in_list(self):
        doc = {"arr": [1]}
        set_path(doc, "arr.2", 9)
        assert doc["arr"] == [1, None, 9]

    def test_set_path_on_scalar_raises(self):
        with pytest.raises(DocumentStoreError):
            set_path({"a": 5}, "a.b", 1)

    def test_unset_path(self):
        doc = {"a": {"b": 1, "c": 2}}
        assert unset_path(doc, "a.b") is True
        assert doc == {"a": {"c": 2}}
        assert unset_path(doc, "a.missing") is False
