"""The query language's hand-written semantics, run on the compiled matcher
and on the reference interpreter.

:func:`~tests.docstore.reference.matches` interprets a raw filter per
document.  ``src/`` evaluates filters only through
:func:`~repro.docstore.matching.compile_query`, so the interpreter lives with
the tests, in the reference module every differential suite shares.  Every
case below runs on both evaluators, and a property holds the generated
kernel's two entry points, ``match`` and ``select``, to the reference over
generated filters.
"""

from __future__ import annotations

from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.matching import compile_query, compile_shape, equality_value, query_shape
from repro.errors import DocumentStoreError
from tests.docstore.reference import matches


def compiled(document: dict[str, Any], query: dict[str, Any]) -> bool:
    """What ``src/`` runs: the query compiled, then called on the document."""
    return compile_query(query)(document)


@pytest.fixture(params=[matches, compiled], ids=["reference", "compiled"])
def match(request):
    return request.param


DOC = {
    "_id": "u1",
    "name": "alice",
    "age": 30,
    "score": 4.5,
    "tags": ["admin", "dev"],
    "address": {"city": "basel", "zip": "4051"},
    "active": True,
}


class TestEquality:
    def test_empty_query_matches_everything(self, match):
        assert match(DOC, {})

    def test_simple_equality(self, match):
        assert match(DOC, {"name": "alice"})
        assert not match(DOC, {"name": "bob"})

    def test_dotted_path_equality(self, match):
        assert match(DOC, {"address.city": "basel"})
        assert not match(DOC, {"address.city": "zurich"})

    def test_array_contains_scalar(self, match):
        assert match(DOC, {"tags": "admin"})
        assert not match(DOC, {"tags": "guest"})

    def test_array_contains_sub_document(self, match):
        document = {"a": [{"b": 1}, {"b": 2}]}
        assert match(document, {"a": {"b": 2}})
        assert match(document, {"a": {"$in": [{"b": 1}]}})
        assert not match(document, {"a": {"b": 3}})

    def test_array_exact_match(self, match):
        assert match(DOC, {"tags": ["admin", "dev"]})
        assert not match(DOC, {"tags": ["dev", "admin"]})

    def test_missing_field_equals_none(self, match):
        assert match(DOC, {"nickname": None})
        assert not match(DOC, {"nickname": "x"})

    def test_bool_not_equal_to_int(self, match):
        assert not match(DOC, {"active": 1})
        assert match(DOC, {"active": True})


class TestComparisonOperators:
    def test_gt_gte_lt_lte(self, match):
        assert match(DOC, {"age": {"$gt": 29}})
        assert match(DOC, {"age": {"$gte": 30}})
        assert not match(DOC, {"age": {"$lt": 30}})
        assert match(DOC, {"age": {"$lte": 30}})

    def test_combined_range(self, match):
        assert match(DOC, {"age": {"$gte": 20, "$lt": 40}})
        assert not match(DOC, {"age": {"$gte": 20, "$lt": 30}})

    def test_ne(self, match):
        assert match(DOC, {"name": {"$ne": "bob"}})
        assert not match(DOC, {"name": {"$ne": "alice"}})

    def test_in_nin(self, match):
        assert match(DOC, {"name": {"$in": ["alice", "bob"]}})
        assert not match(DOC, {"name": {"$nin": ["alice"]}})

    def test_exists(self, match):
        assert match(DOC, {"name": {"$exists": True}})
        assert match(DOC, {"nickname": {"$exists": False}})
        assert not match(DOC, {"nickname": {"$exists": True}})

    def test_comparison_on_missing_field_fails(self, match):
        assert not match(DOC, {"missing": {"$gt": 1}})

    def test_comparison_across_types_fails(self, match):
        assert not match(DOC, {"name": {"$gt": 5}})

    def test_size_and_all(self, match):
        assert match(DOC, {"tags": {"$size": 2}})
        assert not match(DOC, {"tags": {"$size": 1}})
        assert match(DOC, {"tags": {"$all": ["dev"]}})
        assert not match(DOC, {"tags": {"$all": ["dev", "guest"]}})

    def test_not(self, match):
        assert match(DOC, {"age": {"$not": {"$gt": 40}}})
        assert not match(DOC, {"age": {"$not": {"$gt": 20}}})

    def test_unknown_operator_raises(self, match):
        with pytest.raises(DocumentStoreError):
            match(DOC, {"age": {"$regex": ".*"}})


class TestLogicalOperators:
    def test_and(self, match):
        assert match(DOC, {"$and": [{"name": "alice"}, {"age": {"$gt": 20}}]})
        assert not match(DOC, {"$and": [{"name": "alice"}, {"age": {"$gt": 40}}]})

    def test_or(self, match):
        assert match(DOC, {"$or": [{"name": "bob"}, {"age": 30}]})
        assert not match(DOC, {"$or": [{"name": "bob"}, {"age": 31}]})

    def test_nor(self, match):
        assert match(DOC, {"$nor": [{"name": "bob"}, {"age": 31}]})
        assert not match(DOC, {"$nor": [{"name": "alice"}]})

    def test_implicit_and_of_multiple_fields(self, match):
        assert match(DOC, {"name": "alice", "age": 30})
        assert not match(DOC, {"name": "alice", "age": 31})

    def test_logical_operator_requires_list(self, match):
        with pytest.raises(DocumentStoreError):
            match(DOC, {"$and": {"name": "alice"}})

    def test_unknown_top_level_operator(self, match):
        with pytest.raises(DocumentStoreError):
            match(DOC, {"$unknown": []})


class TestQueryIntrospection:
    def test_equality_value_detection(self):
        assert equality_value({"a": 5}, "a") == (True, 5)
        assert equality_value({"a": {"$eq": 5}}, "a") == (True, 5)
        assert equality_value({"a": {"$in": [5]}}, "a") == (True, 5)
        assert equality_value({"a": {"$gt": 5}}, "a") == (False, None)
        assert equality_value({"b": 5}, "a") == (False, None)


# -- the generated kernel, held to the reference ----------------------------------------

#: The value family the kernel's exact-type guards must not confuse: bools
#: and numbers, ``1`` and ``1.0``, strings, ``None``, arrays, sub-documents.
LEAVES = st.sampled_from([1, 1.0, True, False, 0, -0.0, 2.5, None, "1", "x", ""])
NESTED = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(
        st.sampled_from(["a", "b"]), children, max_size=2),
    max_leaves=5)
#: Half of them scalars, where the inlined tests apply.
VALUES = LEAVES | NESTED
#: Fields ``a`` to ``c``: a filter's path may name one a document lacks.
DOCUMENTS = st.dictionaries(st.sampled_from(["a", "b", "c"]), VALUES, max_size=3)
PATHS = st.sampled_from(["a", "b", "a.b", "a.0", "c.a.b", "d"])
OPERATORS = st.one_of(
    st.builds(lambda operator, operand: {operator: operand},
              st.sampled_from(["$eq", "$ne", "$gt", "$gte", "$lt", "$lte"]), VALUES),
    st.builds(lambda operator, operands: {operator: operands},
              st.sampled_from(["$in", "$nin", "$all"]), st.lists(VALUES, max_size=3)),
    st.builds(lambda operand: {"$exists": operand}, st.sampled_from([True, False, 0, 1])),
    st.builds(lambda operand: {"$size": operand}, st.integers(0, 3)),
)
#: One field's operators: the tests of one read of it.
TESTS = st.lists(OPERATORS, min_size=1, max_size=3).map(
    lambda parts: {name: operand for part in parts for name, operand in part.items()})
CONDITIONS = st.one_of(
    VALUES,  # an equality: a sub-document operand has no ``$`` key
    OPERATORS,
    TESTS,
    # A negation (of one, or of a negation) before or after other tests.
    st.builds(lambda negated, rest, first: ({"$not": negated, **rest} if first
                                            else {**rest, "$not": negated}),
              TESTS | TESTS.map(lambda tests: {"$not": tests}), TESTS,
              st.booleans()),
)
FILTERS = st.recursive(
    st.dictionaries(PATHS, CONDITIONS, max_size=2),
    lambda children: st.builds(
        lambda operator, branches, rest: {**rest, operator: branches},
        st.sampled_from(["$and", "$or", "$nor"]),
        st.lists(children, min_size=1, max_size=3),
        st.dictionaries(PATHS, CONDITIONS, max_size=1)),
    max_leaves=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(DOCUMENTS, min_size=1, max_size=8), FILTERS)
def test_match_and_select_are_the_reference(documents, query):
    """A shape's kernel, bound to the filter's operands: ``match`` answers
    each document as :func:`matches` does, and ``select`` keeps exactly the
    documents it matches, the same objects in the same order."""
    shape, params = query_shape(query)
    kernel = compile_shape(shape)
    expected = [matches(document, query) for document in documents]
    assert [kernel.match(document, params) for document in documents] == expected
    selected = kernel.select(documents, params)
    kept = [document for document, matched in zip(documents, expected) if matched]
    assert len(selected) == len(kept)
    assert all(got is want for got, want in zip(selected, kept))


#: What a field may hold where an inlined test guards by exact type: each
#: scalar of the family, an array, a sub-document -- and nothing.
MISSING = object()
HELD = [1, 1.0, True, False, 0, -0.0, 2.5, None, "1", "x", "", [1], [True],
        {"b": 1}, MISSING]
SINGLE = [{operator: operand}
          for operator in ("$eq", "$ne", "$gt", "$gte", "$lt", "$lte")
          for operand in (1, 1.0, True, 0, None, "1", "", [1], {"b": 1})] + [
    {"$in": [1, "x"]}, {"$nin": [True]}, {"$exists": True}, {"$exists": False},
    {"$size": 1}, {"$all": [1]}, {"$not": {}},
    # Two tests, the first of which needs no value: the second must not be
    # the one that reads the field, as a negation of them may skip it.
    {"$gt": None, "$lt": 5}, {"$not": {}, "$lt": 5}]
AFTER = [{"$gt": None}, {"$lt": 5}, {"$gte": "1"}, {"$exists": True}, {"$ne": 1}]


@pytest.mark.parametrize("path", ["a", "n.a"])
def test_every_held_value_against_every_test(path):
    """Exhaustive where the kernel inlines: every value against every
    operator and operand, alone, as an equality, and negated before or after
    another test of the same field (the test evaluated first reads it)."""
    documents = [{} if value is MISSING else
                 {"a": value} if path == "a" else {"n": {"a": value}}
                 for value in HELD]
    conditions = [*SINGLE, *(value for value in HELD if value is not MISSING)]
    conditions += [{"$not": first, **second} for first in SINGLE for second in AFTER]
    conditions += [{**second, "$not": first} for first in SINGLE for second in AFTER]
    for condition in conditions:
        query = {path: condition}
        matcher = compile_query(query)
        expected = [matches(document, query) for document in documents]
        assert [matcher(document) for document in documents] == expected, query
        assert matcher.select(documents) == [
            document for document, matched in zip(documents, expected) if matched]


#: Field names a kernel must read as data, never as source text.
AWKWARD_NAMES = ["it's", 'say "hi"', "back\\slash", "new\nline", "{brace}",
                 "x']) or True or (['", "__import__('os')", "_k0", "document"]


@pytest.mark.parametrize("name", AWKWARD_NAMES)
def test_any_field_name_compiles_and_matches(name):
    document = {name: 5, "sub": {name: "x"}}
    for query in ({name: 5}, {name: {"$gte": 5, "$lt": 6}},
                  {name: {"$in": [4, 5]}, "sub." + name: "x"},
                  {"$or": [{name: 4}, {name: {"$exists": True}}]}):
        matcher = compile_query(query)
        assert matcher(document) and matches(document, query), query
        assert matcher.select([{}, document]) == [document], query
    for query in ({name: 6}, {"sub." + name: {"$ne": "x"}}, {name: {"$lt": 5}}):
        assert not compile_query(query)(document) and not matches(document, query)
