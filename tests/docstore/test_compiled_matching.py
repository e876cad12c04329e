"""Compiled matchers are semantically identical to the interpreted reference.

``compile_query`` compiles the shape ``query_shape`` validated into closures;
the planner re-binds a cached compiled shape to every same-shaped query.  Both
moves are only sound if compiled evaluation, parameter extraction and the
interpreted reference (``tests/docstore/test_matching.py``) agree exactly --
which this suite checks directly and differentially.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.client import DocumentClient
from repro.docstore.collection import Collection
from repro.docstore.matching import (
    CompiledShape,
    Matcher,
    compile_query,
    compile_shape,
    query_shape,
)
from repro.docstore.sharding import ShardedCluster
from repro.docstore.wiredtiger import WiredTigerEngine
from repro.errors import DocumentStoreError
from tests.docstore.test_matching import matches

DOCUMENTS = [
    {},
    {"a": 1},
    {"a": None},
    {"a": True},
    {"a": 0},
    {"a": "1"},
    {"a": [1, 2, 3]},
    {"a": [True]},
    {"a": {"b": 2}},
    {"a": {"b": [5, "x"]}, "c": "hello"},
    {"a": 2.5, "b": -3, "c": ""},
    {"b": [{"x": 1}, 4], "c": "zz"},
    {"a": [1, [2, 3]], "b": None},
]

QUERIES = [
    {},
    {"a": 1},
    {"a": None},
    {"a": True},
    {"a": [1, 2, 3]},
    {"a": {"b": 2}},
    {"a.b": 2},
    {"a.1": 2},
    {"a": {"$eq": 1}},
    {"a": {"$ne": 1}},
    {"a": {"$gt": 0}},
    {"a": {"$gte": 1, "$lt": 3}},
    {"a": {"$lt": "2"}},
    {"a": {"$gt": True}},
    {"a": {"$in": [1, "1", None]}},
    {"a": {"$in": []}},
    {"a": {"$nin": [2, 3]}},
    {"a": {"$exists": True}},
    {"a": {"$exists": False}},
    {"a": {"$size": 3}},
    {"a": {"$all": [1, 2]}},
    {"a": {"$not": {"$gt": 1}}},
    {"a": {"$not": {"$in": [1]}}},
    {"$and": [{"a": {"$gte": 0}}, {"c": "hello"}]},
    {"$or": [{"a": 1}, {"b": -3}]},
    {"$nor": [{"a": 1}, {"c": "zz"}]},
    {"$and": [{"$or": [{"a": 1}, {"a": 2}]}, {"b": {"$exists": False}}]},
    {"a": {"$gt": 0, "$lt": 10}, "c": {"$exists": True}},
]


class TestCompiledAgainstInterpreted:
    @pytest.mark.parametrize("query_index", range(len(QUERIES)))
    def test_fixed_corpus(self, query_index):
        query = QUERIES[query_index]
        matcher = compile_query(query)
        for document in DOCUMENTS:
            assert matcher(document) == matches(document, query), (
                f"compiled and interpreted disagree: query={query} doc={document}"
            )

    def test_shape_rebinding_matches_fresh_compilation(self):
        """A compiled shape bound to a different same-shaped query's params
        behaves exactly like compiling that query from scratch."""
        pairs = [
            ({"a": 1}, {"a": 2}),
            ({"a": {"$gt": 0, "$lt": 5}}, {"a": {"$gt": -3, "$lt": 99}}),
            ({"a": {"$in": [1, 2]}}, {"a": {"$in": [7, 9]}}),
            ({"$or": [{"a": 1}, {"c": "x"}]}, {"$or": [{"a": 9}, {"c": "hello"}]}),
            ({"a": {"$not": {"$gte": 2}}}, {"a": {"$not": {"$gte": -1}}}),
            ({"a.b": 2, "c": "x"}, {"a.b": 99, "c": "hello"}),
        ]
        for first, second in pairs:
            first_shape, __ = query_shape(first)
            second_shape, second_params = query_shape(second)
            assert first_shape == second_shape, (first, second)
            rebound = Matcher(compile_shape(first_shape), second_params)
            for document in DOCUMENTS:
                assert rebound(document) == matches(document, second), (
                    f"rebound matcher diverged: {first} -> {second} on {document}"
                )

    def test_different_value_types_change_the_shape(self):
        assert query_shape({"a": 1})[0] != query_shape({"a": "1"})[0]
        assert query_shape({"a": {"$gt": 1}})[0] != query_shape({"a": {"$gt": [1]}})[0]
        assert query_shape({"a": None})[0] != query_shape({"a": 0})[0]
        assert (query_shape({"a": {"$in": [1]}})[0]
                != query_shape({"a": {"$in": [1, 2]}})[0])


class TestTheCompiledShapeMemo:
    """``compile_shape`` answers a repeated shape from a process-wide memo."""

    @pytest.mark.parametrize("query_index", range(len(QUERIES)))
    def test_a_memoised_shape_is_a_fresh_compile(self, query_index):
        query = QUERIES[query_index]
        shape, params = query_shape(query)
        memoised = compile_shape(shape)
        assert compile_shape(shape) is memoised
        fresh = CompiledShape(shape)
        assert memoised.intervals(params) == fresh.intervals(params)
        for document in DOCUMENTS:
            assert (Matcher(memoised, params)(document)
                    == Matcher(fresh, params)(document)
                    == matches(document, query))


class TestErrorParity:
    @pytest.mark.parametrize("query", [
        {"$bogus": [{"a": 1}]},
        {"a": {"$bogus": 1}},
        {"a": {"$not": 5}},
        {"$and": "not-a-list"},
        {"$and": []},
    ])
    def test_invalid_queries_raise_like_matches(self, query):
        with pytest.raises(DocumentStoreError):
            matches({"a": 1}, query)
        with pytest.raises(DocumentStoreError):
            compile_query(query)
        with pytest.raises(DocumentStoreError):
            query_shape(query)

    @pytest.mark.parametrize("query", [
        {"a": {"$in": 5}},
        {"a": {"$in": "abc"}},
        {"a": {"$nin": None}},
        {"a": {"$all": "ab"}},
        {"a": {"$not": {"$in": {"b": 1}}}},
        {"$or": [{"b": 1}, {"a": {"$nin": 7}}]},
    ])
    def test_set_operators_need_an_array(self, query):
        """The reference iterates whatever it is given (a bare ``TypeError``
        once a document is examined, or a string's characters); the query
        language refuses a non-array operand before any document is read --
        also on an empty collection."""
        with pytest.raises(DocumentStoreError, match="needs an array"):
            compile_query(query)
        with pytest.raises(DocumentStoreError, match="needs an array"):
            query_shape(query)
        with pytest.raises(DocumentStoreError, match="needs an array"):
            Collection("empty", WiredTigerEngine()).find_with_cost(query)

    def test_a_router_refuses_it_on_the_shard_key_too(self):
        cluster = ShardedCluster(shards=2)
        handle = DocumentClient(cluster).collection("db", "c")
        try:
            for query in ({"_id": {"$in": 5}}, {"_id": {"$in": "k1"}}):
                with pytest.raises(DocumentStoreError, match="needs an array"):
                    handle.find_with_cost(query)
        finally:
            cluster.close()


scalar_values = st.one_of(
    st.none(), st.booleans(), st.integers(-9, 9),
    st.text(alphabet="abz", max_size=3),
)
field_values = st.one_of(scalar_values, st.lists(scalar_values, max_size=3))
documents = st.dictionaries(st.sampled_from(["a", "b", "c"]), field_values,
                            max_size=3)

comparison_conditions = st.one_of(
    scalar_values,
    st.fixed_dictionaries({"$eq": scalar_values}),
    st.fixed_dictionaries({"$ne": scalar_values}),
    st.fixed_dictionaries({"$gt": scalar_values}),
    st.fixed_dictionaries({"$gte": scalar_values, "$lte": scalar_values}),
    st.fixed_dictionaries({"$lt": scalar_values}),
    st.fixed_dictionaries({"$in": st.lists(scalar_values, max_size=3)}),
    st.fixed_dictionaries({"$nin": st.lists(scalar_values, max_size=3)}),
    st.fixed_dictionaries({"$exists": st.booleans()}),
    st.fixed_dictionaries({"$size": st.integers(0, 3)}),
    st.fixed_dictionaries({"$not": st.fixed_dictionaries({"$gt": scalar_values})}),
)
field_queries = st.dictionaries(st.sampled_from(["a", "b", "c"]),
                                comparison_conditions, min_size=1, max_size=2)
queries = st.one_of(
    field_queries,
    st.fixed_dictionaries({"$and": st.lists(field_queries, min_size=1, max_size=2)}),
    st.fixed_dictionaries({"$or": st.lists(field_queries, min_size=1, max_size=2)}),
    st.fixed_dictionaries({"$nor": st.lists(field_queries, min_size=1, max_size=2)}),
)


@settings(max_examples=300, deadline=None)
@given(documents, queries)
def test_property_compiled_equals_interpreted(document, query):
    assert compile_query(query)(document) == matches(document, query)


@settings(max_examples=150, deadline=None)
@given(documents, queries, queries)
def test_property_shape_rebinding_is_sound(document, first, second):
    """Whenever two random queries share a shape, the cached compiled form of
    one must evaluate the other exactly (the planner relies on this)."""
    first_shape, __ = query_shape(first)
    second_shape, second_params = query_shape(second)
    if first_shape != second_shape:
        return
    rebound = Matcher(compile_shape(first_shape), second_params)
    assert rebound(document) == matches(document, second)
