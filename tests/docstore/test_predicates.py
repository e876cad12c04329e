"""Tests for the predicate-analysis layer shared by planner and router.

The raw-query walk :func:`~tests.docstore.reference.query_intervals` is the
reference the interval analysis compiled from a query shape
(:func:`~repro.docstore.predicates.compile_intervals`) is checked against:
bound to a query's operands, the template must build exactly the interval
sets this walk builds from the query itself.
"""

from __future__ import annotations

from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.matching import ParsedQuery, query_shape
from repro.docstore.predicates import Interval, compile_intervals
from repro.docstore.values import order
from tests.docstore.reference import condition_intervals, matches, query_intervals


# -- the compiled template equals the reference ----------------------------------------

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                    st.floats(-3, 3), st.sampled_from(["", "a", "m"]))
OPERANDS = st.one_of(SCALARS, st.lists(SCALARS, max_size=2),
                     st.dictionaries(st.just("b"), SCALARS, max_size=1))
OPERATORS = st.one_of(
    st.tuples(st.sampled_from(["$eq", "$ne", "$gt", "$gte", "$lt", "$lte"]),
              OPERANDS),
    st.tuples(st.sampled_from(["$in", "$nin"]), st.lists(SCALARS, max_size=3)),
    st.tuples(st.just("$exists"), st.booleans()),
)
EXPRESSIONS = st.lists(st.one_of(
    OPERATORS,
    st.tuples(st.just("$not"), st.lists(OPERATORS, min_size=1, max_size=2).map(dict)),
), min_size=1, max_size=3).map(dict)
CLAUSES = st.dictionaries(st.sampled_from(["a", "b", "a.b"]),
                          st.one_of(OPERANDS, EXPRESSIONS), max_size=3)


@st.composite
def queries(draw, depth: int = 2) -> dict[str, Any]:
    query = draw(CLAUSES)
    if depth and draw(st.booleans()):
        logical = draw(st.sampled_from(["$and", "$and", "$or", "$nor"]))
        query[logical] = draw(st.lists(queries(depth - 1), min_size=1, max_size=2))
    return query


@settings(max_examples=150, deadline=None)
@given(queries(), queries())
def test_property_the_template_builds_the_reference_intervals(query, other):
    """``compile_intervals(shape)(params) == query_intervals(query)``, bound
    to the query the shape was read from and to any other of its shape."""
    shape, params = query_shape(query)
    assert compile_intervals(shape)(params) == query_intervals(query), query
    assert ParsedQuery(query).intervals == query_intervals(query)
    other_shape, other_params = query_shape(other)
    if other_shape == shape:
        assert compile_intervals(shape)(other_params) == query_intervals(other)


@pytest.mark.parametrize("query", [
    {"a": 5, "$and": [{"a": {"$in": [1, 5]}}, {"b": {"$gte": 1, "$lt": 9}}]},
    {"a": {"$in": [1, None]}, "b": {"$in": []}},
    {"a": True, "b": {"$gt": 1}, "c": {"$gte": False}},
    {"a": None, "b": {"$eq": None}, "c": {"$gt": None}},
    {"a": {"$gt": [1]}, "b": {"$lt": {"x": 1}}, "c": [1, 2]},
    {"$or": [{"a": 1}], "a": {"$not": {"$gt": 2}, "$lte": 4}},
])
def test_the_template_builds_the_reference_intervals(query):
    shape, params = query_shape(query)
    assert compile_intervals(shape)(params) == query_intervals(query)


@pytest.mark.parametrize("first, second", [
    ({"a": {"$gte": 1, "$lt": 9}}, {"a": {"$gte": 7, "$lt": 2}}),
    ({"a": {"$in": [1, 2]}, "b": 3}, {"a": {"$in": [8, 9]}, "b": 4}),
    ({"$and": [{"a": {"$gt": 1}}, {"a": {"$lt": 5}}]},
     {"$and": [{"a": {"$gt": 4}}, {"a": {"$lt": 5}}]}),
])
def test_a_template_binds_any_query_of_its_shape(first, second):
    shape, __ = query_shape(first)
    other_shape, params = query_shape(second)
    assert other_shape == shape
    assert compile_intervals(shape)(params) == query_intervals(second)


class TestOrderRank:
    def test_ranks_separate_types(self):
        ranks = [order(None)[0], order(True)[0], order(3)[0], order("x")[0]]
        assert ranks == sorted(ranks) and len(set(ranks)) == 4

    def test_bool_is_not_a_number(self):
        assert order(True)[0] != order(1)[0]

    def test_non_scalars_rank_after_scalars(self):
        assert order("zzz") < order({"a": 1}) < order([1])

    def test_ordered_keys_sort_across_types(self):
        keys = sorted([order("a"), order(5), order(False)])
        assert keys == [order(False), order(5), order("a")]


class TestInterval:
    def test_point_contains_only_its_value(self):
        point = Interval.point(5)
        assert point.is_point
        assert point.contains(5) and not point.contains(6)

    def test_half_open_contains(self):
        interval = Interval(low=1, low_inclusive=True, high=9)
        assert interval.contains(1) and interval.contains(8.5)
        assert not interval.contains(9) and not interval.contains(0)

    def test_contains_is_false_on_type_clash(self):
        assert not Interval(low=5, low_inclusive=True).contains("zzz")
        assert not Interval(low=5, low_inclusive=True).contains(None)

    def test_full_interval_contains_everything(self):
        assert Interval().contains(None) and Interval().contains([1, 2])

    def test_intersect_tightens_bounds(self):
        combined = Interval(low=1, low_inclusive=True).intersect(
            Interval(high=5, high_inclusive=True))
        assert combined == Interval(1, 5, True, True)

    def test_intersect_prefers_exclusive_on_ties(self):
        combined = Interval(low=3, low_inclusive=True).intersect(Interval(low=3))
        assert combined.low == 3 and not combined.low_inclusive

    def test_contradictory_intersection_is_empty(self):
        assert Interval(low=5).intersect(Interval(high=3)) is None
        assert Interval.point(2).intersect(Interval.point(3)) is None

    def test_mixed_type_intersection_is_empty(self):
        assert Interval(low=5).intersect(Interval(high="z")) is None

    def test_make_rejects_inverted_bounds(self):
        assert Interval.make(9, 1, True, True) is None
        assert Interval.make(1, 1, True, False) is None
        assert Interval.make(1, 9, False, False) is not None


class TestConditionIntervals:
    def test_plain_value_is_a_point(self):
        assert condition_intervals(5).point_values() == [5]

    def test_eq_operator(self):
        assert condition_intervals({"$eq": "x"}).point_values() == ["x"]

    def test_in_is_a_union_of_points(self):
        assert condition_intervals({"$in": [1, 2, 3]}).point_values() == [1, 2, 3]

    def test_empty_in_matches_nothing(self):
        assert condition_intervals({"$in": []}).is_empty

    def test_range_operators_build_one_interval(self):
        interval_set = condition_intervals({"$gte": 1, "$lt": 9})
        (interval,) = interval_set.intervals
        assert interval == Interval(1, 9, True, False)

    def test_contradictory_ranges_are_empty(self):
        assert condition_intervals({"$gt": 9, "$lt": 1}).is_empty

    def test_in_intersected_with_range_prunes_points(self):
        interval_set = condition_intervals({"$in": [1, 5, 9], "$gte": 5})
        assert interval_set.point_values() == [5, 9]

    def test_conjoined_point_sets_are_not_intersected(self):
        # {"a": [1, 5]} satisfies {"$eq": 1, "$in": [5]} through different
        # array elements, so point sets must not cancel each other out.
        interval_set = condition_intervals({"$eq": 1, "$in": [5, 9]})
        assert interval_set.point_values() == [1]  # the smaller operand, kept

    def test_and_of_point_constraints_stays_satisfiable(self):
        constraints = query_intervals({"$and": [{"a": 1}, {"a": 5}]})
        assert constraints["a"].point_values() == [1]

    def test_the_merge_order_is_the_index_order(self):
        # The router's limited multi-shard merge sorts by ``order``; it must
        # order values exactly as the ordered index emits them.
        from repro.docstore.indexes import SecondaryIndex

        values = [None, False, True, -3, 0, 2.5, 7, "", "a", "z"]
        index = SecondaryIndex("a")
        for position, value in enumerate(values):
            index.add(f"r{position}", {"a": value})
        emitted = [values[int(record_id[1:])] for record_id in index.iter_ordered()]
        assert emitted == sorted(values, key=order)

    def test_none_equality_is_unanalyzable(self):
        # {"a": None} also matches documents missing "a": no index can serve it.
        assert condition_intervals(None) is None
        assert condition_intervals({"$eq": None}) is None
        assert condition_intervals({"$in": [1, None]}) is None

    def test_unrepresentable_operators_add_no_constraint(self):
        assert condition_intervals({"$ne": 5}) is None
        assert condition_intervals({"$exists": True}) is None
        interval_set = condition_intervals({"$gte": 1, "$ne": 3})
        (interval,) = interval_set.intervals
        assert interval.low == 1 and interval.high is None

    def test_range_with_unorderable_operand_is_unsatisfiable(self):
        assert condition_intervals({"$gt": None}).is_empty
        assert condition_intervals({"$gt": [1, 2]}).is_empty


class TestQueryIntervals:
    def test_multiple_fields(self):
        constraints = query_intervals({"a": 5, "b": {"$lt": 3}})
        assert constraints["a"].point_values() == [5]
        assert constraints["b"].intervals[0].high == 3

    def test_and_branches_intersect(self):
        constraints = query_intervals(
            {"$and": [{"a": {"$gte": 1}}, {"a": {"$lte": 9}}]})
        (interval,) = constraints["a"].intervals
        assert interval == Interval(1, 9, True, True)

    def test_top_level_and_and_field_combine(self):
        constraints = query_intervals({"a": {"$gte": 5}, "$and": [{"a": {"$lt": 7}}]})
        (interval,) = constraints["a"].intervals
        assert interval == Interval(5, 7, True, False)

    def test_or_contributes_nothing(self):
        assert query_intervals({"$or": [{"a": 1}, {"a": 2}]}) == {}

    def test_matching_scalars_always_fall_in_the_intervals(self):
        """The over-approximation property the planner and router rely on.

        Restricted to scalar document values: array values are matched
        element-wise by ``matches()`` and served by the multikey hash
        entries of the ordered index, not by interval containment.
        """
        import random

        rng = random.Random(11)
        values = [None, True, False, -3, 0, 2, 7.5, "a", "m", "z", [1, "a"]]
        operators = ["$eq", "$gt", "$gte", "$lt", "$lte", "$in", "$ne"]
        for __ in range(500):
            field = rng.choice(["a", "b"])
            operator = rng.choice(operators)
            operand = (rng.sample(values, 2) if operator == "$in"
                       else rng.choice(values))
            query = {field: {operator: operand}}
            constraints = query_intervals(query)
            if field not in constraints:
                continue
            for value in values:
                document = {field: value} if value is not None else {}
                try:
                    matched = matches(document, query)
                except Exception:
                    continue
                if matched and isinstance(value, (bool, int, float, str)):
                    assert constraints[field].contains(value), (query, value)
