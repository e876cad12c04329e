"""Tests for the predicate-analysis layer shared by planner and router."""

from __future__ import annotations

import pytest

from repro.docstore.predicates import (
    Interval,
    IntervalSet,
    condition_intervals,
    ordered_key,
    query_intervals,
    scalar_rank,
)


class TestScalarRank:
    def test_ranks_separate_types(self):
        ranks = [scalar_rank(None), scalar_rank(True), scalar_rank(3),
                 scalar_rank("x")]
        assert ranks == sorted(ranks) and len(set(ranks)) == 4

    def test_bool_is_not_a_number(self):
        assert scalar_rank(True) != scalar_rank(1)

    def test_non_scalars_have_no_rank(self):
        assert scalar_rank([1]) is None
        assert scalar_rank({"a": 1}) is None

    def test_ordered_keys_sort_across_types(self):
        keys = sorted([ordered_key("a"), ordered_key(5), ordered_key(False)])
        assert keys == [ordered_key(False), ordered_key(5), ordered_key("a")]


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

    def test_sort_key_agrees_with_ordered_key(self):
        # The router's limited multi-shard merge (cursor.sort_key) must order
        # values exactly as the ordered index emits them (ordered_key).
        from repro.docstore.cursor import sort_key

        values = [None, False, True, -3, 0, 2.5, 7, "", "a", "z"]
        assert (sorted(values, key=sort_key)
                == sorted(values, key=ordered_key))

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

        from tests.docstore.test_matching import matches

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
                if matched and value is not None and scalar_rank(value) is not None:
                    assert constraints[field].contains(value), (query, value)
