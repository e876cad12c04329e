"""Predicate analysis: normalising filters into per-field interval constraints.

This is the layer the query planner and the shard router share.  A
MongoDB-style filter is decomposed into *interval sets* per field path:

* ``{"a": 5}`` / ``{"a": {"$eq": 5}}``  -> the point interval ``[5, 5]``,
* ``{"a": {"$in": [1, 2]}}``            -> a union of point intervals,
* ``{"a": {"$gte": 1, "$lt": 9}}``      -> the half-open interval ``[1, 9)``,
* ``{"$and": [...]}``                   -> the per-field intersection of the
  sub-queries' constraints.

The result deliberately **over-approximates**: every document matching the
query has its field value inside the field's interval set, but not every
value inside the set matches (operators such as ``$ne``/``$nin``/``$not``
contribute no constraint).  Callers therefore always re-check candidates
with a compiled matcher (:func:`repro.docstore.matching.compile_query`); the
analysis only narrows *where to look* -- which index entries to scan, which
shards to contact.

Constraints that would also match documents *missing* the field (equality
with ``None``) are reported as unanalyzable (the field is absent from the
result): indexes and shard routing only ever see documents that carry the
field, so using them for such predicates would silently drop matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.docstore.matching import is_operator_expression

# Type ranks giving mixed-type values a total order (mirrors the comparability
# rules of matching._comparable: bools only compare with bools, numbers with
# numbers, strings with strings).  Rank 0 is None; non-scalars have no rank.
_RANK_NONE = 0
_RANK_BOOL = 1
_RANK_NUMBER = 2
_RANK_STRING = 3


def scalar_rank(value: Any) -> int | None:
    """The ordering rank of ``value``, or None for non-orderable values."""
    if value is None:
        return _RANK_NONE
    if isinstance(value, bool):
        return _RANK_BOOL
    if isinstance(value, (int, float)):
        return _RANK_NUMBER
    if isinstance(value, str):
        return _RANK_STRING
    return None


def ordered_key(value: Any) -> tuple:
    """A composite sort key ``(rank, value)`` usable as an ordered-index key.

    Only call for values with a rank (``scalar_rank(value) is not None``).
    """
    return (scalar_rank(value), value)


@dataclass(frozen=True)
class Interval:
    """One contiguous interval of field values.

    ``None`` bounds mean unbounded on that side; the default instance is the
    full interval.  A point is ``Interval.point(v)``.  Because ``None`` is
    the "unbounded" marker, ``None`` is never a legal bound *value* --
    equality-with-None predicates are unanalyzable (see module docstring).
    """

    low: Any = None
    high: Any = None
    low_inclusive: bool = False
    high_inclusive: bool = False

    @classmethod
    def point(cls, value: Any) -> "Interval":
        return cls(value, value, True, True)

    @classmethod
    def make(cls, low: Any, high: Any, low_inclusive: bool,
             high_inclusive: bool) -> "Interval | None":
        """Build an interval, returning None when it is provably empty."""
        if low is not None and high is not None:
            low_rank, high_rank = scalar_rank(low), scalar_rank(high)
            if (low_rank is None or high_rank is None or low_rank != high_rank):
                # Bounds that are not order-comparable (arrays, sub-documents,
                # mixed types) can only survive as an equality point, which
                # still over-approximates pairs like [True, 1].
                try:
                    equal = bool(low == high)
                except TypeError:
                    equal = False
                if equal and low_inclusive and high_inclusive:
                    return cls(low, high, True, True)
                return None
            try:
                if low > high:
                    return None
                if low == high and not (low_inclusive and high_inclusive):
                    return None
            except TypeError:
                return None
        return cls(low, high, low_inclusive, high_inclusive)

    @property
    def is_full(self) -> bool:
        return self.low is None and self.high is None

    @property
    def is_point(self) -> bool:
        return (self.low is not None and self.low_inclusive
                and self.high_inclusive and self.low == self.high)

    @property
    def rank(self) -> int | None:
        """The type rank of this interval's bounds (None for the full interval
        or bounds that are not orderable scalars)."""
        bound = self.low if self.low is not None else self.high
        if bound is None:
            return None
        return scalar_rank(bound)

    def contains(self, value: Any) -> bool:
        """True when ``value`` lies inside the interval (False on type clash)."""
        try:
            if self.low is not None:
                if value < self.low:
                    return False
                if value == self.low and not self.low_inclusive:
                    return False
            if self.high is not None:
                if value > self.high:
                    return False
                if value == self.high and not self.high_inclusive:
                    return False
        except TypeError:
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval | None":
        """The intersection, or None when it is empty."""
        try:
            low, low_inclusive = _tighter_low(
                (self.low, self.low_inclusive), (other.low, other.low_inclusive))
            high, high_inclusive = _tighter_high(
                (self.high, self.high_inclusive), (other.high, other.high_inclusive))
        except TypeError:
            return None  # incomparable bound types: no value satisfies both
        return Interval.make(low, high, low_inclusive, high_inclusive)

    def describe(self) -> str:
        left = "[" if self.low_inclusive else "("
        right = "]" if self.high_inclusive else ")"
        low = "-inf" if self.low is None else repr(self.low)
        high = "+inf" if self.high is None else repr(self.high)
        return f"{left}{low}, {high}{right}"


def _tighter_low(first: tuple[Any, bool], second: tuple[Any, bool]) -> tuple[Any, bool]:
    (a, a_inclusive), (b, b_inclusive) = first, second
    if a is None:
        return b, b_inclusive
    if b is None:
        return a, a_inclusive
    if a == b:
        return a, a_inclusive and b_inclusive  # exclusive is the tighter bound
    return (a, a_inclusive) if a > b else (b, b_inclusive)


def _tighter_high(first: tuple[Any, bool], second: tuple[Any, bool]) -> tuple[Any, bool]:
    (a, a_inclusive), (b, b_inclusive) = first, second
    if a is None:
        return b, b_inclusive
    if b is None:
        return a, a_inclusive
    if a == b:
        return a, a_inclusive and b_inclusive
    return (a, a_inclusive) if a < b else (b, b_inclusive)


@dataclass(frozen=True)
class IntervalSet:
    """A union of intervals constraining one field (empty tuple = unsatisfiable)."""

    intervals: tuple[Interval, ...]

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls((Interval(),))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def points(cls, values: list[Any]) -> "IntervalSet":
        return cls(tuple(Interval.point(value) for value in values))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def is_full(self) -> bool:
        return any(interval.is_full for interval in self.intervals)

    def point_values(self) -> list[Any] | None:
        """The values when every interval is a point, else None."""
        if self.is_empty:
            return []
        if all(interval.is_point for interval in self.intervals):
            return [interval.low for interval in self.intervals]
        return None

    def contains(self, value: Any) -> bool:
        return any(interval.contains(value) for interval in self.intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        pieces = []
        for mine in self.intervals:
            for theirs in other.intervals:
                combined = mine.intersect(theirs)
                if combined is not None:
                    pieces.append(combined)
        return IntervalSet(tuple(pieces))

    def conjoin(self, other: "IntervalSet") -> "IntervalSet":
        """A sound constraint for the *conjunction* of two predicates.

        Intersecting two point-style sets is unsound for array (multikey)
        values: ``{"a": [1, 5]}`` satisfies both ``{"a": 1}`` and
        ``{"a": 5}`` through different elements, yet ``{1} ∩ {5}`` is empty.
        For that shape keep the smaller operand unchanged -- each operand
        alone over-approximates the conjunction, and multikey hash lookups
        are exact for point constraints.  Every other combination involves a
        range, which no array value can match, so true interval intersection
        is sound there.
        """
        if self.is_empty or other.is_empty:
            return IntervalSet.empty()
        if (self.point_values() is not None and not self.is_full
                and other.point_values() is not None and not other.is_full):
            return self if len(self.intervals) <= len(other.intervals) else other
        return self.intersect(other)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def describe(self) -> list[str]:
        return [interval.describe() for interval in self.intervals]


def query_intervals(query: dict[str, Any]) -> dict[str, IntervalSet]:
    """Per-field interval constraints implied by a conjunctive query.

    Only top-level field predicates and ``$and`` branches contribute
    (``$or``/``$nor`` cannot narrow a single field conjunctively).  Fields
    whose predicates cannot be represented as intervals are absent from the
    result; an *empty* interval set means the query provably matches nothing.
    """
    constraints: dict[str, IntervalSet] = {}
    for key, condition in query.items():
        if key == "$and":
            if not isinstance(condition, list):
                continue  # query_shape rejects this shape
            for sub_query in condition:
                if not isinstance(sub_query, dict):
                    continue
                for field_path, interval_set in query_intervals(sub_query).items():
                    _merge(constraints, field_path, interval_set)
        elif key.startswith("$"):
            continue
        else:
            interval_set = condition_intervals(condition)
            if interval_set is not None:
                _merge(constraints, key, interval_set)
    return constraints


def condition_intervals(condition: Any) -> IntervalSet | None:
    """The interval set of one field condition, or None when unanalyzable."""
    if is_operator_expression(condition):
        result = IntervalSet.full()
        constrained = False
        for operator, operand in condition.items():
            piece = _operator_intervals(operator, operand)
            if piece is None:
                continue  # operator contributes no representable constraint
            constrained = True
            result = result.conjoin(piece)
            if result.is_empty:
                return result
        return result if constrained else None
    if condition is None:
        return None  # {"a": None} also matches documents missing "a"
    return IntervalSet((Interval.point(condition),))


def _operator_intervals(operator: str, operand: Any) -> IntervalSet | None:
    if operator == "$eq":
        if operand is None:
            return None
        return IntervalSet((Interval.point(operand),))
    if operator == "$in":
        if not isinstance(operand, (list, tuple)):
            return None
        if any(value is None for value in operand):
            return None  # $in [None, ...] also matches missing fields
        return IntervalSet.points(list(operand))
    if operator in ("$gt", "$gte", "$lt", "$lte"):
        if scalar_rank(operand) in (None, _RANK_NONE):
            # No stored value is order-comparable with None/lists/dicts, so
            # the predicate is unsatisfiable (mirrors matching._comparable).
            return IntervalSet.empty()
        if operator == "$gt":
            return IntervalSet((Interval(low=operand),))
        if operator == "$gte":
            return IntervalSet((Interval(low=operand, low_inclusive=True),))
        if operator == "$lt":
            return IntervalSet((Interval(high=operand),))
        return IntervalSet((Interval(high=operand, high_inclusive=True),))
    return None  # $ne / $nin / $exists / $size / $all / $not


def _merge(constraints: dict[str, IntervalSet], field_path: str,
           interval_set: IntervalSet) -> None:
    existing = constraints.get(field_path)
    constraints[field_path] = (interval_set if existing is None
                               else existing.conjoin(interval_set))
