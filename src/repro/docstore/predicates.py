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

The analysis never reads a raw filter.  A filter is parsed once, by
:func:`~repro.docstore.matching.query_shape` -- on a sharded cluster by the
router, on the calling thread -- and :func:`compile_intervals` compiles the
shape it returns into a template of the operands: once per shape and process
(:func:`~repro.docstore.matching.compile_shape`'s
:class:`~repro.docstore.codegen.BoundedMemo`), bound to the
operands of each query (a :class:`~repro.docstore.matching.ParsedQuery` binds
it when the filter is parsed, a warm plan of a raw query when it is planned).
The raw-query walk this replaced is the reference of its tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Iterator

from repro.docstore.values import RANK_BOOL, RANK_NUMBER, RANK_STRING, order


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
            low_key, high_key = order(low), order(high)
            # Bounds of two ranks hold no value between them (a range
            # compares a value with an operand of its own rank only).
            if low_key[0] != high_key[0] or low_key > high_key:
                return None
            if low_key == high_key and not (low_inclusive and high_inclusive):
                return None
        return cls(low, high, low_inclusive, high_inclusive)

    @property
    def is_full(self) -> bool:
        return self.low is None and self.high is None

    @property
    def is_point(self) -> bool:
        low, high = self.low, self.high
        return (low is not None and self.low_inclusive and self.high_inclusive
                and (low is high or order(low) == order(high)))

    @property
    def rank(self) -> int | None:
        """The :func:`~repro.docstore.values.order` rank of this interval's
        bounds (None for the full interval)."""
        bound = self.low if self.low is not None else self.high
        if bound is None:
            return None
        return order(bound)[0]

    def contains(self, value: Any) -> bool:
        """True when ``value`` lies inside the interval (never when a bound
        is of another :func:`~repro.docstore.values.order` rank)."""
        position = order(value)
        if self.low is not None:
            low = order(self.low)
            if (position[0] != low[0] or position < low
                    or (position == low and not self.low_inclusive)):
                return False
        if self.high is not None:
            high = order(self.high)
            if (position[0] != high[0] or position > high
                    or (position == high and not self.high_inclusive)):
                return False
        return True

    def intersect(self, other: "Interval") -> "Interval | None":
        """The intersection, or None when it is empty (two ranks share no
        value)."""
        if self.rank is not None and other.rank is not None and (
                self.rank != other.rank):
            return None
        low, low_inclusive = _tighter((self.low, self.low_inclusive),
                                      (other.low, other.low_inclusive), max)
        high, high_inclusive = _tighter((self.high, self.high_inclusive),
                                        (other.high, other.high_inclusive), min)
        return Interval.make(low, high, low_inclusive, high_inclusive)

    def describe(self) -> str:
        left = "[" if self.low_inclusive else "("
        right = "]" if self.high_inclusive else ")"
        low = "-inf" if self.low is None else repr(self.low)
        high = "+inf" if self.high is None else repr(self.high)
        return f"{left}{low}, {high}{right}"


def _tighter(first: tuple[Any, bool], second: tuple[Any, bool],
             pick: Callable) -> tuple[Any, bool]:
    """The tighter of two bounds of one side: ``pick`` (``max`` for low
    bounds, ``min`` for high ones) by :func:`~repro.docstore.values.order`,
    an unbounded side (``None``) yielding to any bound, and of two equal
    bounds the exclusive one."""
    (a, a_inclusive), (b, b_inclusive) = first, second
    if a is None:
        return second
    if b is None:
        return first
    if order(a) == order(b):
        return a, a_inclusive and b_inclusive
    return pick(first, second, key=lambda bound: order(bound[0]))


@dataclass(frozen=True)
class IntervalSet:
    """A union of intervals constraining one field (empty tuple = unsatisfiable)."""

    intervals: tuple[Interval, ...]

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


# -- the interval analysis of a query shape ----------------------------------------

#: Intervals of a query: ``params -> {field path: IntervalSet}``.
IntervalTemplate = Callable[[list[Any]], dict[str, IntervalSet]]
_Piece = Callable[[list[Any]], IntervalSet]
#: ``(field path, piece)``, or ``(None, the bound template of an $and branch)``.
_Clause = tuple[str | None, Callable[[list[Any]], Any]]

_LOGICAL = ("$and", "$or", "$nor")
#: The rank a range operand's shape marker stands for, the matcher's and the
#: analysis's: a value is ranged only against an operand of its own rank, a
#: bool, a number or a string -- a range over ``None``, an array or a
#: sub-document is unsatisfiable.
RANGE_RANKS = {"b": RANK_BOOL, "#": RANK_NUMBER, "s": RANK_STRING}
_EMPTY = IntervalSet(())
#: The range operators: which bound each sets, and whether it is inclusive.
_RANGES = {"$gt": ("low", False), "$gte": ("low", True),
           "$lt": ("high", False), "$lte": ("high", True)}


def compile_intervals(shape: tuple) -> IntervalTemplate:
    """The interval analysis of a :func:`~repro.docstore.matching.query_shape`
    shape: ``compile_intervals(shape)(params)`` is the per-field constraint
    of the query that shape and ``params`` were read from.

    Only top-level field clauses and ``$and`` branches contribute (``$or`` /
    ``$nor`` cannot narrow a single field conjunctively); several clauses on
    one field are conjoined (:meth:`IntervalSet.conjoin`) in walk order.  A
    field whose clauses cannot be represented as intervals is absent; an
    *empty* set means the query provably matches nothing.  The shape's
    markers decide everything but the bounds: which operator contributes a
    point, a point set or a range; that equality with ``None`` (marker ``n``,
    or an ``$in`` holding ``None``) is unanalyzable; and that a range on an
    unorderable operand is empty.  Slots are taken in the walk order of
    ``query_shape``, so operand ``i`` is ``params[i]``.
    """
    return _bind(_clauses(shape, count()))


def _clauses(shape: tuple, slots: Iterator[int]) -> list[_Clause]:
    """One clause per analysable field clause and per ``$and`` branch; every
    operand's slot is taken, used or not."""
    clauses: list[_Clause] = []
    for clause in shape:
        if clause[0] in _LOGICAL:
            operator, branches = clause
            compiled = [_clauses(branch, slots) for branch in branches]
            if operator == "$and":
                clauses.extend((None, _bind(branch)) for branch in compiled)
        elif clause[1] == "eq":
            slot = next(slots)
            if clause[2] != "n":  # {"a": None} also matches a missing "a"
                clauses.append((clause[0], _point(slot)))
        else:
            pieces = _pieces(clause[2], slots)
            if pieces:
                clauses.append((clause[0], pieces[0] if len(pieces) == 1
                                else _conjunction(pieces)))
    return clauses


def _pieces(operators: tuple, slots: Iterator[int]) -> list[_Piece]:
    """The constraint each operator of one field clause contributes (``$ne``,
    ``$nin``, ``$exists``, ``$size``, ``$all`` and ``$not`` contribute none)."""
    pieces: list[_Piece] = []
    for operator, marker in operators:
        if operator == "$not":
            _pieces(marker, slots)  # its operands' slots are taken all the same
            continue
        slot = next(slots)
        if operator == "$eq":
            if marker != "n":
                pieces.append(_point(slot))
        elif operator == "$in":
            if not marker[1]:  # an $in holding None also matches a missing field
                pieces.append(_points(slot))
        elif operator in _RANGES:
            pieces.append(_range(operator, slot) if marker in RANGE_RANKS
                          else lambda params: _EMPTY)
    return pieces


def _point(slot: int) -> _Piece:
    def point(params: list[Any]) -> IntervalSet:
        return IntervalSet((Interval.point(params[slot]),))
    return point


def _points(slot: int) -> _Piece:
    def points(params: list[Any]) -> IntervalSet:
        return IntervalSet.points(params[slot])
    return points


def _range(operator: str, slot: int) -> _Piece:
    side, inclusive = _RANGES[operator]
    if side == "low":
        def low(params: list[Any]) -> IntervalSet:
            return IntervalSet((Interval(params[slot], None, inclusive, False),))
        return low

    def high(params: list[Any]) -> IntervalSet:
        return IntervalSet((Interval(None, params[slot], False, inclusive),))
    return high



def _conjunction(pieces: list[_Piece]) -> _Piece:
    def conjunction(params: list[Any]) -> IntervalSet:
        result = pieces[0](params)
        for piece in pieces[1:]:
            if result.is_empty:
                break
            result = result.conjoin(piece(params))
        return result
    return conjunction


def _bind(clauses: list[_Clause]) -> IntervalTemplate:
    def bind(params: list[Any]) -> dict[str, IntervalSet]:
        constraints: dict[str, IntervalSet] = {}
        for field_path, piece in clauses:
            if field_path is None:  # an $and branch, conjoined field by field
                for branch_path, interval_set in piece(params).items():
                    _merge(constraints, branch_path, interval_set)
            else:
                _merge(constraints, field_path, piece(params))
        return constraints
    return bind


def _merge(constraints: dict[str, IntervalSet], field_path: str,
           interval_set: IntervalSet) -> None:
    existing = constraints.get(field_path)
    constraints[field_path] = (interval_set if existing is None
                               else existing.conjoin(interval_set))
