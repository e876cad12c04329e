"""Query matching: a MongoDB-style filter language.

Supports the operator subset exercised by the YCSB-style benchmark client and
the integration tests:

* implicit equality (``{"a": 1}``), dotted paths (``{"a.b": 1}``),
* comparison operators ``$eq``, ``$ne``, ``$gt``, ``$gte``, ``$lt``, ``$lte``,
  ``$in``, ``$nin``, ``$exists``,
* logical operators ``$and``, ``$or``, ``$not``, ``$nor``,
* array matching: a filter value matches if the field equals it or if any
  array element equals it (an array operand only matches the whole field),
  plus ``$size`` and ``$all``.

A filter is read once.  :func:`query_shape` is the one walk of a raw query:
it validates it and splits it into a hashable *shape* -- structure, field
paths, operators, operand type ranks -- and its operand values, ``params``,
in walk order.  :func:`compile_shape` turns a shape into a
:class:`CompiledShape`: closures that read operand ``i`` from ``params[i]``
(it walks the shape in the order the params were taken, so every slot is its
operand by construction, and it validates nothing) and the filter's interval
analysis (:func:`~repro.docstore.predicates.compile_intervals`).  A shape is
compiled once per process: repeats are answered from a bounded memo.  A
:class:`Matcher` binds a compiled shape to one query's params;
:func:`compile_query` does both for one query.  Evaluating a matcher skips
all dict re-interpretation, operator dispatch and path splitting on the
per-document hot path.

Where a filter is parsed: a single server's planner reads a raw query with
:func:`query_shape` and keeps the compiled shape in its plan cache; a
sharded cluster's router reads it once, as a :class:`ParsedQuery`, targets
the shards with its intervals and hands every shard that parse, which the
shard binds without walking the filter again.

The per-document interpreter the compiled form is checked against lives with
its tests (``tests/docstore/test_matching.py``): the brute-force reference of
every differential suite.
"""

from __future__ import annotations

import threading
from itertools import count
from typing import Any, Callable, Iterator

from repro.docstore.documents import get_path
from repro.docstore.observability import _SHAPES_LIMIT
from repro.docstore.predicates import IntervalSet, compile_intervals
from repro.errors import DocumentStoreError

_COMPARISON_OPERATORS = {
    "$eq",
    "$ne",
    "$gt",
    "$gte",
    "$lt",
    "$lte",
    "$in",
    "$nin",
    "$exists",
    "$size",
    "$all",
    "$not",
}
_LOGICAL_OPERATORS = {"$and", "$or", "$nor"}
_ARRAY_OPERATORS = {"$in", "$nin", "$all"}


def is_operator_expression(condition: Any) -> bool:
    """True when ``condition`` is an operator document such as ``{"$gt": 5}``."""
    return isinstance(condition, dict) and any(
        key.startswith("$") for key in condition
    )


def _values_equal(found: bool, value: Any, expected: Any) -> bool:
    if not found:
        return expected is None
    if _scalar_equal(value, expected):
        return True
    if isinstance(value, list) and not isinstance(expected, list):
        return any(_scalar_equal(item, expected) for item in value)
    return False


def _scalar_equal(left: Any, right: Any) -> bool:
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    return left == right


def _comparable(left: Any, right: Any) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return True
    return isinstance(left, str) and isinstance(right, str)


# -- the shape: the one walk of a raw query ---------------------------------------


def query_shape(query: dict[str, Any]) -> tuple[tuple, list[Any]]:
    """Validate ``query`` and return ``(shape, params)``.

    The shape is hashable and captures everything planning and compilation
    depend on -- structure, field paths, operators, and the type rank of each
    operand (plan choice is rank-sensitive: ``$gt 5`` is a range scan while
    ``$gt [5]`` is provably empty).  Its clauses are ``(path, "eq", marker)``,
    ``(path, "ops", ((operator, marker) | ("$not", inner), ...))`` and
    ``(logical operator, (branch shape, ...))``.  ``params`` are the operand
    values in walk order, ready to bind :func:`compile_shape`'s predicates
    for this exact query.
    """
    if not isinstance(query, dict):
        raise DocumentStoreError("queries must be dictionaries")
    params: list[Any] = []
    return _shape_clauses(query, params), params


def _value_marker(value: Any) -> Any:
    """The shape placeholder of one operand value (its planning-relevant type)."""
    if value is None:
        return "n"
    if isinstance(value, bool):
        return "b"
    if isinstance(value, (int, float)):
        return "#"
    if isinstance(value, str):
        return "s"
    if isinstance(value, (list, tuple)):
        return "L"
    return "D"


def _sequence_marker(operand: list | tuple) -> Any:
    """Shape placeholder for ``$in``/``$nin`` operands: planning cares whether
    the operand contains ``None`` and whether it is a single point (a
    one-element ``$in`` on ``_id`` is an id lookup)."""
    return ("seq", any(value is None for value in operand), len(operand) == 1)


def _shape_clauses(query: dict[str, Any], params: list[Any]) -> tuple:
    parts: list[Any] = []
    for key, condition in query.items():
        if key in _LOGICAL_OPERATORS:
            if not isinstance(condition, list) or not condition:
                raise DocumentStoreError(
                    f"{key} expects a non-empty list of queries"
                )
            branches = []
            for sub in condition:
                if not isinstance(sub, dict):
                    raise DocumentStoreError("queries must be dictionaries")
                branches.append(_shape_clauses(sub, params))
            parts.append((key, tuple(branches)))
        elif key.startswith("$"):
            raise DocumentStoreError(f"unknown top-level operator {key!r}")
        elif is_operator_expression(condition):
            parts.append((key, "ops", _shape_operators(condition, params)))
        else:
            params.append(condition)
            parts.append((key, "eq", _value_marker(condition)))
    return tuple(parts)


def _shape_operators(condition: dict[str, Any], params: list[Any]) -> tuple:
    parts: list[Any] = []
    for operator, operand in condition.items():
        if operator not in _COMPARISON_OPERATORS:
            raise DocumentStoreError(f"unknown query operator {operator!r}")
        if operator == "$not":
            if not isinstance(operand, dict):
                raise DocumentStoreError("$not expects an operator expression")
            parts.append(("$not", _shape_operators(operand, params)))
            continue
        if operator in _ARRAY_OPERATORS and not isinstance(operand, (list, tuple)):
            raise DocumentStoreError(f"{operator} needs an array, not {operand!r}")
        params.append(operand)
        if operator in ("$in", "$nin"):
            parts.append((operator, _sequence_marker(operand)))
        else:
            parts.append((operator, _value_marker(operand)))
    return tuple(parts)


# -- compiling a shape -------------------------------------------------------------

_Predicate = Callable[[dict, list], bool]
_OpTest = Callable[[bool, Any, list], bool]


class CompiledShape:
    """What a :func:`query_shape` shape compiles to: its ``predicates``, the
    tests a :class:`Matcher` runs against a document, and ``intervals``,
    its interval analysis (``intervals(params)``: per field path, the
    :class:`~repro.docstore.predicates.IntervalSet` of the query)."""

    __slots__ = ("predicates", "intervals")

    def __init__(self, shape: tuple):
        self.predicates = _compile_clauses(shape, count())
        self.intervals = compile_intervals(shape)


class Matcher:
    """Compiled predicates bound to concrete operand values: ``matcher(doc)``."""

    __slots__ = ("predicates", "params")

    def __init__(self, compiled: CompiledShape, params: list[Any]):
        self.predicates = compiled.predicates
        self.params = params

    def __call__(self, document: dict[str, Any]) -> bool:
        params = self.params
        for predicate in self.predicates:
            if not predicate(document, params):
                return False
        return True


class ParsedQuery:
    """A filter read once: what a router hands its shards in place of the
    raw query, so that no shard walks it again.

    ``raw`` is the query as given (what a profiler span renders), ``shape``
    and ``params`` what :func:`query_shape` read from it, ``compiled`` the
    shape's :class:`CompiledShape`, ``matcher`` that bound to ``params`` and
    ``intervals`` the filter's per-field interval analysis.  Immutable once
    built: the shards of one operation share it across threads.
    """

    __slots__ = ("raw", "shape", "params", "compiled", "matcher", "intervals")

    def __init__(self, query: dict[str, Any]):
        self.raw = query
        self.shape, self.params = query_shape(query)
        self.compiled = compile_shape(self.shape)
        self.matcher = Matcher(self.compiled, self.params)
        self.intervals: dict[str, IntervalSet] = self.compiled.intervals(
            self.params)


def compile_query(query: dict[str, Any] | ParsedQuery) -> Matcher:
    """A matcher of ``query`` bound to its own operands (a parsed query's is
    the one it holds)."""
    if type(query) is ParsedQuery:
        return query.matcher
    shape, params = query_shape(query)
    return Matcher(compile_shape(shape), params)


#: Compiled shapes by shape, shared by every planner, router and pipeline of
#: the process, as many as the profiler's memo of rendered shapes holds (one
#: entry per filter shape either way) and cleared wholesale when full.
_COMPILED: dict[tuple, CompiledShape] = {}
_COMPILED_LIMIT = _SHAPES_LIMIT
_COMPILED_LOCK = threading.Lock()


def compile_shape(shape: tuple) -> CompiledShape:
    """The :class:`CompiledShape` of a :func:`query_shape` shape: the
    operand a predicate tests is ``params[slot]``, its slot the next one in
    walk order.  Compiled once per process; a repeat is a memo lookup.
    """
    compiled = _COMPILED.get(shape)
    if compiled is None:
        compiled = CompiledShape(shape)
        with _COMPILED_LOCK:
            if len(_COMPILED) >= _COMPILED_LIMIT:
                _COMPILED.clear()
            _COMPILED[shape] = compiled
    return compiled


def _compile_clauses(shape: tuple, slots: Iterator[int]) -> tuple[_Predicate, ...]:
    predicates: list[_Predicate] = []
    for clause in shape:
        if clause[0] in _LOGICAL_OPERATORS:
            operator, branches = clause
            predicates.append(_compile_logical(
                operator, [_compile_clauses(branch, slots) for branch in branches]))
        elif clause[1] == "eq":
            predicates.append(_compile_eq(clause[0], next(slots)))
        else:
            predicates.append(_compile_field(
                clause[0], _compile_operators(clause[2], slots)))
    return tuple(predicates)


def _compile_logical(operator: str,
                     branches: list[tuple[_Predicate, ...]]) -> _Predicate:
    if operator == "$and":
        def test_and(document: dict, params: list) -> bool:
            for branch in branches:
                for predicate in branch:
                    if not predicate(document, params):
                        return False
            return True
        return test_and
    if operator == "$or":
        def test_or(document: dict, params: list) -> bool:
            for branch in branches:
                if all(predicate(document, params) for predicate in branch):
                    return True
            return False
        return test_or

    def test_nor(document: dict, params: list) -> bool:
        for branch in branches:
            if all(predicate(document, params) for predicate in branch):
                return False
        return True
    return test_nor


def _compile_resolver(path: str) -> Callable[[dict], tuple[bool, Any]]:
    """Pre-split the dotted path once; single-segment paths skip the walk."""
    if "." not in path:
        missing = _MISSING

        def resolve_flat(document: dict) -> tuple[bool, Any]:
            value = document.get(path, missing)
            if value is missing:
                return False, None
            return True, value
        return resolve_flat

    def resolve_nested(document: dict) -> tuple[bool, Any]:
        return get_path(document, path)
    return resolve_nested


_MISSING = object()


def _compile_field(path: str, tests: list[_OpTest]) -> _Predicate:
    resolve = _compile_resolver(path)
    if len(tests) == 1:
        only = tests[0]

        def predicate_single(document: dict, params: list) -> bool:
            found, value = resolve(document)
            return only(found, value, params)
        return predicate_single

    def predicate_ops(document: dict, params: list) -> bool:
        found, value = resolve(document)
        for test in tests:
            if not test(found, value, params):
                return False
        return True
    return predicate_ops


def _compile_eq(path: str, slot: int) -> _Predicate:
    if "." not in path:
        def predicate_flat_eq(document: dict, params: list) -> bool:
            value = document.get(path, _MISSING)
            expected = params[slot]
            if type(value) is type(expected):
                # One exact type on both sides: no bool-vs-int question, no
                # array on one side only -- ``_values_equal`` is ``==`` here.
                return value == expected
            return _values_equal(value is not _MISSING, value, expected)
        return predicate_flat_eq

    resolve = _compile_resolver(path)

    def predicate_eq(document: dict, params: list) -> bool:
        found, value = resolve(document)
        return _values_equal(found, value, params[slot])
    return predicate_eq


def _compile_operators(shape: tuple, slots: Iterator[int]) -> list[_OpTest]:
    tests: list[_OpTest] = []
    for operator, marker in shape:
        if operator == "$not":
            inner = _compile_operators(marker, slots)

            def test_not(found: bool, value: Any, params: list,
                         inner: list[_OpTest] = inner) -> bool:
                return not all(test(found, value, params) for test in inner)
            tests.append(test_not)
        else:
            tests.append(_compile_operator(operator, next(slots)))
    return tests


def _compile_operator(operator: str, slot: int) -> _OpTest:
    if operator == "$exists":
        return lambda found, value, params: found == bool(params[slot])
    if operator == "$eq":
        return lambda found, value, params: _values_equal(found, value, params[slot])
    if operator == "$ne":
        return lambda found, value, params: not _values_equal(found, value,
                                                              params[slot])
    if operator == "$in":
        return lambda found, value, params: any(
            _values_equal(found, value, candidate) for candidate in params[slot])
    if operator == "$nin":
        return lambda found, value, params: not any(
            _values_equal(found, value, candidate) for candidate in params[slot])
    if operator == "$size":
        return lambda found, value, params: (isinstance(value, list)
                                             and len(value) == params[slot])
    if operator == "$all":
        return lambda found, value, params: (isinstance(value, list) and all(
            candidate in value for candidate in params[slot]))

    # Ordered comparisons share one found/None/comparability guard.
    if operator == "$gt":
        def test_gt(found: bool, value: Any, params: list) -> bool:
            if not found or value is None:
                return False
            operand = params[slot]
            return _comparable(value, operand) and value > operand
        return test_gt
    if operator == "$gte":
        def test_gte(found: bool, value: Any, params: list) -> bool:
            if not found or value is None:
                return False
            operand = params[slot]
            return _comparable(value, operand) and value >= operand
        return test_gte
    if operator == "$lt":
        def test_lt(found: bool, value: Any, params: list) -> bool:
            if not found or value is None:
                return False
            operand = params[slot]
            return _comparable(value, operand) and value < operand
        return test_lt

    def test_lte(found: bool, value: Any, params: list) -> bool:
        if not found or value is None:
            return False
        operand = params[slot]
        return _comparable(value, operand) and value <= operand
    return test_lte


def equality_value(query: dict[str, Any], field: str) -> tuple[bool, Any]:
    """Return ``(True, value)`` if ``query`` pins ``field`` to a single value."""
    if field not in query:
        return False, None
    condition = query[field]
    if not isinstance(condition, dict):
        return True, condition
    if is_operator_expression(condition):
        if set(condition) == {"$eq"}:
            return True, condition["$eq"]
        operand = condition.get("$in")
        if (len(condition) == 1 and isinstance(operand, (list, tuple))
                and len(operand) == 1):
            return True, operand[0]
    return False, None
