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

Two values are equal when their :func:`~repro.docstore.values.key` is, and a
range compares a value with an operand of its own
:func:`~repro.docstore.values.order` rank only (a bool, a number or a string).

A filter is read once.  :func:`query_shape` is the one walk of a raw query:
it validates it and splits it into a hashable *shape* -- structure, field
paths, operators, operand type ranks -- and its operand values, ``params``,
in walk order.  :func:`compile_shape` turns a shape into a
:class:`CompiledShape`: the Python source of one kernel, compiled
(:func:`~repro.docstore.kernels.filter_kernel`), whose code reads operand
``i`` from ``params[i]`` (it walks the shape in the order the params were
taken, so every slot is its operand by construction, and it validates
nothing), and the filter's interval analysis
(:func:`~repro.docstore.predicates.compile_intervals`).  The kernel has two
entry points: ``match`` tests one document in one frame, ``select`` filters
a drained read's list in one comprehension.  A shape is compiled once per
process: repeats are answered from a
:class:`~repro.docstore.codegen.BoundedMemo`.  A :class:`Matcher` binds
a compiled shape to one query's params; :func:`compile_query` does both for
one query.  Evaluating a matcher skips all dict re-interpretation, operator
dispatch and path splitting on the per-document hot path.

Where a filter is parsed: a single server's planner reads a raw query with
:func:`query_shape` and keeps the compiled shape in its plan cache; a
sharded cluster's router reads it once, as a :class:`ParsedQuery`, targets
the shards with its intervals and hands every shard that parse, which the
shard binds without walking the filter again.

The per-document interpreter the compiled form is checked against lives with
the tests, in the reference docstore (``tests/docstore/reference.py``): the
brute-force semantics every deployment is checked against.
"""

from __future__ import annotations

from typing import Any

from repro.docstore.codegen import SHAPES_LIMIT, BoundedMemo
from repro.docstore.kernels import filter_kernel
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


class CompiledShape:
    """What a :func:`query_shape` shape compiles to: ``match`` and
    ``select``, its generated kernel (:func:`~repro.docstore.kernels.filter_kernel`:
    ``match(document, params)``, ``select(documents, params)``), and
    ``intervals``, its interval analysis (``intervals(params)``: per field
    path, the :class:`~repro.docstore.predicates.IntervalSet` of the query)."""

    __slots__ = ("match", "select", "intervals")

    def __init__(self, shape: tuple):
        self.match, self.select = filter_kernel(shape)
        self.intervals = compile_intervals(shape)


class Matcher:
    """A compiled shape bound to one query's operand values:
    ``matcher(document)`` tests one document, ``matcher.select(documents)``
    is the list of those that match, in their order."""

    __slots__ = ("_match", "_select", "params")

    def __init__(self, compiled: CompiledShape, params: list[Any]):
        self._match, self._select = compiled.match, compiled.select
        self.params = params

    def __call__(self, document: dict[str, Any]) -> bool:
        return self._match(document, self.params)

    def select(self, documents: list[dict[str, Any]]) -> list[dict[str, Any]]:
        return self._select(documents, self.params)


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
#: the process.
_COMPILED = BoundedMemo(SHAPES_LIMIT)


def compile_shape(shape: tuple) -> CompiledShape:
    """The :class:`CompiledShape` of a :func:`query_shape` shape: the
    operand a predicate tests is ``params[slot]``, its slot the next one in
    walk order.  Compiled once per process; a repeat is a memo lookup.
    """
    compiled = _COMPILED.get(shape)
    if compiled is None:
        compiled = _COMPILED.store(shape, CompiledShape(shape))
    return compiled


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
