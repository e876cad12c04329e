"""Query matching: a MongoDB-style filter language.

Supports the operator subset exercised by the YCSB-style benchmark client and
the integration tests:

* implicit equality (``{"a": 1}``), dotted paths (``{"a.b": 1}``),
* comparison operators ``$eq``, ``$ne``, ``$gt``, ``$gte``, ``$lt``, ``$lte``,
  ``$in``, ``$nin``, ``$exists``,
* logical operators ``$and``, ``$or``, ``$not``, ``$nor``,
* array matching: a filter value matches if the field equals it or (for
  scalars) if any array element equals it, plus ``$size`` and ``$all``.

Two evaluation strategies share these semantics:

* :func:`matches` interprets the raw query dict per document -- the reference
  implementation, kept for differential testing and one-off checks.
* :func:`compile_query` parses the query **once** into a tree of closures (a
  :class:`Matcher`).  Operand values are *parameterized*: the compiled form
  depends only on the query's shape (structure, operators, value type ranks)
  and reads concrete operands from a parameter list, so the planner can cache
  one compiled matcher per :func:`query_shape` and re-bind it to every
  same-shaped query for free.  Evaluating a compiled matcher skips all dict
  re-interpretation, operator dispatch and path splitting on the per-document
  hot path.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.docstore.documents import get_path
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


def matches(document: dict[str, Any], query: dict[str, Any]) -> bool:
    """Return True when ``document`` satisfies ``query``."""
    if not isinstance(query, dict):
        raise DocumentStoreError("queries must be dictionaries")
    for key, condition in query.items():
        if key in _LOGICAL_OPERATORS:
            if not _matches_logical(document, key, condition):
                return False
        elif key.startswith("$"):
            raise DocumentStoreError(f"unknown top-level operator {key!r}")
        else:
            if not _matches_field(document, key, condition):
                return False
    return True


def _matches_logical(document: dict[str, Any], operator: str, condition: Any) -> bool:
    if not isinstance(condition, list) or not condition:
        raise DocumentStoreError(f"{operator} expects a non-empty list of queries")
    results = [matches(document, sub) for sub in condition]
    if operator == "$and":
        return all(results)
    if operator == "$or":
        return any(results)
    return not any(results)  # $nor


def _matches_field(document: dict[str, Any], path: str, condition: Any) -> bool:
    found, value = get_path(document, path)
    if is_operator_expression(condition):
        return _matches_operators(found, value, condition)
    return _values_equal(found, value, condition)


def is_operator_expression(condition: Any) -> bool:
    """True when ``condition`` is an operator document such as ``{"$gt": 5}``."""
    return isinstance(condition, dict) and any(
        key.startswith("$") for key in condition
    )


def _matches_operators(found: bool, value: Any, condition: dict[str, Any]) -> bool:
    for operator, operand in condition.items():
        if operator not in _COMPARISON_OPERATORS:
            raise DocumentStoreError(f"unknown query operator {operator!r}")
        if not _matches_operator(found, value, operator, operand):
            return False
    return True


def _matches_operator(found: bool, value: Any, operator: str, operand: Any) -> bool:
    if operator == "$exists":
        return found == bool(operand)
    if operator == "$eq":
        return _values_equal(found, value, operand)
    if operator == "$ne":
        return not _values_equal(found, value, operand)
    if operator == "$in":
        return any(_values_equal(found, value, candidate) for candidate in operand)
    if operator == "$nin":
        return not any(_values_equal(found, value, candidate) for candidate in operand)
    if operator == "$not":
        if not isinstance(operand, dict):
            raise DocumentStoreError("$not expects an operator expression")
        return not _matches_operators(found, value, operand)
    if operator == "$size":
        return isinstance(value, list) and len(value) == operand
    if operator == "$all":
        if not isinstance(value, list):
            return False
        return all(candidate in value for candidate in operand)
    if not found or value is None:
        return False
    if not _comparable(value, operand):
        return False
    if operator == "$gt":
        return value > operand
    if operator == "$gte":
        return value >= operand
    if operator == "$lt":
        return value < operand
    if operator == "$lte":
        return value <= operand
    raise DocumentStoreError(f"unknown query operator {operator!r}")


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


# -- compiled queries ------------------------------------------------------------
#
# ``_compile_clauses`` and ``_shape_clauses`` walk the query with the *same*
# structure: every operand value the former captures as a parameter index,
# the latter appends to the parameter list at the same step.  Keeping the two
# walks textually parallel is what guarantees that a compiled matcher cached
# under a shape key can be re-bound to any query producing that key
# (regression-tested differentially against ``matches`` in
# ``tests/docstore/test_compiled_matching.py``).

_Predicate = Callable[[dict, list], bool]
_OpTest = Callable[[bool, Any, list], bool]


class CompiledQuery:
    """A query parsed once into closures, parameterized by operand values."""

    __slots__ = ("predicates", "param_count")

    def __init__(self, predicates: list[_Predicate], param_count: int):
        self.predicates = predicates
        self.param_count = param_count


class Matcher:
    """A compiled query bound to concrete operand values: ``matcher(doc)``."""

    __slots__ = ("predicates", "params")

    def __init__(self, compiled: CompiledQuery, params: list[Any]):
        self.predicates = compiled.predicates
        self.params = params

    def __call__(self, document: dict[str, Any]) -> bool:
        params = self.params
        for predicate in self.predicates:
            if not predicate(document, params):
                return False
        return True


def compile_query(query: dict[str, Any]) -> Matcher:
    """Compile ``query`` into a reusable matcher (same semantics as ``matches``)."""
    if not isinstance(query, dict):
        raise DocumentStoreError("queries must be dictionaries")
    __, params = query_shape(query)
    return Matcher(compile_shape(query), params)


def compile_shape(query: dict[str, Any]) -> CompiledQuery:
    """Compile the *shape* of ``query``; operands are read from a param list."""
    if not isinstance(query, dict):
        raise DocumentStoreError("queries must be dictionaries")
    counter = [0]
    predicates = _compile_clauses(query, counter)
    return CompiledQuery(predicates, counter[0])


def query_shape(query: dict[str, Any]) -> tuple[tuple, list[Any]]:
    """Return ``(shape key, params)`` for ``query``.

    The shape key is hashable and captures everything planning and
    compilation depend on -- structure, field paths, operators, and the type
    rank of each operand (plan choice is rank-sensitive: ``$gt 5`` is a range
    scan while ``$gt [5]`` is provably empty).  ``params`` are the operand
    values in compilation order, ready to bind a cached
    :class:`CompiledQuery` for this exact query.
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


def _sequence_marker(operand: Any) -> Any:
    """Shape placeholder for ``$in``/``$nin`` operands: planning cares whether
    the operand is a real sequence, whether it contains ``None``, and whether
    it is a single point (a one-element ``$in`` on ``_id`` is an id lookup)."""
    if not isinstance(operand, (list, tuple)):
        return ("!seq", _value_marker(operand))
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
        elif operator in ("$in", "$nin"):
            params.append(operand)
            parts.append((operator, _sequence_marker(operand)))
        else:
            params.append(operand)
            parts.append((operator, _value_marker(operand)))
    return tuple(parts)


def _compile_clauses(query: dict[str, Any], counter: list[int]) -> list[_Predicate]:
    predicates: list[_Predicate] = []
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
                branches.append(_compile_clauses(sub, counter))
            predicates.append(_compile_logical(key, branches))
        elif key.startswith("$"):
            raise DocumentStoreError(f"unknown top-level operator {key!r}")
        else:
            predicates.append(_compile_field(key, condition, counter))
    return predicates


def _compile_logical(operator: str, branches: list[list[_Predicate]]) -> _Predicate:
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


def _compile_field(path: str, condition: Any, counter: list[int]) -> _Predicate:
    resolve = _compile_resolver(path)
    if is_operator_expression(condition):
        tests = _compile_operators(condition, counter)
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

    slot = counter[0]
    counter[0] += 1
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

    def predicate_eq(document: dict, params: list) -> bool:
        found, value = resolve(document)
        return _values_equal(found, value, params[slot])
    return predicate_eq


def _compile_operators(condition: dict[str, Any], counter: list[int]) -> list[_OpTest]:
    tests: list[_OpTest] = []
    for operator, operand in condition.items():
        if operator not in _COMPARISON_OPERATORS:
            raise DocumentStoreError(f"unknown query operator {operator!r}")
        if operator == "$not":
            if not isinstance(operand, dict):
                raise DocumentStoreError("$not expects an operator expression")
            inner = _compile_operators(operand, counter)

            def test_not(found: bool, value: Any, params: list,
                         inner: list[_OpTest] = inner) -> bool:
                return not all(test(found, value, params) for test in inner)
            tests.append(test_not)
            continue
        slot = counter[0]
        counter[0] += 1
        tests.append(_compile_operator(operator, slot))
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

    # Ordered comparisons share the found/None/comparability guard of
    # ``_matches_operator``.
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
    if operator == "$lte":
        def test_lte(found: bool, value: Any, params: list) -> bool:
            if not found or value is None:
                return False
            operand = params[slot]
            return _comparable(value, operand) and value <= operand
        return test_lte
    raise DocumentStoreError(f"unknown query operator {operator!r}")


def query_fields(query: dict[str, Any]) -> set[str]:
    """Return the set of field paths a query constrains (used for index selection)."""
    fields: set[str] = set()
    for key, condition in query.items():
        if key in _LOGICAL_OPERATORS:
            for sub in condition:
                fields.update(query_fields(sub))
        elif not key.startswith("$"):
            fields.add(key)
    return fields


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
        if set(condition) == {"$in"} and len(condition["$in"]) == 1:
            return True, condition["$in"][0]
    return False, None
