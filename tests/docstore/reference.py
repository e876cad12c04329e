"""The reference docstore: brute-force semantics, and the one model every
deployment is checked against.

Nothing here decides a value with ``src/``.  The module imports from
:mod:`repro.docstore` only the operation table
(:data:`~repro.docstore.operations.OPERATIONS`: the rows a
:class:`ReferenceStore` must answer) and, for :func:`query_intervals`, whose
answer is one, the interval types.  So a defect in code every deployment
shares -- value identity, matching, the kernels, the pipelines -- shows up as
a difference from this module instead of being repeated by it.

* Values: :func:`same` is the rule of equality, :func:`reference_order` the
  order it implies, :func:`reference_record_id` the record id an ``_id`` is
  stored under (what breaks a sort's ties).
* Documents: :func:`get_path` / :func:`set_path` / :func:`unset_path`,
  :func:`measure_document` (validate and size in one walk).
* The languages: :func:`matches` interprets a filter per document,
  :func:`reference_update` builds a post-image from the whole stored
  document, :func:`reference_pipeline` runs a pipeline over plain lists.
* Per-path references of the planner and the router: :func:`query_intervals`
  and :func:`reference_merge_limited`.
* :class:`ReferenceStore`: one namespace's documents as a list in insertion
  order, answering every client-facing row of the table from the references
  above.  As in a DB-net, the transitions (the table) are kept apart from
  the database they guard (a plain list).
* :func:`every_row`: the seeded sequence a deployment and the store are
  driven through alike.
"""

from __future__ import annotations

import copy
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.docstore.operations import OPERATIONS
from repro.docstore.predicates import Interval, IntervalSet
from repro.errors import DocumentStoreError, DuplicateKeyError

#: The client-facing rows: each is a method of :class:`ReferenceStore` under
#: its ``client`` name, as it is of a client handle.
ROUTED = tuple(row for row in OPERATIONS if row.strategy is not None)

# -- values ----------------------------------------------------------------------------


def same(left: Any, right: Any) -> bool:
    """The rule: a bool equals only a bool, numbers are equal by value
    (``1 == 1.0``), a sub-document equals one with the same fields holding
    equal values in any key order, an array one with equal elements in the
    same order -- at any depth; a string equals a string, ``None`` ``None``."""
    if isinstance(left, bool) or isinstance(right, bool):
        return type(left) is type(right) and left == right
    if isinstance(left, dict) or isinstance(right, dict):
        return (isinstance(left, dict) and isinstance(right, dict)
                and left.keys() == right.keys()
                and all(same(left[name], right[name]) for name in left))
    if isinstance(left, list) or isinstance(right, list):
        return (isinstance(left, list) and isinstance(right, list)
                and len(left) == len(right) and all(map(same, left, right)))
    if left is None or right is None:
        return left is right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left == right
    return isinstance(left, str) and isinstance(right, str) and left == right


def reference_order(value: Any) -> tuple:
    """The order the rule implies, written out: None < bool < number <
    string < sub-document (fields by name) < array (element-wise) < a value
    no document can hold (by its ``repr``)."""
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, dict):
        return (4, [(name, reference_order(value[name])) for name in sorted(value)])
    if isinstance(value, list):
        return (5, [reference_order(item) for item in value])
    return (6, repr(value))


def reference_record_id(value: Any) -> str:
    """The record id an ``_id`` is stored under: a string is its own (one
    starting with NUL gets one more in front); any other value is NUL, the
    letter of its rank in :func:`reference_order` and the text of its value,
    an integral float read as its int and a sub-document as its fields in
    name order."""
    if isinstance(value, str):
        return "\0" + value if value.startswith("\0") else value
    return "\0" + "zbnsdao"[reference_order(value)[0]] + repr(_plain(value))


def _plain(value: Any) -> Any:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, dict):
        return tuple(sorted((name, _plain(item)) for name, item in value.items()))
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def _rank(value: Any) -> str | None:
    """What a range compares a value with: a value of its own rank, and
    only a bool, a number or a string."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return None


# -- documents -------------------------------------------------------------------------


def get_path(document: dict[str, Any], path: str) -> tuple[bool, Any]:
    """``(found, value)`` at dotted ``path``; a digit segment indexes an array."""
    current: Any = document
    for segment in path.split("."):
        if isinstance(current, dict) and segment in current:
            current = current[segment]
        elif (isinstance(current, list) and segment.isdigit()
              and int(segment) < len(current)):
            current = current[int(segment)]
        else:
            return False, None
    return True, current


def set_path(document: dict[str, Any], path: str, value: Any) -> None:
    """Set ``value`` at dotted ``path``, creating what is missing on the way."""
    *parents, last = path.split(".")
    current: Any = document
    for segment in parents:
        if isinstance(current, list) and segment.isdigit():
            current.extend({} for __ in range(int(segment) + 1 - len(current)))
            current = current[int(segment)]
            continue
        if not isinstance(current, dict):
            raise DocumentStoreError(f"cannot descend into {segment!r} on {path!r}")
        if segment not in current:
            current[segment] = {}
        elif not isinstance(current[segment], (dict, list)):
            raise DocumentStoreError(
                f"cannot set {path!r}: {segment!r} is not a document or array")
        current = current[segment]
    if isinstance(current, list) and last.isdigit():
        current.extend(None for __ in range(int(last) + 1 - len(current)))
        current[int(last)] = value
    elif isinstance(current, dict):
        current[last] = value
    else:
        raise DocumentStoreError(f"cannot set {path!r} on a scalar value")


def unset_path(document: dict[str, Any], path: str) -> None:
    """Remove the value at dotted ``path``, if there is one."""
    *parents, last = path.split(".")
    found, parent = get_path(document, ".".join(parents)) if parents else (True, document)
    if found and isinstance(parent, dict):
        parent.pop(last, None)


def measure_document(document: Any) -> int:
    """Validate and size a whole document in one walk."""
    if not isinstance(document, dict):
        raise DocumentStoreError(
            f"documents must be dictionaries, got {type(document).__name__}")
    return _measure_dict(document, "")


def _measure_dict(value: dict[str, Any], path: str) -> int:
    size = 5
    for key, item in value.items():
        if not isinstance(key, str):
            raise DocumentStoreError(
                f"document keys must be strings (at {path or '<root>'}), got {key!r}")
        if key.startswith("$"):
            raise DocumentStoreError(
                f"field names may not start with '$' (at {path}.{key})")
        size += len(key.encode("utf-8")) + 2 + _measure_value(
            item, f"{path}.{key}" if path else key)
    return size


def _measure_value(value: Any, path: str) -> int:
    if value is None or value is True or value is False:
        return 1
    if isinstance(value, str):
        return len(value.encode("utf-8")) + 5
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, list):
        size = 5
        for position, item in enumerate(value):
            size += _measure_value(item, f"{path}[{position}]") + 2
        return size
    if isinstance(value, dict):
        return _measure_dict(value, path)
    raise DocumentStoreError(
        f"unsupported value type {type(value).__name__} at {path or '<root>'}")


def _check_id(document: dict[str, Any]) -> None:
    if isinstance(document.get("_id"), list):
        raise DocumentStoreError(f"an _id may not be an array, got {document['_id']!r}")


def _check_field_path(path: Any) -> None:
    if not isinstance(path, str) or "" in path.split("."):
        raise DocumentStoreError(
            f"a field path must be a non-empty string of non-empty "
            f"dot-separated parts, not {path!r}")


# -- the filter language ---------------------------------------------------------------

_LOGICAL = {"$and", "$or", "$nor"}
_COMPARISONS = {"$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$in", "$nin",
                "$exists", "$size", "$all", "$not"}


def _is_operators(condition: Any) -> bool:
    return isinstance(condition, dict) and any(key.startswith("$") for key in condition)


def _values_equal(found: bool, value: Any, expected: Any) -> bool:
    """A field equals ``expected``: its whole value, or -- an array against
    an operand that is not one -- one of its elements; missing equals None."""
    if not found:
        return expected is None
    if same(value, expected):
        return True
    return (isinstance(value, list) and not isinstance(expected, list)
            and any(same(item, expected) for item in value))


def matches(document: dict[str, Any], query: dict[str, Any]) -> bool:
    """Return True when ``document`` satisfies ``query``."""
    if not isinstance(query, dict):
        raise DocumentStoreError("queries must be dictionaries")
    for key, condition in query.items():
        if key in _LOGICAL:
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
    if _is_operators(condition):
        return _matches_operators(found, value, condition)
    return _values_equal(found, value, condition)


def _matches_operators(found: bool, value: Any, condition: dict[str, Any]) -> bool:
    for operator, operand in condition.items():
        if operator not in _COMPARISONS:
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
        return all(any(same(item, candidate) for item in value)
                   for candidate in operand)
    if not found or _rank(value) is None or _rank(value) != _rank(operand):
        return False
    if operator == "$gt":
        return value > operand
    if operator == "$gte":
        return value >= operand
    if operator == "$lt":
        return value < operand
    return value <= operand  # $lte


# -- the update language ---------------------------------------------------------------

UPDATE_OPERATORS = {"$set", "$unset", "$inc", "$mul", "$min", "$max", "$rename",
                    "$push", "$pull", "$addToSet", "$pop"}


def is_update(update: Any) -> bool:
    """True when ``update`` uses operators rather than replacing the document."""
    return isinstance(update, dict) and any(
        isinstance(key, str) and key.startswith("$") for key in update)


def reference_update(document: dict[str, Any], update: dict[str, Any]
                     ) -> dict[str, Any]:
    """The post-image of ``update`` on the stored ``document``, validated
    (``measure_document`` sizes it): the whole document cloned, every
    operator applied to the clone."""
    if not is_update(update):
        replacement = copy.deepcopy(update)
        measure_document(replacement)
        replacement["_id"] = document["_id"]
        return replacement
    result = copy.deepcopy(document)
    for operator, spec in update.items():
        if operator not in UPDATE_OPERATORS:
            raise DocumentStoreError(f"unknown update operator {operator!r}")
        if not isinstance(spec, dict):
            raise DocumentStoreError(f"{operator} expects an object of field updates")
        for path, operand in spec.items():
            _check_update_path(operator, path)
            if operator == "$rename":
                if not isinstance(operand, str):
                    raise DocumentStoreError(
                        f"$rename target of {path!r} must be a string")
                if (operand == path or operand.startswith(path + ".")
                        or path.startswith(operand + ".")):
                    raise DocumentStoreError(
                        f"$rename source {path!r} and target {operand!r} overlap")
                _check_update_path(operator, operand)
            _update_one_path(result, operator, path, operand)
    measure_document(result)
    return result


def _check_update_path(operator: str, path: Any) -> None:
    if not isinstance(path, str):
        raise DocumentStoreError(f"{operator} field paths must be strings, got {path!r}")
    if path == "_id" or path.startswith("_id."):
        raise DocumentStoreError("the _id field cannot be modified")


def _update_one_path(document: dict[str, Any], operator: str, path: str,
                     operand: Any) -> None:
    if operator == "$set":
        set_path(document, path, copy.deepcopy(operand))
        return
    if operator == "$unset":
        unset_path(document, path)
        return
    if operator == "$rename":
        found, value = get_path(document, path)
        if found:
            unset_path(document, path)
            set_path(document, operand, value)
        return
    found, current = get_path(document, path)
    if operator in ("$inc", "$mul"):
        if found and (not isinstance(current, (int, float)) or isinstance(current, bool)):
            raise DocumentStoreError(
                f"cannot apply {operator} to non-numeric field {path!r}")
        if not isinstance(operand, (int, float)) or isinstance(operand, bool):
            raise DocumentStoreError(f"{operator} requires a numeric operand")
        base = current if found else 0
        set_path(document, path, base + operand if operator == "$inc" else base * operand)
        return
    if operator in ("$min", "$max"):
        # The order rule: None < bool < number < string < sub-document <
        # array, so any two values compare.
        if found:
            held, challenger = reference_order(current), reference_order(operand)
            if not (challenger < held if operator == "$min" else challenger > held):
                return
        set_path(document, path, copy.deepcopy(operand))
        return
    if operator in ("$push", "$addToSet"):
        if found and not isinstance(current, list):
            raise DocumentStoreError(f"cannot {operator} to non-array field {path!r}")
        array = list(current) if found else []
        if isinstance(operand, dict) and "$each" in operand:
            if not isinstance(operand["$each"], list):
                raise DocumentStoreError(
                    f"{operator} $each on field {path!r} requires an array")
            items = copy.deepcopy(operand["$each"])
        else:
            items = [copy.deepcopy(operand)]
        for item in items:
            if operator == "$push" or not any(same(item, held) for held in array):
                array.append(item)
        set_path(document, path, array)
        return
    if operator == "$pull":
        if found and isinstance(current, list):
            set_path(document, path,
                     [item for item in current if not same(item, operand)])
        return
    # $pop
    if operand not in (1, -1) or isinstance(operand, bool):
        raise DocumentStoreError(
            f"$pop on field {path!r} takes 1 or -1, got {operand!r}")
    if found and isinstance(current, list) and current:
        array = list(current)
        array.pop(0 if operand == -1 else -1)
        set_path(document, path, array)


# -- pipelines -------------------------------------------------------------------------


def _ref_eval(document: dict, expression: Any) -> tuple[bool, Any]:
    if isinstance(expression, str) and expression.startswith("$"):
        return get_path(document, expression[1:])
    if isinstance(expression, dict):
        return True, {name: _ref_eval(document, entry)[1]
                      for name, entry in expression.items()}
    return True, expression


def _ref_accumulate(operator: str, values: list[tuple[bool, Any]]) -> Any:
    if operator == "$count":
        return len(values)
    if operator in ("$sum", "$avg"):
        numbers = [value for found, value in values
                   if found and isinstance(value, (int, float))
                   and not isinstance(value, bool)]
        if operator == "$sum":
            return sum(numbers) if numbers else 0
        return sum(numbers) / len(numbers) if numbers else None
    present = [value for found, value in values if found and value is not None]
    if not present:
        return None
    picker = min if operator == "$min" else max
    return picker(present, key=reference_order)


def _ref_group(documents: list[dict], spec: dict) -> list[dict]:
    groups: list[tuple[Any, list[dict]]] = []  # (key value, its documents)
    for document in documents:
        found, value = _ref_eval(document, spec["_id"])
        value = value if found else None
        for held, members in groups:
            if same(held, value):
                members.append(document)
                break
        else:
            groups.append((value, [document]))
    rows = []
    for value, members in sorted(groups, key=lambda group: reference_order(group[0])):
        row = {"_id": value}
        for name, accumulator in spec.items():
            if name == "_id":
                continue
            (operator, operand), = accumulator.items()
            row[name] = _ref_accumulate(
                operator,
                [(True, operand) if not (isinstance(operand, str)
                                         and operand.startswith("$"))
                 else _ref_eval(document, operand)
                 for document in members])
        rows.append(row)
    return rows


def reference_sort(documents: list[dict], sort_spec: dict) -> list[dict]:
    """``documents`` by the spec's fields, first field first, ties by record id."""
    ordered = sorted(documents, key=lambda doc: reference_record_id(doc.get("_id")))
    for field_path, direction in reversed(list(sort_spec.items())):
        ordered.sort(key=lambda doc: reference_order(get_path(doc, field_path)[1]),
                     reverse=direction < 0)
    return ordered


def reference_project(documents: list[dict], projection: dict) -> list[dict]:
    include = [name for name, flag in projection.items() if flag]
    exclude = {name for name, flag in projection.items() if not flag}
    out = []
    for document in documents:
        if include:
            row = {name: document[name] for name in include if name in document}
            if "_id" not in exclude and "_id" in document:
                row["_id"] = document["_id"]
        else:
            row = {name: value for name, value in document.items()
                   if name not in exclude}
        out.append(row)
    return out


def reference_pipeline(documents: list[dict], pipeline: list[dict]) -> list[dict]:
    """Brute-force evaluation over plain Python lists."""
    current = list(documents)
    for stage in pipeline:
        (name, spec), = stage.items()
        if name == "$match":
            current = [doc for doc in current if matches(doc, spec)]
        elif name == "$project":
            current = reference_project(current, spec)
        elif name == "$group":
            current = _ref_group(current, spec)
        elif name == "$sort":
            current = reference_sort(current, spec)
        elif name == "$limit":
            current = current[:spec]
    return current


def reference_distinct(documents: list[dict], field_path: str) -> list[Any]:
    """The values ``field_path`` holds in ``documents`` -- an array's
    elements, a missing field none -- each once, in the order of the rule."""
    distinct: list[Any] = []
    for document in documents:
        found, value = get_path(document, field_path)
        for item in (value if isinstance(value, list) else [value]) if found else ():
            if not any(same(item, held) for held in distinct):
                distinct.append(item)
    return sorted(distinct, key=reference_order)


# -- the planner's and the router's per-path references --------------------------------


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
                continue
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
    if _is_operators(condition):
        result = IntervalSet((Interval(),))
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
        if operand is None or not isinstance(operand, (bool, int, float, str)):
            # A range compares bools, numbers and strings only: one over
            # None, a list or a dict is unsatisfiable.
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


def reference_merge_limited(shard_documents: list[list[dict]], query: dict,
                            limit: int) -> list[dict]:
    """The router's merge of a limited multi-shard read before there was
    one: concatenate in shard order, deduplicate, re-sort by the one
    constrained field (ties, and a point set, by record id), cut."""
    seen: set[str] = set()
    documents = []
    for shard in shard_documents:
        for document in shard:
            identity = reference_record_id(document.get("_id"))
            if identity not in seen:
                seen.add(identity)
                documents.append(document)
    constraints = {field_path: interval_set for field_path, interval_set
                   in query_intervals(query).items() if not interval_set.is_full}
    if len(constraints) == 1:
        ((field_path, interval_set),) = constraints.items()
        if interval_set.point_values() is not None:
            documents = sorted(documents,
                               key=lambda doc: reference_record_id(doc.get("_id")))
        else:
            documents = sorted(
                documents,
                key=lambda doc: (reference_order(get_path(doc, field_path)[1]),
                                 reference_record_id(doc.get("_id"))))
    return documents[:limit]


# -- the model -------------------------------------------------------------------------


@dataclass
class Outcome:
    """What a costed row answers, with an ``OperationResult``'s counters
    (the model bills nothing)."""

    matched_count: int = 0
    modified_count: int = 0
    deleted_count: int = 0
    inserted_ids: list[Any] = field(default_factory=list)
    documents: list[dict[str, Any]] = field(default_factory=list)


def _check_limit(limit: Any) -> None:
    """The one rule of a read limit: ``None`` is all, a positive ``int``
    cuts, ``0`` reads nothing, anything else is refused."""
    if limit is not None and (type(limit) is not int or limit < 0):
        raise DocumentStoreError(
            f"a read limit must be a non-negative integer or None, got {limit!r}")


class ReferenceStore:
    """One namespace's documents, a list in insertion order, answering every
    client-facing row of the operation table by brute force -- under the
    row's ``client`` name, with a client handle's ``find``, ``aggregate``
    and ``find_cursor`` beside them.

    What a deployment may answer in its own way, the store answers in one
    way a differential must not hold a deployment to:
    - a single-document write takes the first match in insertion order
      (a cluster probes its shards in order);
    - a read that sorts nothing returns insertion order, and a ``limit``
      without a sort takes the first matches (so compare what such a read
      returns as a set, or by its size);
    - an ``_id`` generated for a document without one is the store's own.

    Index DDL changes nothing but the index names and, for a unique index,
    which documents are refused: a duplicate value, or an array element
    equal to another document's.  A namespace sharded on ``shard_key``
    refuses to insert a document that lacks it or holds an array there.  The
    store hands out copies; what it holds never leaves it.
    """

    def __init__(self, documents: list[dict[str, Any]] = (),
                 shard_key: str | None = None):
        self.documents: list[dict[str, Any]] = []
        self.indexes: dict[str, bool] = {}  # field path -> unique
        self.shard_key = shard_key
        self._serial = itertools.count()
        self.insert_many(documents)

    # -- writes --------------------------------------------------------------------

    def insert_one(self, document: dict[str, Any]) -> Outcome:
        return Outcome(inserted_ids=[self._insert(document)])

    def insert_many(self, documents: list[dict[str, Any]]) -> Outcome:
        """Ordered: a failure keeps the documents before it and names their
        ``_id`` values in the error's ``inserted_ids``."""
        inserted: list[Any] = []
        try:
            for document in documents:
                inserted.append(self._insert(document))
        except Exception as error:
            error.inserted_ids = inserted
            raise
        return Outcome(inserted_ids=inserted)

    def update_one(self, query: dict[str, Any], update: dict[str, Any]) -> Outcome:
        return self._update(query, update, 1)

    def update_many(self, query: dict[str, Any], update: dict[str, Any]) -> Outcome:
        return self._update(query, update, None)

    def replace_one(self, query: dict[str, Any], replacement: dict[str, Any]) -> Outcome:
        if is_update(replacement):
            raise DocumentStoreError("replacement documents may not contain operators")
        _check_id(replacement)
        return self._update(query, replacement, 1)

    def delete_one(self, query: dict[str, Any]) -> Outcome:
        return self._delete(query, 1)

    def delete_many(self, query: dict[str, Any]) -> Outcome:
        return self._delete(query, None)

    # -- reads ---------------------------------------------------------------------

    def find_with_cost(self, query: dict[str, Any] | None = None,
                       limit: int | None = None) -> Outcome:
        _check_limit(limit)
        if limit == 0:
            return Outcome()
        found = [self.documents[position] for position in self._matching(query, limit)]
        return Outcome(matched_count=len(found), documents=copy.deepcopy(found))

    def count_documents(self, query: dict[str, Any] | None = None) -> int:
        return len(self._matching(query))

    def distinct(self, field_path: str, query: dict[str, Any] | None = None) -> list[Any]:
        _check_field_path(field_path)
        return copy.deepcopy(reference_distinct(
            [self.documents[position] for position in self._matching(query)],
            field_path))

    def aggregate_with_cost(self, pipeline: list[dict[str, Any]] | None = None
                            ) -> Outcome:
        rows = reference_pipeline(copy.deepcopy(self.documents), pipeline or [])
        return Outcome(matched_count=len(rows), documents=rows)

    # -- index DDL -----------------------------------------------------------------

    def create_index(self, field_path: str, unique: bool = False) -> str:
        """A unique index over documents two of which share a value is
        refused, and nothing is created."""
        _check_field_path(field_path)
        if field_path not in self.indexes:
            if unique:
                for position, document in enumerate(self.documents):
                    self._check_unique(document, self.documents[:position],
                                       {field_path: True})
            self.indexes[field_path] = unique
        return field_path

    def drop_index(self, field_path: str) -> bool:
        _check_field_path(field_path)
        return self.indexes.pop(field_path, None) is not None

    # -- what a client handle derives ----------------------------------------------

    def find(self, query: dict[str, Any] | None = None) -> list[dict[str, Any]]:
        return self.find_with_cost(query).documents

    def aggregate(self, pipeline: list[dict[str, Any]] | None = None) -> list[dict]:
        return self.aggregate_with_cost(pipeline).documents

    def find_cursor(self, query: dict[str, Any] | None = None) -> "ReferenceCursor":
        return ReferenceCursor(self.find(query))

    # -- internals -----------------------------------------------------------------

    def _matching(self, query: dict[str, Any] | None,
                  limit: int | None = None) -> list[int]:
        """Positions of the documents ``query`` matches, the first ``limit``."""
        query = {} if query is None else query
        if not isinstance(query, dict):
            raise DocumentStoreError("queries must be dictionaries")
        found = [position for position, document in enumerate(self.documents)
                 if matches(document, query)]
        return found[:limit]

    def _insert(self, document: dict[str, Any]) -> Any:
        if not isinstance(document, dict):
            raise DocumentStoreError(
                f"documents must be dictionaries, got {type(document).__name__}")
        document = copy.deepcopy(document)
        if "_id" not in document:
            document["_id"] = f"reference-{next(self._serial)}"
        _check_id(document)
        if self.shard_key is not None:
            found, value = get_path(document, self.shard_key)
            if not found or isinstance(value, list):
                raise DocumentStoreError(
                    f"the shard key {self.shard_key!r} must hold one value, not {value!r}")
        measure_document(document)
        if any(same(document["_id"], held["_id"]) for held in self.documents):
            raise DuplicateKeyError(f"duplicate _id {document['_id']!r}")
        self._check_unique(document, self.documents)
        self.documents.append(document)
        return document["_id"]

    def _update(self, query: dict[str, Any], update: dict[str, Any],
                limit: int | None) -> Outcome:
        """Each match in order replaced by its post-image; a failure keeps
        the ones before it."""
        matched = modified = 0
        for position in self._matching(query, limit):
            current = self.documents[position]
            post_image = reference_update(current, update)
            self._check_unique(post_image, [document for document in self.documents
                                            if document is not current])
            self.documents[position] = post_image
            matched += 1
            # A write that changes a value's type (``True`` -> ``1``) modifies.
            modified += post_image != current or repr(post_image) != repr(current)
        return Outcome(matched_count=matched, modified_count=modified)

    def _delete(self, query: dict[str, Any], limit: int | None) -> Outcome:
        gone = set(self._matching(query, limit))
        self.documents = [document for position, document in enumerate(self.documents)
                          if position not in gone]
        return Outcome(deleted_count=len(gone))

    def _check_unique(self, document: dict[str, Any], others: list[dict[str, Any]],
                      indexes: Mapping[str, bool] | None = None) -> None:
        """Refuse ``document`` when a unique index finds one of its values --
        the whole value, or an element of an array -- in one of ``others``."""
        for field_path, unique in (self.indexes if indexes is None else indexes).items():
            mine = _index_values(document, field_path)
            if unique and mine and any(
                    same(value, theirs) for other in others
                    for theirs in _index_values(other, field_path) for value in mine):
                raise DuplicateKeyError(
                    f"duplicate value for unique index on {field_path!r}")


def _index_values(document: dict[str, Any], field_path: str) -> list[Any]:
    """What an index holds a document under: its value and the elements of
    an array value that are no arrays; nothing for a missing field."""
    found, value = get_path(document, field_path)
    if not found:
        return []
    elements = value if isinstance(value, list) else []
    return [value] + [element for element in elements if not isinstance(element, list)]


class ReferenceCursor:
    """A cursor over what a :class:`ReferenceStore` read matched: sort, skip
    and limit, refused values refused at the call."""

    def __init__(self, documents: list[dict[str, Any]]):
        self._documents = documents
        self._sort: dict[str, int] = {}
        self._skip = 0
        self._limit: int | None = None

    def sort(self, field_path: str, direction: int = 1) -> "ReferenceCursor":
        self._sort.setdefault(field_path, direction)
        return self

    def skip(self, count: int) -> "ReferenceCursor":
        if type(count) is not int or count < 0:
            raise DocumentStoreError(
                f"a cursor skip must be a non-negative integer, got {count!r}")
        self._skip = count
        return self

    def limit(self, count: int | None) -> "ReferenceCursor":
        _check_limit(count)
        self._limit = count
        return self

    def to_list(self) -> list[dict[str, Any]]:
        ordered = (reference_sort(self._documents, self._sort) if self._sort
                   else self._documents)
        return ordered[self._skip:None if self._limit is None
                       else self._skip + self._limit]

    def __iter__(self):
        return iter(self.to_list())


# -- the seeded sequences --------------------------------------------------------------


def _outcome(value: Any) -> Any:
    """An operation's outcome in a form every deployment and the store share."""
    if hasattr(value, "inserted_ids"):
        return (value.matched_count, value.modified_count, value.deleted_count,
                len(value.inserted_ids), sorted(map(repr, value.documents)))
    return value


def every_row(handle: Any, seed: int,
              faults: Mapping[int, Callable[[], Any]] = {}) -> list[tuple[str, Any]]:
    """The one seeded sequence a deployment and the store are driven through:
    on ``handle`` (a client handle or a :class:`ReferenceStore`) it calls
    every client-facing row, six rounds in a seeded order, and runs
    ``faults[step]()`` before call ``step`` (a primary kill, or any call to
    interleave).  Single-document writes pin
    ``_id``; multi-match predicates go through ``update_many`` /
    ``delete_many`` / ``find``, whose answers are order-independent.
    Returns each call's outcome, then the contents."""
    rng = random.Random(seed)
    keys = [f"user{index:03d}" for index in range(40)]
    serial = iter(range(10_000))

    def fresh():
        return {"_id": f"new{next(serial):04d}", "group": rng.randrange(4),
                "score": rng.randrange(100), "tags": ["a", "b"][:rng.randrange(3)]}

    def pinned():
        return {"_id": rng.choice(keys)}

    calls = {
        "insert_one": lambda: handle.insert_one(fresh()),
        "insert_many": lambda: handle.insert_many([fresh() for __ in range(3)]),
        # A write that only changes a value's type (True -> 1 -> 1.0) modifies.
        "update_one": lambda: handle.update_one(
            pinned(), {"$set": {"flag": rng.choice([True, 1, 1.0])}}),
        "update_many": lambda: handle.update_many(
            {"group": rng.randrange(4)}, {"$set": {"touched": rng.choice([True, 1])}}),
        "replace_one": lambda: handle.replace_one(
            pinned(), {"group": rng.randrange(4), "score": 0, "replaced": True}),
        "delete_one": lambda: handle.delete_one(pinned()),
        "delete_many": lambda: handle.delete_many({"score": {"$gte": 95}}),
        "find_with_cost": lambda: handle.find_with_cost(
            {"score": {"$lt": rng.randrange(100)}}),
        "count_documents": lambda: handle.count_documents(
            {"group": rng.randrange(4)}),
        "aggregate_with_cost": lambda: handle.aggregate_with_cost([
            {"$group": {"_id": "$group", "n": {"$count": {}},
                        "total": {"$sum": "$score"}}}]),
        "distinct": lambda: handle.distinct("group", {"score": {"$gte": 10}}),
        "create_index": lambda: handle.create_index("group"),
        "drop_index": lambda: handle.drop_index("group"),
    }
    assert set(calls) == {row.client for row in ROUTED}
    handle.insert_many([{"_id": key, "group": index % 4, "score": index}
                        for index, key in enumerate(keys)])
    handle.create_index("group")
    outcomes = []
    names = (name for __ in range(6) for name in rng.sample(sorted(calls), len(calls)))
    for step, name in enumerate(names):
        if step in faults:
            faults[step]()
        outcomes.append((name, _outcome(calls[name]())))
    outcomes.append(("contents", sorted(map(repr, handle.find({})))))
    return outcomes
