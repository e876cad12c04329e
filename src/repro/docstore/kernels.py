"""Generated kernels: a filter shape and a ``$group`` stage as Python source.

A drained read hands its documents over as one list, so what it runs over
them is compiled once per shape to one function, with no frame per predicate
or per accumulator:

* :func:`filter_kernel` -- the ``(match, select)`` pair of a
  :func:`~repro.docstore.matching.query_shape` shape.  ``match(document,
  params)`` is one frame per document (the lazy pass, a writer's re-check);
  ``select(documents, params)`` is one list comprehension over a drained
  read's documents.  Operand ``i`` is ``params[i]``, its slot the next one in
  walk order, as the interval analysis takes them.
* :func:`group_kernel` -- the accumulate loop of a parsed ``$group``:
  documents in, ``group key -> (key value, accumulator states)`` out.

What is inlined: a flat field read (``document.get``), an equality or range
test of a scalar operand behind an exact ``type(...)`` guard, a flat group
key with its ``str`` fast path, a flat accumulator operand, and ``$sum`` /
``$count`` of an exact ``int`` or ``float``.  Everything else calls the
helper that decides it -- :func:`_equal` and the other helpers below, an
accumulator's ``update``, an expression's ``evaluate``.

No field name or operand value is spliced into source text: the source names
slots (``_k0``, ``_p0``) and the kernel's namespace binds them.  The text it
holds is this module's own, and :func:`~repro.docstore.codegen.define`
compiles it.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Callable, Iterable, Iterator

from repro.docstore.codegen import SHAPES_LIMIT, BoundedMemo, define
from repro.docstore.documents import get_path
from repro.docstore.predicates import RANGE_RANKS
from repro.docstore.values import RANK_BOOL, RANK_NUMBER, RANK_STRING, key, order

#: A missing field, as a kernel reads it.
_M = object()


def _at(document: dict[str, Any], path: str) -> Any:
    """The value at dotted ``path``, or :data:`_M`."""
    found, value = get_path(document, path)
    return value if found else _M


def _equal(value: Any, expected: Any) -> bool:
    """Whether a field's ``value`` (:data:`_M`: missing) equals ``expected``
    by :func:`~repro.docstore.values.key`: the whole value, or -- an array
    against an operand that is not one -- any of its elements.  A missing
    field equals ``None``."""
    if value is _M:
        return expected is None
    expected_key = key(expected)
    if key(value) == expected_key:
        return True
    return (type(value) is list and type(expected) is not list
            and expected_key in map(key, value))


def _in(value: Any, candidates: list[Any]) -> bool:
    return any(_equal(value, candidate) for candidate in candidates)


def _all(value: Any, candidates: list[Any]) -> bool:
    if type(value) is not list:
        return False
    held = set(map(key, value))
    return all(key(candidate) in held for candidate in candidates)


_HELPERS = {"_M": _M, "_at": _at, "_equal": _equal, "_in": _in, "_all": _all,
            "_order": order, "_key": key,
            # The exact types of a range rank: a value of one of them is of
            # the rank, and compares with its operand by itself.
            f"_exact{RANK_BOOL}": frozenset({bool}),
            f"_exact{RANK_NUMBER}": frozenset({int, float}),
            f"_exact{RANK_STRING}": frozenset({str})}
#: Markers of scalar operands (:func:`~repro.docstore.matching.query_shape`):
#: ``None`` and the ranged ranks.  A value of the operand's exact type equals
#: it by ``==``.
_SCALAR_MARKERS = ("n", *RANGE_RANKS)
_RANGES = {"$gt": ">", "$gte": ">=", "$lt": "<", "$lte": "<="}


class _Source:
    """One kernel being written: its namespace and its prologue."""

    def __init__(self) -> None:
        self.namespace: dict[str, Any] = dict(_HELPERS)
        self.prologue: list[str] = []
        self._names = count()

    def bind(self, value: Any, prefix: str = "_c") -> str:
        """A fresh global name of the kernel, bound to ``value``."""
        name = f"{prefix}{next(self._names)}"
        self.namespace[name] = value
        return name


def _indented(lines: Iterable[str], depth: int) -> str:
    return "".join(f"{'    ' * depth}{line}\n" for line in lines)


# -- a filter ------------------------------------------------------------------------


def filter_kernel(shape: tuple) -> tuple[Callable[[dict, list], bool],
                                         Callable[[list, list], list]]:
    """The ``(match, select)`` pair of a
    :func:`~repro.docstore.matching.query_shape` shape."""
    source = _Source()
    expression = _clauses(shape, source, count())
    prologue = _indented(source.prologue, 1)
    defined = define(
        f"def match(document, p):\n{prologue}    return {expression}\n\n"
        f"def select(documents, p):\n{prologue}"
        f"    return [document for document in documents if {expression}]\n",
        "filter kernel", source.namespace)
    return defined["match"], defined["select"]


class _Field:
    """A field a clause tests, read once: where the first test evaluates it
    (an assignment expression), by name after that."""

    def __init__(self, source: _Source, path: str):
        name = source.bind(path, "_k")
        self.name = "_v" + name[2:]
        read = (f"document.get({name}, _M)" if "." not in path
                else f"_at(document, {name})")
        self._read: str | None = f"({self.name} := {read})"

    def __call__(self) -> str:
        read, self._read = self._read, None
        return read or self.name


def _clauses(shape: tuple, source: _Source, slots: Iterator[int]) -> str:
    parts: list[str] = []
    for clause in shape:
        if clause[0] in ("$and", "$or", "$nor"):
            operator, branches = clause
            joined = (" and " if operator == "$and" else " or ").join(
                f"({_clauses(branch, source, slots)})" for branch in branches)
            parts.append(f"not ({joined})" if operator == "$nor" else joined)
        else:  # an implicit equality is its ``$eq``
            operators = clause[2] if clause[1] == "ops" else (("$eq", clause[2]),)
            parts.append(_tests(operators, _Field(source, clause[0]), source, slots))
    return " and ".join(f"({part})" for part in parts) or "True"


def _operand(slot: int, source: _Source, truth: bool = False) -> str:
    """The local that holds operand ``slot`` (its truth, for ``$exists``)."""
    read = f"bool(p[{slot}])" if truth else f"p[{slot}]"
    source.prologue.append(f"_p{slot} = {read}")
    return f"_p{slot}"


def _equality(field: _Field, operand: str, slot: int, marker: Any,
              source: _Source) -> str:
    if marker not in _SCALAR_MARKERS:
        return f"_equal({field()}, {operand})"
    source.prologue.append(f"_t{slot} = type({operand})")
    # One exact scalar type on both sides (the marker says the operand is no
    # array or sub-document): its ``==`` is what their keys say.
    value = field()
    return (f"{field.name} == {operand} if type({value}) is _t{slot} "
            f"else _equal({field.name}, {operand})")


def _tests(operators: tuple, field: _Field, source: _Source,
           slots: Iterator[int]) -> str:
    """The conjunction of one field's operator tests.  Each test evaluates
    the field first, so the first one evaluated reads it."""
    tests = []
    for operator, marker in operators:
        if operator == "$not":
            tests.append(f"not ({_tests(marker, field, source, slots)})")
            continue
        slot = next(slots)
        operand = _operand(slot, source, operator == "$exists")
        if operator == "$exists":
            tests.append(f"({field()} is not _M) is {operand}")
        elif operator in ("$eq", "$ne"):
            test = _equality(field, operand, slot, marker, source)
            tests.append(test if operator == "$eq" else f"not ({test})")
        elif operator in ("$in", "$nin"):
            tests.append(("not " if operator == "$nin" else "")
                         + f"_in({field()}, {operand})")
        elif operator == "$size":
            tests.append(f"isinstance({field()}, list) "
                         f"and len({field.name}) == {operand}")
        elif operator == "$all":
            tests.append(f"_all({field()}, {operand})")
        elif marker in RANGE_RANKS:
            # A value of the operand's rank compares with it by itself.
            rank, symbol, name = RANGE_RANKS[marker], _RANGES[operator], field.name
            tests.append(f"{name} {symbol} {operand} if type({field()}) in _exact{rank} "
                         f"else _order({name})[0] == {rank} and {name} {symbol} {operand}")
        else:  # a range over None, an array or a sub-document holds nothing
            tests.append(f"{field()} is _M and False")
    # No test: true, the field read all the same.
    return " and ".join(f"({test})" for test in tests) or f"{field()} is _M or True"


# -- a $group ------------------------------------------------------------------------


#: Group kernels by ``$group`` shape, shared by every pipeline of the process
#: (a :class:`~repro.docstore.codegen.BoundedMemo`).
_GROUPS = BoundedMemo(SHAPES_LIMIT)


def group_kernel(spec: Any) -> Callable[[Iterable[dict]], dict]:
    """The accumulate loop of a parsed ``$group`` (``spec``: its ``shape``,
    ``key_expr`` and ``fields``, as ``aggregation.parse_group_spec`` builds
    them): ``accumulate(documents)`` is ``{key: (key value, {field:
    state})}``, groups in the order their first documents came, keyed by the
    :func:`~repro.docstore.values.key` of their key values (missing: ``None``).
    Compiled once per shape and process; a repeat is a memo lookup."""
    kernel = _GROUPS.get(spec.shape)
    if kernel is None:
        kernel = _GROUPS.store(spec.shape, _group_kernel(spec))
    return kernel


def _group_kernel(spec: Any) -> Callable[[Iterable[dict]], dict]:
    source = _Source()
    key_shape, field_shapes = spec.shape
    tag = key_shape[0]
    if tag == "c":
        body = [f"value = {source.bind(spec.key_expr.value)}",
                f"group = {source.bind(key(spec.key_expr.value))}"]
    else:
        if tag == "$" and "." not in key_shape[1]:
            body = [f"value = document.get({source.bind(key_shape[1], '_k')})"]
        else:
            body = [f"found, value = {source.bind(spec.key_expr.evaluate)}(document)",
                    "if not found:", "    value = None"]
        body.append("group = value if type(value) is str else _key(value)")
    initial = source.bind({name: accumulator.initial()
                           for name, accumulator, __ in spec.fields})
    body += ["entry = groups.get(group)", "if entry is None:",
             f"    entry = groups[group] = (value, {initial}.copy())",
             "states = entry[1]"]
    for (name, operator, operand_shape), (__, accumulator, operand) in zip(
            field_shapes, spec.fields):
        body += _accumulate(source, source.bind(name), operator, operand_shape,
                            accumulator, operand)
    return define(
        "def accumulate(documents):\n    groups = {}\n"
        f"    for document in documents:\n{_indented(body, 2)}    return groups\n",
        "$group kernel", source.namespace)["accumulate"]


def _accumulate(source: _Source, state: str, operator: str, operand_shape: tuple,
                accumulator: Any, operand: Any) -> list[str]:
    """The lines that fold one document into ``states[state]``."""
    state = f"states[{state}]"
    tag = operand_shape[0]
    if operator == "$count" or (operator == "$sum" and tag == "c" and type(
            operand.value) in (int, float)):
        amount = "1" if operator == "$count" else source.bind(operand.value)
        return [f"{state} += {amount}"]
    update = source.bind(accumulator.update, "_u")
    if tag == "c":
        return [f"{state} = {update}({state}, True, {source.bind(operand.value)})"]
    if tag != "$" or "." in operand_shape[1]:
        return [f"found, operand = {source.bind(operand.evaluate)}(document)",
                f"{state} = {update}({state}, found, operand)"]
    lines = [f"operand = document.get({source.bind(operand_shape[1], '_k')}, _M)"]
    if operator == "$sum":
        lines += ["if type(operand) is int or type(operand) is float:",
                  f"    {state} += operand",
                  "elif operand is not _M:",
                  f"    {state} = {update}({state}, True, operand)"]
    else:
        lines.append(f"{state} = {update}({state}, operand is not _M, operand)")
    return lines
