"""The aggregation pipeline: streaming `$match`/`$project`/`$group`/`$sort`/`$limit`.

A pipeline is a list of single-key stage documents, executed as a chain of
iterators over the copy-on-write stored documents -- no stage materialises an
intermediate result list unless its semantics require one (`$sort` and
`$group` are the only blocking stages).  Two pushdown layers make pipelines
cheap rather than merely composable:

**Planner pushdown (single server).**  A leading ``$match`` is not executed
as a filter at all: the stage's query is handed to the collection's
:class:`~repro.docstore.planner.QueryPlanner`, so it rides the same
``ID_LOOKUP`` / ``INDEX_EQ`` / ``INDEX_RANGE`` access paths -- and the same
plan cache, keyed by :func:`~repro.docstore.matching.query_shape` -- as a
plain ``find``; a source no ``$limit`` can cut takes its plan drained
(``QueryPlan.drain``), as a ``find`` without a limit does.  A ``$sort`` on
a single ascending field whose ordered index *covers* the collection (every
live document carries a scalar value for the field, tracked by
:meth:`~repro.docstore.indexes.SecondaryIndex.ordered_records`)
becomes an ordered B-tree walk instead of an in-memory sort, and a
downstream ``$limit`` is pushed into that walk so it stops after enough
matches.  When the leading ``$match`` additionally constrains the sort field
to one interval, the walk seeks straight into ``iter_range`` instead of
starting at the smallest key.

**Shard pushdown (router).**  :func:`split_pipeline` rewrites a pipeline
into a per-shard part and a router part.  Stages up to the first ``$group``
(when no ``$sort``/``$limit`` precedes it -- those need a global view) run
shard-side and ship one *partial accumulator state row per group* instead of
every matching document; the router combines states
(:func:`combine_partial_groups`) and finalises.  Without a ``$group``, the
prefix through the first ``$sort`` (and an immediately following ``$limit``)
runs per shard, and the router performs an ordered merge of the pre-sorted,
pre-limited shard streams (:func:`merge_shard_streams`).  When that merge can
stop at a limit without seeing everything (:func:`merges_lazily`), a shard
does not even produce its local top-k: it opens its stream, reads its share
of the limit and hands the rest over suspended (:class:`ShardStream`), for
the merge to resume only if its documents are next -- the lane a limited
multi-shard ``find`` takes as well.

**Read once.**  :func:`parse_pipeline` validates a pipeline and reads each
``$match`` filter once (a :class:`~repro.docstore.matching.ParsedQuery`: its
matcher and interval analysis bound); the source, the ordered walk's seek and
every later ``$match`` stage use that parse.  A router parses a pipeline
once, in :func:`split_pipeline`, and hands every shard its slice already
read (a :class:`ParsedPipeline`), so no shard parses or compiles it again;
a single server parses what its client sent.

**Determinism contract.**  MongoDB leaves group order and sort ties
undefined; this implementation pins both so a sharded aggregation returns
*exactly* the documents, in exactly the order, a single server returns:
``$group`` emits groups in the :func:`~repro.docstore.values.order` of their
keys, and ``$sort`` breaks ties by record id
(:func:`~repro.docstore.values.record_id`) -- the order the ordered index
emits, which is why one routine
(:func:`merge_shard_streams`) merges the shard streams of a ``$sort`` and of
a limited ``find`` alike.  Pipelines with no ``$sort``/``$group`` keep no order
guarantee (their order is access-path-dependent, as in MongoDB).

**One kernel per drained read.**  A source nothing cuts hands its matches
over as one list (the filter's generated ``select``,
:func:`~repro.docstore.kernels.filter_kernel`), a later ``$match`` over that
list is one ``select`` too, and a ``$group`` is one generated accumulate loop
(``GroupSpec.accumulate``, :func:`~repro.docstore.kernels.group_kernel`) --
the same loop on a shard (:func:`execute_partial`), whose ``_states`` rows
the router combines.

Accumulator semantics follow MongoDB: ``$sum``/``$avg`` consider only
numeric (non-bool) values and default to ``0`` / ``None``; ``$min``/``$max``
ignore null and missing and compare with the total order of
:func:`~repro.docstore.values.order`; ``$count`` takes ``{}`` and counts
documents.  Group keys are expressions: ``None``, a constant, a ``"$path"``
field reference (missing resolves to ``None``, MongoDB's null group), or a
compound document of those; two documents share a group when the
:func:`~repro.docstore.values.key` of their key values is equal (``1`` and
``1.0`` do, ``True`` and ``1`` do not).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.docstore.documents import get_path
from repro.docstore.kernels import group_kernel
from repro.docstore.matching import ParsedQuery
from repro.docstore.observability import render_query_shape
from repro.docstore.values import key, order, record_id
from repro.errors import DocumentStoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.docstore.collection import Collection, OperationResult

STAGE_NAMES = ("$match", "$project", "$group", "$sort", "$limit")

#: Access-path label ``explain`` reports when a ``$sort`` is satisfied by an
#: ordered index walk instead of an in-memory sort.
ORDERED_INDEX_WALK = "ORDERED_INDEX_WALK"

#: Access-path label for a full-collection source: the stream comes straight
#: from the engine's bulk scan, not from planning a query.
BULK_SCAN = "BULK_SCAN"

_ABSENT = object()


# -- expressions -------------------------------------------------------------------


class _FieldRef:
    """A ``"$path"`` reference resolved with dotted-path semantics.  Each
    expression has a hashable ``shape``: what its part of a ``$group``
    kernel (:func:`~repro.docstore.kernels.group_kernel`) is compiled from."""

    __slots__ = ("path", "_simple", "shape")

    def __init__(self, path: str):
        self.path = path
        self.shape = ("$", path)
        # Dot-free paths -- the overwhelmingly common case in group keys and
        # accumulator operands -- resolve with one dict probe instead of the
        # split-and-descend of get_path.
        self._simple = "." not in path

    def evaluate(self, document: dict[str, Any]) -> tuple[bool, Any]:
        if self._simple:
            value = document.get(self.path, _ABSENT)
            if value is _ABSENT:
                return False, None
            return True, value
        return get_path(document, self.path)


class _Constant:
    __slots__ = ("value", "shape")

    def __init__(self, value: Any):
        self.value = value
        # The type and the repr: 1, 1.0, True and -0.0 are shapes apart.
        self.shape = ("c", type(value), repr(value))

    def evaluate(self, document: dict[str, Any]) -> tuple[bool, Any]:
        return True, self.value


class _Compound:
    """A compound group key ``{"a": "$x", "b": "$y"}`` (missing -> None)."""

    __slots__ = ("entries", "shape")

    def __init__(self, entries: dict[str, Any]):
        self.entries = entries
        self.shape = ("{", tuple((name, expression.shape)
                                 for name, expression in entries.items()))

    def evaluate(self, document: dict[str, Any]) -> tuple[bool, Any]:
        value: dict[str, Any] = {}
        for name, expression in self.entries.items():
            found, entry = expression.evaluate(document)
            value[name] = entry if found else None
        return True, value


def _parse_expression(expression: Any, allow_compound: bool) -> Any:
    if isinstance(expression, str) and expression.startswith("$"):
        path = expression[1:]
        if not path:
            raise DocumentStoreError("empty field reference '$' in pipeline expression")
        return _FieldRef(path)
    if expression is None or isinstance(expression, (bool, int, float, str)):
        return _Constant(expression)
    if isinstance(expression, dict):
        if not allow_compound:
            raise DocumentStoreError(
                f"unsupported operator expression {expression!r}; accumulators "
                "take a field reference or a constant"
            )
        if any(key.startswith("$") for key in expression):
            raise DocumentStoreError(
                f"unsupported operator expression {expression!r} in $group _id"
            )
        return _Compound({name: _parse_expression(entry, allow_compound=False)
                          for name, entry in expression.items()})
    raise DocumentStoreError(f"unsupported pipeline expression {expression!r}")


# -- accumulators -----------------------------------------------------------------


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _SumAcc:
    @staticmethod
    def initial() -> Any:
        return 0

    @staticmethod
    def update(state: Any, found: bool, value: Any) -> Any:
        # The exact types first: nearly every operand, and no call to ask.
        if found and (type(value) is int or type(value) is float
                      or _is_number(value)):
            return state + value
        return state

    @staticmethod
    def combine(left: Any, right: Any) -> Any:
        return left + right

    @staticmethod
    def finalize(state: Any) -> Any:
        return state


class _CountAcc:
    @staticmethod
    def initial() -> Any:
        return 0

    @staticmethod
    def update(state: Any, found: bool, value: Any) -> Any:
        return state + 1

    @staticmethod
    def combine(left: Any, right: Any) -> Any:
        return left + right

    @staticmethod
    def finalize(state: Any) -> Any:
        return state


class _AvgAcc:
    @staticmethod
    def initial() -> Any:
        return (0, 0)

    @staticmethod
    def update(state: Any, found: bool, value: Any) -> Any:
        if found and _is_number(value):
            return (state[0] + value, state[1] + 1)
        return state

    @staticmethod
    def combine(left: Any, right: Any) -> Any:
        return (left[0] + right[0], left[1] + right[1])

    @staticmethod
    def finalize(state: Any) -> Any:
        total, count = state
        return total / count if count else None


class _MinAcc:
    #: Whether the held value beats the challenger; _MaxAcc flips it.
    _keep_left = staticmethod(lambda left, right: order(left) <= order(right))

    @classmethod
    def initial(cls) -> Any:
        return _ABSENT

    @classmethod
    def update(cls, state: Any, found: bool, value: Any) -> Any:
        if not found or value is None:
            return state  # null and missing are ignored, as in MongoDB
        if state is _ABSENT or not cls._keep_left(state, value):
            return value
        return state

    @classmethod
    def combine(cls, left: Any, right: Any) -> Any:
        if right is _ABSENT:
            return left
        if left is _ABSENT:
            return right
        return left if cls._keep_left(left, right) else right

    @staticmethod
    def finalize(state: Any) -> Any:
        return None if state is _ABSENT else state


class _MaxAcc(_MinAcc):
    _keep_left = staticmethod(lambda left, right: order(left) >= order(right))


_ACCUMULATORS: dict[str, Any] = {
    "$sum": _SumAcc,
    "$count": _CountAcc,
    "$avg": _AvgAcc,
    "$min": _MinAcc,
    "$max": _MaxAcc,
}


# -- stage parsing -----------------------------------------------------------------


@dataclass
class GroupSpec:
    """A parsed ``$group`` stage.  ``accumulate(documents)`` is its
    generated loop (:func:`~repro.docstore.kernels.group_kernel`):
    ``{key: (key value, {field: state})}``, by the
    :func:`~repro.docstore.values.key` of each key value."""

    raw: dict[str, Any]
    key_expr: Any
    fields: list[tuple[str, Any, Any]]  # (output name, accumulator, operand expr)
    shape: tuple  # the key's shape, and each field's (name, operator, operand shape)
    accumulate: Callable[[Iterable[dict[str, Any]]], dict] = field(init=False)

    def __post_init__(self) -> None:
        self.accumulate = group_kernel(self)


@dataclass
class Stage:
    """One parsed pipeline stage."""

    kind: str  # "match" | "project" | "group" | "sort" | "limit"
    raw: dict[str, Any]
    query: ParsedQuery | None = None  # a non-empty $match's filter
    projection: dict[str, Any] | None = None
    group: GroupSpec | None = None
    sort_spec: list[tuple[str, int]] | None = None
    limit: int | None = None


def parse_group_spec(spec: Any) -> GroupSpec:
    if not isinstance(spec, dict) or "_id" not in spec:
        raise DocumentStoreError("$group requires a document with an _id expression")
    key_expr = _parse_expression(spec["_id"], allow_compound=True)
    fields: list[tuple[str, Any, Any]] = []
    shapes: list[tuple[str, str, tuple]] = []
    for name, accumulator_spec in spec.items():
        if name == "_id":
            continue
        if not name or name.startswith("$") or "." in name:
            raise DocumentStoreError(f"invalid $group output field name {name!r}")
        if not isinstance(accumulator_spec, dict) or len(accumulator_spec) != 1:
            raise DocumentStoreError(
                f"$group field {name!r} must be {{accumulator: operand}}"
            )
        ((operator, operand),) = accumulator_spec.items()
        accumulator = _ACCUMULATORS.get(operator)
        if accumulator is None:
            raise DocumentStoreError(
                f"unknown accumulator {operator!r}; "
                f"supported: {sorted(_ACCUMULATORS)}"
            )
        if operator == "$count":
            if operand != {}:
                raise DocumentStoreError("$count takes an empty document {}")
            operand_expr = _Constant(None)
        else:
            operand_expr = _parse_expression(operand, allow_compound=False)
        fields.append((name, accumulator, operand_expr))
        shapes.append((name, operator, operand_expr.shape))
    return GroupSpec(raw=spec, key_expr=key_expr, fields=fields,
                     shape=(key_expr.shape, tuple(shapes)))


def parse_pipeline(pipeline: Any) -> list[Stage]:
    """Validate ``pipeline`` and parse it into executable stages."""
    if pipeline is None:
        pipeline = []
    if not isinstance(pipeline, (list, tuple)):
        raise DocumentStoreError(
            f"a pipeline must be a list of stage documents, got "
            f"{type(pipeline).__name__}"
        )
    stages: list[Stage] = []
    for position, raw in enumerate(pipeline):
        if not isinstance(raw, dict) or len(raw) != 1:
            raise DocumentStoreError(
                f"pipeline stage {position} must be a single-key document, "
                f"got {raw!r}"
            )
        ((name, spec),) = raw.items()
        if name not in STAGE_NAMES:
            raise DocumentStoreError(
                f"unknown pipeline stage {name!r}; supported: {list(STAGE_NAMES)}"
            )
        if name == "$match":
            if not isinstance(spec, dict):
                raise DocumentStoreError("$match takes a query document")
            stages.append(Stage("match", raw,
                                query=ParsedQuery(spec) if spec else None))
        elif name == "$project":
            if not isinstance(spec, dict) or not spec:
                raise DocumentStoreError("$project takes a non-empty document")
            for flag in spec.values():
                if not isinstance(flag, (bool, int)):
                    raise DocumentStoreError(
                        "$project values must be inclusion/exclusion flags"
                    )
            stages.append(Stage("project", raw, projection=dict(spec)))
        elif name == "$sort":
            if not isinstance(spec, dict) or not spec:
                raise DocumentStoreError("$sort takes a non-empty document")
            sort_spec: list[tuple[str, int]] = []
            for sort_field, direction in spec.items():
                if direction not in (1, -1):
                    raise DocumentStoreError(
                        f"$sort direction for {sort_field!r} must be 1 or -1"
                    )
                sort_spec.append((sort_field, int(direction)))
            stages.append(Stage("sort", raw, sort_spec=sort_spec))
        elif name == "$limit":
            if isinstance(spec, bool) or not isinstance(spec, int) or spec < 1:
                raise DocumentStoreError("$limit takes a positive integer")
            stages.append(Stage("limit", raw, limit=spec))
        else:  # $group
            stages.append(Stage("group", raw, group=parse_group_spec(spec)))
    return stages


class ParsedPipeline:
    """A pipeline read once (:func:`parse_pipeline`): what a router hands a
    shard in place of raw stage documents, so that no shard parses it again.
    ``raw`` is the stage documents it was read from (what a span renders)."""

    __slots__ = ("stages",)

    def __init__(self, stages: list[Stage]):
        self.stages = stages

    @property
    def raw(self) -> list[dict[str, Any]]:
        return [stage.raw for stage in self.stages]


# -- document helpers --------------------------------------------------------------


def project_document(document: dict[str, Any],
                     projection: dict[str, Any]) -> dict[str, Any]:
    """Apply a top-level include/exclude projection (Cursor semantics)."""
    include = [name for name, flag in projection.items() if flag]
    exclude = {name for name, flag in projection.items() if not flag}
    if include:
        projected = {name: document[name] for name in include if name in document}
        if "_id" not in exclude and "_id" in document:
            projected["_id"] = document["_id"]
        return projected
    return {key: value for key, value in document.items() if key not in exclude}


def sort_documents(documents: Iterable[dict[str, Any]],
                   sort_spec: list[tuple[str, int]]) -> list[dict[str, Any]]:
    """Sort by the spec's fields (:func:`~repro.docstore.values.order`) with
    a deterministic record-id tie-break.

    The pre-pass on the record id plus stable per-field passes yields the one
    total order both the standalone executor and the router's merge produce,
    so a sharded ``$sort`` returns documents in exactly a single server's
    order.
    """
    ordered = list(documents)
    ordered.sort(key=lambda doc: record_id(doc.get("_id")))
    for field_path, direction in reversed(sort_spec):
        ordered.sort(key=lambda doc: order(get_path(doc, field_path)[1]),
                     reverse=direction < 0)
    return ordered


def _merge_key(sort_spec: list[tuple[str, int]]) -> Callable[[dict[str, Any]], tuple]:
    def key(document: dict[str, Any]) -> tuple:
        parts = [order(get_path(document, field_path)[1])
                 for field_path, __ in sort_spec]
        parts.append(record_id(document.get("_id")))
        return tuple(parts)
    return key


# -- grouping ----------------------------------------------------------------------


def finalize_groups(groups: dict[Any, tuple[Any, dict[str, Any]]],
                    spec: GroupSpec) -> list[dict[str, Any]]:
    """Finalise accumulator states into group documents, in the
    :func:`~repro.docstore.values.order` of their key values."""
    documents: list[dict[str, Any]] = []
    for key_value, states in sorted(groups.values(),
                                    key=lambda entry: order(entry[0])):
        document: dict[str, Any] = {"_id": key_value}
        for name, accumulator, __ in spec.fields:
            document[name] = accumulator.finalize(states[name])
        documents.append(document)
    return documents


def combine_partial_groups(row_lists: Iterable[list[dict[str, Any]]],
                           spec: GroupSpec) -> list[dict[str, Any]]:
    """Router-side merge: combine per-shard partial rows and finalise.

    Each row is ``{"_id": key value, "_states": {field: state}}`` as emitted
    by :func:`execute_partial`; equal keys are recognised by
    :func:`~repro.docstore.values.key`, so shards never need to agree on a
    representative.
    """
    groups: dict[Any, tuple[Any, dict[str, Any]]] = {}
    for rows in row_lists:
        for row in rows:
            group_key = key(row["_id"])
            entry = groups.get(group_key)
            if entry is None:
                groups[group_key] = (row["_id"], dict(row["_states"]))
                continue
            states = entry[1]
            for name, accumulator, __ in spec.fields:
                states[name] = accumulator.combine(states[name],
                                                   row["_states"][name])
    return finalize_groups(groups, spec)


# -- the streaming executor --------------------------------------------------------


class _CostTracker:
    """Accrues read cost during streaming; lookup cost is read lazily at the
    end so lazy plans (index walks) charge exactly what they traversed.

    Also carries the profiler-facing execution facts the source discovered
    while opening (winning access path, plan-cache state) and counts the
    documents the stream examined, so a profiled ``aggregate`` span reports
    the same access path ``explain_pipeline`` would.
    """

    __slots__ = ("read_cost", "_lookup", "access_path", "cache_state",
                 "examined")

    def __init__(self) -> None:
        self.read_cost = 0
        self._lookup: Callable[[], int] | None = None
        self.access_path: str | None = None
        self.cache_state: str | None = None
        self.examined = 0

    def set_lookup(self, lookup: Callable[[], int]) -> None:
        self._lookup = lookup

    def total(self) -> int:
        lookup = self._lookup() if self._lookup is not None else 0
        return self.read_cost + lookup


@dataclass
class SourcePlan:
    """How the executor feeds documents into the stage chain.

    ``mode`` is ``"planner"`` (leading ``$match`` handed to the query
    planner, optional limit pushdown), ``"index_walk"`` (a covering
    ordered index satisfies the first ``$sort``; the walk filters with the
    leading match's matcher and stops at ``limit`` matches) or
    ``"bulk_scan"`` (no leading match: the engine's bulk scan streams every
    stored document once, billed by estimate rather than by the planner's
    cache-probing reads).
    ``query`` is the leading match's filter as :func:`parse_pipeline` read
    it (``None``: there is none) -- a planner source also takes a ``find``'s
    filter as the router sent it; ``remaining`` is the stage suffix still
    applied to the stream; ``sort_index`` / ``limit_index`` locate the
    satisfied stages for ``explain``.
    """

    mode: str
    query: ParsedQuery | dict[str, Any] | None
    limit: int | None
    sort_field: str | None
    remaining: list[Stage] = field(default_factory=list)
    match_consumed: bool = False
    sort_index: int | None = None
    limit_index: int | None = None


def _pushable_limit(stages: list[Stage], start: int) -> tuple[int | None, int | None]:
    """The first ``$limit`` the source may stop at, looking from ``start``.

    Only ``$project`` stages may sit in between: they never change the
    document count, so the limit commutes with them.  Anything else (a
    filter, a reorder, a group) makes the limit non-pushable.
    """
    for index in range(start, len(stages)):
        kind = stages[index].kind
        if kind == "project":
            continue
        if kind == "limit":
            return stages[index].limit, index
        break
    return None, None


def _walk_covers(collection: "Collection", field_path: str) -> bool:
    """Whether an ordered index walk over ``field_path`` sees every document.

    The B-tree only holds scalar values, so the walk is a valid sort source
    exactly when every live document contributed one scalar entry
    (``ordered_records == count``): a missing, array or subdocument value
    would silently drop its document from the result.
    """
    index = collection.index_for(field_path)
    return (index is not None
            and index.ordered_records() == collection.engine.count())


def plan_source(collection: "Collection", stages: list[Stage]) -> SourcePlan:
    """Decide the pushdown shape of a pipeline's document source."""
    match_consumed = bool(stages) and stages[0].kind == "match"
    query = stages[0].query if match_consumed else None
    base = 1 if match_consumed else 0
    if len(stages) > base and stages[base].kind == "sort":
        sort_spec = stages[base].sort_spec
        if (len(sort_spec) == 1 and sort_spec[0][1] == 1
                and _walk_covers(collection, sort_spec[0][0])):
            limit, limit_index = _pushable_limit(stages, base + 1)
            return SourcePlan("index_walk", query, limit, sort_spec[0][0],
                              remaining=stages[base + 1:],
                              match_consumed=match_consumed,
                              sort_index=base, limit_index=limit_index)
    limit, limit_index = _pushable_limit(stages, base)
    mode = "bulk_scan" if query is None else "planner"
    return SourcePlan(mode, query, limit, None,
                      remaining=stages[base:], match_consumed=match_consumed,
                      limit_index=limit_index)


def _walk_interval(source: SourcePlan) -> Any:
    """The single interval the leading match pins the sort field to, if any.

    Lets the ordered walk seek into ``iter_range`` instead of starting at
    the tree's smallest key.  ``False`` signals a provably empty result.
    """
    if source.query is None:
        return None
    interval_set = source.query.intervals.get(source.sort_field)
    if interval_set is None or interval_set.is_full:
        return None
    if interval_set.is_empty:
        return False
    intervals = list(interval_set)
    if len(intervals) == 1 and intervals[0].rank is not None:
        return intervals[0]
    return None


def _drains(source: SourcePlan) -> bool:
    """Whether nothing can cut the source's read: no ``$limit`` is pushed
    into it or left downstream, so every document it reads is consumed."""
    return source.limit is None and all(stage.kind != "limit"
                                        for stage in source.remaining)


def _open_source(collection: "Collection", source: SourcePlan,
                 tracker: _CostTracker, drain: bool = False) -> Iterable[dict[str, Any]]:
    """The source's document stream.  A lazy one is a generator: whoever
    opened it closes it before reading ``tracker``, so a consumer that stopped
    early leaves it suspended at no cost and deferred accounting still lands.
    With ``drain`` (nothing can cut the read, :func:`_drains`) a planned
    source is read here at once (``QueryPlan.drain``), ``tracker`` filled,
    and the stream is the list of its matches (one ``select``), with nothing
    left to close."""
    engine = collection.engine
    if source.mode == "index_walk":
        tracker.access_path = ORDERED_INDEX_WALK
        index = collection.index_for(source.sort_field)
        node_access = engine.tick_costs.node_access
        visited = [0]  # by this walk alone, however long it stays suspended
        tracker.set_lookup(lambda: visited[0] * node_access)
        interval = _walk_interval(source)
        if interval is False:
            return _stream(iter(()), None, None, tracker)  # provably empty
        candidates = (index.iter_range(interval, visited) if interval is not None
                      else index.iter_ordered(visited))
        matcher = None if source.query is None else source.query.matcher
        return _stream(map(engine.read, candidates), matcher, source.limit,
                       tracker)

    if source.mode == "bulk_scan":
        # Full-collection source: one streaming pass over the engine's bulk
        # scan.  A planned ``FULL_SCAN`` is one pass too
        # (``StorageEngine.read_scan``); what separates the two is the
        # *bill*: here an estimate per document (the scan charge plus a
        # point-read estimate), there the read each document would have cost,
        # cache probe included.  Merging them moves the simulated axis, so it
        # is a later issue.  The bill is charged once for the whole pass, in
        # the generator's ``finally`` -- the executor closes the stream
        # before reading the tracker, so a truncated pass charges exactly
        # what it examined (counted before the ``yield``: a generator closed
        # while suspended never runs the statement after it).
        tracker.access_path = BULK_SCAN
        per_document = (engine.scan_cost_per_document()
                        + engine.point_read_cost_estimate())

        def bulk() -> Iterator[dict[str, Any]]:
            examined = 0
            try:
                for __, document in engine.scan_uncharged():
                    examined += 1
                    yield document
                    if source.limit is not None and examined >= source.limit:
                        return
            finally:
                tracker.examined += examined
                tracker.read_cost += engine.costs.charge(
                    "scan", per_document * examined, examined)

        return bulk()

    plan = collection.planner.plan(source.query, limit=source.limit)
    tracker.access_path = plan.access_path
    tracker.cache_state = plan.cache_state
    tracker.set_lookup(plan.current_lookup_cost)
    matcher = plan.matcher
    if drain:
        documents, examined, read_cost = plan.drain(engine)
        tracker.examined += examined
        tracker.read_cost += read_cost
        return documents if matcher is None else matcher.select(documents)
    return _stream(plan.reads(engine), matcher, source.limit, tracker)


def _stream(reads: Iterator[tuple[dict[str, Any] | None, int]],
            matcher: Callable[[dict[str, Any]], bool] | None,
            limit: int | None, tracker: _CostTracker) -> Iterator[dict[str, Any]]:
    """The streaming read loop: take each read, re-check its document, yield
    the stored document, stop at ``limit`` matches.

    ``reads`` are ``(document, cost)`` pairs whatever the access path
    (``QueryPlan.reads``, or point reads along an ordered index walk).  A
    pipeline may stop pulling downstream (a ``$limit`` behind a second
    ``$match``), and ``tracker`` must hold exactly the reads that were
    consumed -- which is why a pipeline source is a generator; however it
    ends, it ends ``reads`` with it (an engine pass -- a ``FULL_SCAN``'s, an
    ``INDEX_EQ``'s -- bills the engine when it closes; point reads have
    nothing to close).  A ``find`` a limit cuts takes
    ``Collection._find_with_cost``, the same loop materialised; a read
    nothing cuts takes neither, but ``QueryPlan.drain``.
    """
    emitted = 0
    try:
        for document, cost in reads:
            tracker.examined += 1
            tracker.read_cost += cost
            if document is not None and (matcher is None or matcher(document)):
                yield document
                emitted += 1
                if limit is not None and emitted >= limit:
                    return
    finally:
        close = getattr(reads, "close", None)
        if close is not None:
            close()


def _apply_stages(stream: Iterable[dict[str, Any]],
                  stages: list[Stage]) -> Iterable[dict[str, Any]]:
    """Run ``stages`` over ``stream``.  An iterator stays lazy, stage by
    stage; a list -- a drained source's matches -- stays a list, so that a
    ``$match`` over it is one ``select`` of its generated kernel."""
    drained = type(stream) is list
    collect = list if drained else iter
    for stage in stages:
        if stage.kind == "match":
            if stage.query is not None:
                matcher = stage.query.matcher
                stream = (matcher.select(stream) if drained
                          else filter(matcher, stream))
        elif stage.kind == "project":
            projection = stage.projection
            stream = collect(project_document(document, projection)
                             for document in stream)
        elif stage.kind == "limit":
            stream = collect(itertools.islice(stream, stage.limit))
        elif stage.kind == "group":
            spec = stage.group
            stream = collect(finalize_groups(spec.accumulate(stream), spec))
        else:  # sort: the one stage that must see everything
            stream = collect(sort_documents(stream, stage.sort_spec))
    return stream


def execute_pipeline(collection: "Collection", pipeline: Any,
                     span: Any = None) -> "OperationResult":
    """Run ``pipeline`` -- raw stage documents, or a :class:`ParsedPipeline`
    a router sent -- against a single collection.

    Returns an :class:`~repro.docstore.collection.OperationResult` whose
    documents follow the internal copy-on-write contract: pass-through
    stages emit the frozen stored objects, so callers must treat them as
    immutable (the client surface clones).  ``span``, when given, receives
    the source's access path, plan-cache state and examined-document count.
    """
    from repro.docstore.collection import OperationResult

    stages = (pipeline.stages if type(pipeline) is ParsedPipeline
              else parse_pipeline(pipeline))
    source = plan_source(collection, stages)
    tracker = _CostTracker()
    drain = _drains(source)
    stream = _open_source(collection, source, tracker, drain)
    documents = list(_apply_stages(stream, source.remaining))
    if not drain:
        # A downstream stage (a non-pushable $limit) may leave the source
        # suspended; close it so its deferred cost accounting lands in the
        # tracker before the total is read.
        stream.close()
    if span is not None:
        _fill_span(span, tracker)
    return OperationResult(documents=documents, ticks=tracker.total(),
                           matched_count=len(documents))


def _fill_span(span: Any, tracker: _CostTracker) -> None:
    if tracker.access_path is not None:
        span.note_plan(tracker.access_path, tracker.cache_state)
    span.docs_examined += tracker.examined


class ShardStream:
    """One shard's part of a limited multi-shard read, opened but not drained.

    The shard opens its stream exactly as its own read would -- a ``find``
    (``source`` is the filter as the router sent it: parsed, or an empty
    one) over the planner's candidates cut at ``limit``, shard stages (a
    :class:`ParsedPipeline`) through :func:`plan_source` -- and reads the
    first ``prefetch`` documents on its own worker; nothing is parsed here,
    the router read the filter or pipeline once for every shard.  The rest
    stays *suspended*: the router's merge (:func:`merge_shard_streams`
    iterates this object) resumes it on the calling thread, and only when
    this shard's documents really are next.  That needs no latch: stored
    documents are frozen, every read-path structure is a published snapshot,
    the fan-out's completion latch orders the worker before the caller, and
    one thread at a time touches the stream.

    Once open, the stream registers itself in ``opened``: the router holds --
    and closes -- it even when a sibling shard's open raises out of the
    fan-out (an open that raises finishes its own span, marked errored, and
    leaves nothing behind).  :meth:`close` ends the stream, bills the shard
    (``ticks``: lookup plus the reads consumed, plus whatever the hop to the
    shard added to ``surcharge`` -- a replica set's pings and pending
    election cost) and finishes the shard-side span, which thus counts every
    document the shard read for the operation, on either thread, and every
    one it handed the router.
    """

    __slots__ = ("prefetched", "surcharge", "ticks", "_source",
                 "_rest", "_tracker", "_profiler", "_span")

    def __init__(self, collection: "Collection", source: Any, limit: int | None,
                 prefetch: int, opened: list["ShardStream"]) -> None:
        self.surcharge = 0
        self._tracker = _CostTracker()
        self._profiler = profiler = collection.profiler
        self._span = None
        staged = type(source) is ParsedPipeline
        if profiler is not None and profiler.enabled:
            self._span = profiler.start(
                "aggregate" if staged else "query",
                collection.namespace, render_query_shape(source))
        try:
            if staged:
                plan = plan_source(collection, source.stages)
            else:
                plan = SourcePlan("planner", source, limit, None)
            self._source = _open_source(collection, plan, self._tracker)
            self._rest = _apply_stages(self._source, plan.remaining)
            self.prefetched = list(itertools.islice(self._rest, prefetch))
        except BaseException as error:
            if self._span is not None:
                self._span.errored = type(error).__name__
                profiler.finish(self._span)
            raise
        opened.append(self)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        rest = self._rest if self._span is None else self._counted()
        return itertools.chain(self.prefetched, rest)

    def _counted(self) -> Iterator[dict[str, Any]]:
        for document in self._rest:
            self._span.docs_returned += 1  # beyond the prefetched ones
            yield document

    def close(self) -> None:
        self._source.close()  # a suspended source's deferred accounting lands
        self.ticks = self._tracker.total() + self.surcharge
        if self._span is not None:
            _fill_span(self._span, self._tracker)
            self._span.ticks = self.ticks
            self._span.docs_returned += len(self.prefetched)
            self._profiler.finish(self._span)


def execute_partial(collection: "Collection", prefix: ParsedPipeline,
                    spec: GroupSpec, span: Any = None) -> "OperationResult":
    """Shard-side half of a distributed ``$group``.

    Runs the ``$match``/``$project`` prefix with full planner pushdown, then
    accumulates *partial* states and returns one
    ``{"_id": key value, "_states": {...}}`` row per group -- what crosses
    the wire instead of every matching document.  Prefix and group come as
    the router's :func:`split_pipeline` read them.
    """
    from repro.docstore.collection import OperationResult

    source = plan_source(collection, prefix.stages)
    tracker = _CostTracker()
    drain = _drains(source)
    raw = _open_source(collection, source, tracker, drain)
    groups = spec.accumulate(_apply_stages(raw, source.remaining))
    if not drain:
        raw.close()
    if span is not None:
        _fill_span(span, tracker)
    rows = [{"_id": key_value, "_states": states}
            for key_value, states in groups.values()]
    return OperationResult(documents=rows, ticks=tracker.total(),
                           matched_count=len(rows))


def apply_stages(documents: list[dict[str, Any]],
                 pipeline: ParsedPipeline) -> list[dict[str, Any]]:
    """Run (router-side) parsed stages over already-materialised documents."""
    if not pipeline.stages:
        return documents
    return list(_apply_stages(iter(documents), pipeline.stages))


# -- distinct ----------------------------------------------------------------------


def distinct_values(documents: Iterable[dict[str, Any]],
                    field_path: str) -> list[Any]:
    """The degenerate ``$group``: distinct values of ``field_path`` among
    ``documents`` (what the collection's read matched).

    MongoDB semantics: documents missing the field contribute nothing,
    explicit nulls contribute ``None``, and array values contribute their
    elements.  Values are deduplicated by their
    :func:`~repro.docstore.values.key` and ordered by their
    :func:`~repro.docstore.values.order`, so a sharded union reproduces this
    list exactly.
    """
    seen: dict[Any, Any] = {}
    for document in documents:
        found, value = get_path(document, field_path)
        if not found:
            continue
        for item in (value if isinstance(value, list) else [value]):
            seen.setdefault(key(item), item)
    return sorted(seen.values(), key=order)


# -- the shard split ---------------------------------------------------------------


@dataclass
class PipelineSplit:
    """A pipeline rewritten into a per-shard part and a router part, read
    once: every part is a slice of the one parse.

    ``mode`` is:

    * ``"group"``  -- shards run ``shard_stages`` + partial ``$group``
      (``group``); the router combines states, finalises and applies
      ``router_stages``.
    * ``"sort"``   -- shards run ``shard_stages`` (ending in the ``$sort``
      and an immediately following ``$limit``, when present); the router
      ordered-merges the pre-sorted streams (``sort_spec``), deduplicates,
      re-applies ``merge_limit`` and runs ``router_stages``.
    * ``"stream"`` -- no global reorder needed: shards run ``shard_stages``,
      the router concatenates, deduplicates, applies ``merge_limit`` (when a
      ``$limit`` was pushed) and runs ``router_stages``.

    ``pipeline`` is the whole pipeline (what one owning shard runs) and
    ``leading`` the leading ``$match``'s filter (``None``: there is none),
    which targets the shards.
    """

    mode: str
    pipeline: ParsedPipeline
    leading: ParsedQuery | None
    shard_stages: ParsedPipeline
    router_stages: ParsedPipeline
    group: GroupSpec | None = None
    sort_spec: list[tuple[str, int]] | None = None
    merge_limit: int | None = None


def split_pipeline(pipeline: Any) -> PipelineSplit:
    """Read ``pipeline`` once and decide its scatter--partial--merge shape.

    A ``$group`` is pushed down only when no ``$sort``/``$limit`` precedes
    it (those are global operations: a per-shard top-k feeding a group would
    group the wrong documents).  When a barrier precedes the first group,
    the split happens at the barrier instead and the group runs router-side.
    """
    stages = parse_pipeline(pipeline)  # validates before anything ships
    kinds = [stage.kind for stage in stages]
    whole = ParsedPipeline(stages)
    leading = stages[0].query if kinds[:1] == ["match"] else None

    def split(mode: str, stop: int, resume: int, **parts: Any) -> PipelineSplit:
        return PipelineSplit(mode, whole, leading, ParsedPipeline(stages[:stop]),
                             ParsedPipeline(stages[resume:]), **parts)

    group_index = kinds.index("group") if "group" in kinds else None
    sort_index = kinds.index("sort") if "sort" in kinds else None
    limit_index = kinds.index("limit") if "limit" in kinds else None
    barriers = [index for index in (sort_index, limit_index) if index is not None]
    barrier = min(barriers) if barriers else None

    if group_index is not None and (barrier is None or group_index < barrier):
        return split("group", group_index, group_index + 1,
                     group=stages[group_index].group)
    if sort_index is not None and sort_index == barrier:
        stop = sort_index + 1
        merge_limit = None
        if stop < len(stages) and kinds[stop] == "limit":
            merge_limit = stages[stop].limit
            stop += 1
        return split("sort", stop, stop, sort_spec=stages[sort_index].sort_spec,
                     merge_limit=merge_limit)
    if limit_index is not None:
        return split("stream", limit_index + 1, limit_index + 1,
                     merge_limit=stages[limit_index].limit)
    return split("stream", len(stages), len(stages))


def dedup_by_id(documents: Iterable[dict[str, Any]]) -> Iterator[dict[str, Any]]:
    """Drop later duplicates of the same ``_id`` (migration dual-residence).

    Identity is the :func:`~repro.docstore.values.key` of the ``_id``, as in
    grouping: ``1`` and ``"1"`` are two documents.  Documents without an
    ``_id`` (a projection removed it) pass through: they cannot be
    identified.
    """
    seen: set[Any] = set()
    for document in documents:
        if "_id" in document:
            identity = key(document["_id"])
            if identity in seen:
                continue
            seen.add(identity)
        yield document


def merges_lazily(sort_spec: list[tuple[str, int]] | None) -> bool:
    """Whether :func:`merge_shard_streams` merges streams of this order
    without seeing all of them first: no order, or an all-ascending one."""
    return sort_spec is None or all(direction == 1 for __, direction in sort_spec)


def merge_shard_streams(shard_documents: list[Iterable[dict[str, Any]]],
                        sort_spec: list[tuple[str, int]] | None,
                        merge_limit: int | None) -> list[dict[str, Any]]:
    """Merge per-shard result streams at the router: the one merge of every
    multi-shard ``find`` and ``aggregate``.

    A stream is a shard's materialised document list or, for a limited read,
    its :class:`ShardStream`; either way it is only iterated, and -- when
    :func:`merges_lazily` -- only as far as the limit needs, so a suspended
    stream reads nothing the answer does not use.

    ``sort_spec`` is the order every stream already arrives in, the
    record-id tie-break included: ``None`` promises none and concatenates
    in shard order; an all-ascending spec -- ``[]`` is plain record-id order
    -- is a true ordered k-way merge (:func:`heapq.merge`), nothing is sorted
    again; descending or mixed-direction specs fall back to one re-sort with
    the identical total order.  Always deduplicates by ``_id`` and stops at
    the limit (the global top-k of the shards' local ones).
    """
    if sort_spec is None:
        merged = itertools.chain.from_iterable(shard_documents)
    elif merges_lazily(sort_spec):
        merged = heapq.merge(*shard_documents, key=_merge_key(sort_spec))
    else:
        merged = sort_documents(
            itertools.chain.from_iterable(shard_documents), sort_spec)
    return list(itertools.islice(dedup_by_id(merged), merge_limit))


# -- explain -----------------------------------------------------------------------


def explain_pipeline(collection: "Collection", pipeline: Any) -> dict[str, Any]:
    """Per-stage pushdown report plus the source's winning access path.

    For a planner-fed source, ``winning_plan`` is the planner's own explain
    output for the leading match (``ID_LOOKUP`` / ``INDEX_EQ`` /
    ``INDEX_RANGE`` / ``FULL_SCAN``); for an ordered index walk it reports
    :data:`ORDERED_INDEX_WALK` with the walk's limit pushdown.
    """
    stages = parse_pipeline(pipeline)
    source = plan_source(collection, stages)
    query = {} if source.query is None else source.query.raw
    if source.mode == "index_walk":
        winning = {
            "access_path": ORDERED_INDEX_WALK,
            "field": source.sort_field,
            "limit_pushdown": source.limit,
            "filtered_by_match": source.query is not None,
        }
    elif source.mode == "bulk_scan":
        winning = {
            "access_path": BULK_SCAN,
            "documents": collection.engine.count(),
            "limit_pushdown": source.limit,
        }
    else:
        winning = collection.planner.explain(query,
                                             limit=source.limit)["winning_plan"]
    reports = []
    for index, stage in enumerate(stages):
        disposition = "in_memory"
        if stage.kind == "match":
            if index == 0 and source.match_consumed:
                disposition = ("index_walk_filter" if source.mode == "index_walk"
                               else source.mode)
        elif stage.kind == "sort":
            if source.sort_index == index:
                disposition = "ordered_index_walk"
        elif stage.kind == "limit":
            if source.limit_index == index:
                disposition = "source_limit"
        elif stage.kind == "project":
            disposition = "streaming"
        reports.append({"stage": "$" + stage.kind, "pushdown": disposition})
    return {
        "collection": collection.name,
        "documents": collection.engine.count(),
        "pipeline": [stage.raw for stage in stages],
        "source": {"mode": source.mode, "query": query,
                   "limit_pushdown": source.limit},
        "winning_plan": winning,
        "stages": reports,
    }
