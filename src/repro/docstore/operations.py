"""The collection operation table: every operation, written down once.

An operation *is* its name plus its arguments.  That is how the layers below
the facades already pass it -- ``ReplicaSet.primary_write(db, coll,
"update_one", query, update)``, ``QueryRouter._run_on_shard(db, coll, shard,
"update_one", query, update)`` and the oplog all name an operation once and
replay it everywhere.  The four collection facades
(:class:`~repro.docstore.collection.Collection`,
:class:`~repro.docstore.replication.replica_set.ReplicatedCollection`,
:class:`~repro.docstore.sharding.cluster.RoutedCollection`,
:class:`~repro.docstore.client.CollectionHandle`) and the router's
query-targeted writes add nothing per operation but currying, so their
per-operation methods are *generated* from the rows of :data:`OPERATIONS` by
the :func:`generated` class decorator, each facade supplying one template
(the replica set's one per ``kind``).

A new operation is one table row plus its ``Collection._<name>``
implementation and its router merge -- never a new method on a facade.
The rows are also the explicit, enumerable action alphabet a schedule fuzzer
needs.  Two rows are *shard-side only* (no ``strategy``: the router asks a
shard for them, no client can): ``aggregate_partial``, a shard's partial
``$group``, and ``open_read``, the start of a limited multi-shard read -- a
``find`` (``source`` is its query, cut at ``limit``) or shard stages (a
list), opened, its first ``prefetch`` documents read, the rest suspended as
a :class:`~repro.docstore.aggregation.ShardStream` registered in ``opened``
for the router to merge from and close.  That one opens no span through the
gate: the stream's span ends when the router closes the stream.

Methods are compiled from source with the row's exact parameter list rather
than wrapped behind ``*args``: a generated method costs the frames and
allocations of the hand-written one it replaces, keeps its signature for
keyword calls and ``TypeError`` messages, and lands in the *own*
``__dict__`` of the decorated class (where the outside-in tracer of
``benchmarks/perf`` looks for layer boundaries).
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable

#: ``kind``: how a replica set carries the operation.
WRITE = "write"   # ReplicaSet.primary_write: primary, oplog, write concern
READ = "read"     # ReplicaSet.routed_read: the read-preferred member
DDL = "ddl"       # the ReplicaSet method of the same name (logged as DDL)

#: ``strategy``: how the router reaches the shards.
TARGET = "target"        # the one shard owning the document's key
PROBE = "probe"          # shard by shard until one matches (cost: sum)
BROADCAST = "broadcast"  # every addressed shard in parallel (cost: max)
SCATTER = "scatter"      # parallel read plus an operation-specific merge


@dataclass(frozen=True)
class OperationSpec:
    """One row: everything the facades need to know about an operation.

    Attributes:
        name: the method name on every layer below the client.
        params: the parameter list shared by every facade.
        kind: :data:`WRITE` / :data:`READ` / :data:`DDL`.
        span: profiler span label (``None``: the operation opens no span).
        label: client latency label; ``"read"`` becomes ``"scan"`` for an
            empty query; ``None``: the client records no latency.
        strategy: router strategy; ``None`` for shard-side operations that
            never cross the router (or the client).
        parallel: whether a router span combines its shard children by max
            (parallel fan-out) rather than by sum -- follows from the
            strategy.
        arguments: the expressions forwarded for ``params`` (defaults to the
            bare parameter names; reads normalise an absent query here).
        subject: index into ``arguments`` of the query or pipeline whose
            shape a span reports (``None``: no shape).
        client: the name :class:`CollectionHandle` exposes the row under
            (the handle's ``aggregate`` is the plain document list, as its
            ``find`` is, so the costed row is ``aggregate_with_cost`` there).
    """

    name: str
    params: str
    kind: str
    span: str | None = None
    label: str | None = None
    strategy: str | None = None
    arguments: tuple[str, ...] = ()
    subject: int | None = None
    client: str = ""

    def __post_init__(self) -> None:
        if not self.arguments:
            names = tuple(param.partition("=")[0].strip()
                          for param in self.params.split(","))
            object.__setattr__(self, "arguments", names)
        if not self.client:
            object.__setattr__(self, "client", self.name)

    @property
    def parallel(self) -> bool:
        return self.strategy in (BROADCAST, SCATTER)

    def fields(self) -> dict[str, Any]:
        """The values a facade template may refer to: the columns, plus
        ``parallel``, ``args`` (the forwarded expressions) and ``subject``
        as source."""
        fields = asdict(self)
        fields["parallel"] = self.parallel
        fields["args"] = ", ".join(self.arguments)
        fields["subject"] = ("None" if self.subject is None
                             else self.arguments[self.subject])
        return fields


OPERATIONS: tuple[OperationSpec, ...] = (
    OperationSpec("insert_one", "document", WRITE, "insert", "insert", TARGET),
    OperationSpec("insert_many", "documents", WRITE, "insert", "insert", TARGET),
    OperationSpec("update_one", "query, update", WRITE, "update", "update",
                  PROBE, subject=0),
    OperationSpec("update_many", "query, update", WRITE, "update", "update",
                  BROADCAST, subject=0),
    OperationSpec("replace_one", "query, replacement", WRITE, "update", "update",
                  PROBE, subject=0),
    OperationSpec("delete_one", "query", WRITE, "delete", "delete",
                  PROBE, subject=0),
    OperationSpec("delete_many", "query", WRITE, "delete", "delete",
                  BROADCAST, subject=0),
    OperationSpec("find_with_cost", "query=None, limit=None", READ, "query",
                  "read", SCATTER, ("query or {}", "limit"), subject=0),
    OperationSpec("count_documents", "query=None", READ, "count", None,
                  SCATTER, ("query or {}",), subject=0),
    OperationSpec("aggregate", "pipeline=None", READ, "aggregate", "aggregate",
                  SCATTER, ("pipeline or []",), subject=0,
                  client="aggregate_with_cost"),
    OperationSpec("aggregate_partial", "prefix, group_spec", READ, "aggregate",
                  subject=0),
    OperationSpec("open_read", "source, limit, prefetch, opened", READ),
    OperationSpec("distinct", "field_path, query=None", READ, "distinct", None,
                  SCATTER, ("field_path", "query or {}"), subject=1),
    OperationSpec("create_index", "field_path, unique=False", DDL,
                  strategy=BROADCAST),
    OperationSpec("drop_index", "field_path", DDL, strategy=BROADCAST),
)

#: Rows that cross the router: the client-facing ones, on ``RoutedCollection``
#: and (under their ``client`` name) on ``CollectionHandle``.
ROUTED = tuple(row for row in OPERATIONS if row.strategy is not None)
#: Writes the router places by their *query* (inserts place by document).
QUERY_ROUTED_WRITES = tuple(row for row in OPERATIONS if row.kind == WRITE
                            and row.strategy in (PROBE, BROADCAST))


def of_kind(kind: str) -> tuple[OperationSpec, ...]:
    """The rows a replica set carries as ``kind``."""
    return tuple(row for row in OPERATIONS if row.kind == kind)


def generated(template: str, rows: Iterable[OperationSpec] = OPERATIONS,
              ) -> Callable[[type], type]:
    """Class decorator: install one method per row, compiled from ``template``.

    ``template`` is the source of one ``def`` with ``str.format`` fields
    naming :meth:`OperationSpec.fields`.  The methods resolve globals in the
    decorated class's module.
    """
    rows = tuple(rows)

    def install(cls: type) -> type:
        module_globals = vars(sys.modules[cls.__module__])
        for row in rows:
            source = template.format(**row.fields())
            filename = f"<{cls.__name__} method for {row.name!r} from the operation table>"
            namespace: dict[str, Any] = {}
            exec(compile(source, filename, "exec"), module_globals, namespace)
            (method,) = namespace.values()
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
        return cls

    return install
