"""A driver-style client for the document server.

The evaluation clients (and the MongoDB Chronos agent) talk to the SuE
through this client rather than holding the server object directly, mirroring
how the original demo's evaluation client uses the MongoDB Java driver.  The
client also aggregates per-operation latencies so callers can obtain a
latency histogram without instrumenting every call site.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.docstore.cost import TICKS_PER_SECOND
from repro.docstore.cursor import Cursor, cursor_read
from repro.docstore.documents import clone_document
from repro.docstore.operations import ROUTED, generated

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.docstore.server import DocumentDeployment


def _read_label(query: dict[str, Any] | None) -> str:
    """Latency label of a read: an empty query is a full ``scan``, everything
    else a ``read`` -- applied uniformly to ``find``/``find_one``/``find_with_cost``."""
    return "scan" if not query else "read"


# Every client-facing operation of the table: the target runs it, the handle
# delivers the outcome (latency recorded, documents cloned).
_HANDLE_OPERATION = """
def {client}(self, {params}):
    return self._deliver({label!r}, {subject}, self._target.{name}({args}))
"""


@generated(_HANDLE_OPERATION, ROUTED)
class CollectionHandle:
    """Client-side handle to a collection; records operation latencies.

    The table's client-facing operations (:mod:`repro.docstore.operations`)
    are generated: each runs on the deployment's collection and comes back
    through :meth:`_deliver`.  ``aggregate`` is exposed in two forms, like
    ``find``: ``aggregate_with_cost`` (the row) and the plain document list.
    """

    def __init__(self, client: "DocumentClient", database: str, collection: str):
        self._client = client
        self._database = database
        self._collection = collection

    @property
    def _target(self):
        return self._client.server.database(self._database).collection(self._collection)

    def _deliver(self, label: str | None, query: Any, outcome: Any) -> Any:
        """The client boundary of the copy-on-write protocol: returned
        documents (and ``distinct`` values, which surface stored values) are
        defensive copies, made exactly once; costed operations record their
        simulated latency under ``label``."""
        if label is None:
            if isinstance(outcome, list):
                return [clone_document(value) for value in outcome]
            return outcome
        if outcome.documents:
            outcome.documents = [clone_document(document)
                                 for document in outcome.documents]
        if label == "read":
            label = _read_label(query)
        self._client.record_latency(label, outcome.ticks)
        return outcome

    def find_one(self, query: dict[str, Any] | None = None) -> dict[str, Any] | None:
        documents = self.find_with_cost(query, limit=1).documents
        return documents[0] if documents else None

    def find(self, query: dict[str, Any] | None = None) -> list[dict[str, Any]]:
        return self.find_with_cost(query).documents

    def find_cursor(self, query: dict[str, Any] | None = None,
                    projection: dict[str, int] | None = None) -> Cursor:
        """A chainable cursor (``sort``/``skip``/``limit``/projection).

        Unlike :meth:`find` (which stays a plain list for compatibility),
        the cursor defers fetching until consumed, and reads through
        :func:`~repro.docstore.cursor.cursor_read`: a requested sort runs as
        an aggregation pipeline, so on any deployment it is backed by an
        ordered index walk when one covers the sort field, and a ``limit``
        rides down with it.  Returned documents are defensive copies, made
        once by the cursor.
        """
        query = {} if query is None else query

        def fetch(sort_spec: list[tuple[str, int]],
                  limit: int | None) -> list[dict[str, Any]]:
            result = cursor_read(self._target, query, sort_spec, limit)
            self._client.record_latency(_read_label(query), result.ticks)
            return result.documents

        return Cursor(fetch, projection, self._client.cursor_observer())

    def aggregate(self, pipeline: list[dict[str, Any]] | None = None) -> list[dict[str, Any]]:
        """Run an aggregation pipeline; returns defensive copies (like find)."""
        return self.aggregate_with_cost(pipeline).documents

    def explain(self, query: dict[str, Any] | list[dict[str, Any]] | None = None,
                limit: int | None = None) -> dict[str, Any]:
        """The access path (or per-shard paths) ``query`` would use.

        Accepts a plain query document or an aggregation pipeline (a list
        of stages) -- the latter reports per-stage pushdown decisions.
        """
        return self._target.explain({} if query is None else query, limit=limit)

    def stats(self) -> dict[str, Any]:
        return self._target.stats()

    @property
    def engine(self):
        """The storage engine instance backing this collection."""
        return self._target.engine


class DocumentClient:
    """Client connection to one deployment: a server, a replica set or a
    sharded cluster.

    Every :class:`~repro.docstore.server.DocumentDeployment` works -- their
    collections speak the same operation protocol
    (:mod:`repro.docstore.operations`), so the handles returned by
    :meth:`collection` are oblivious to the topology.
    """

    def __init__(self, server: "DocumentDeployment"):
        self.server = server
        self._latencies: dict[str, list[int]] = {}  # in ticks

    def collection(self, database: str, collection: str) -> CollectionHandle:
        """Return a handle to ``database.collection``."""
        return CollectionHandle(self, database, collection)

    def drop_database(self, database: str) -> bool:
        return self.server.drop_database(database)

    def command(self, command: dict[str, Any]) -> dict[str, Any]:
        return self.server.run_command(command)

    # -- observability passthroughs ----------------------------------------------
    #
    # Every deployment type (server, replica set, sharded cluster) exposes
    # the same profiling surface; these passthroughs make it reachable from
    # driver-level code without knowing the topology.

    def set_profiling(self, level: int, slow_ms: float | None = None,
                      capacity: int | None = None) -> dict[str, Any]:
        return self.server.set_profiling(level, slow_ms=slow_ms,
                                         capacity=capacity)

    def slow_ops(self, limit: int | None = None) -> list[dict[str, Any]]:
        return self.server.get_slow_ops(limit)

    def current_ops(self) -> list[dict[str, Any]]:
        return self.server.current_ops()

    def top(self) -> dict[str, Any]:
        return self.server.top()

    def metrics(self) -> dict[str, Any]:
        return self.server.metrics_snapshot()

    def cursor_observer(self) -> Any:
        """A cursor hook recording emitted-document counts into the
        deployment's metrics registry; ``None`` while profiling is off, so
        disabled profiling costs cursors nothing."""
        profiler = self.server.reporting_profiler()
        if not profiler.enabled:
            return None
        registry = profiler.registry

        def observe(count: int) -> None:
            registry.increment("cursor.open")
            registry.increment("cursor.returned", count)

        return observe

    # -- latency accounting -----------------------------------------------------

    def record_latency(self, operation: str, ticks: int) -> None:
        self._latencies.setdefault(operation, []).append(ticks)

    def latencies(self, operation: str | None = None) -> list[float]:
        """All recorded latencies in seconds, optionally filtered by
        operation type."""
        if operation is not None:
            recorded = self._latencies.get(operation, [])
        else:
            recorded = [ticks for values in self._latencies.values()
                        for ticks in values]
        return [ticks / TICKS_PER_SECOND for ticks in recorded]

    def reset_latencies(self) -> None:
        self._latencies.clear()

    def operations_recorded(self) -> int:
        return sum(len(values) for values in self._latencies.values())
