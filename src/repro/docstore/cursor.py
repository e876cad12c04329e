"""Cursors: lazy result sets with sort, skip, limit and projection."""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.docstore.documents import clone_document
from repro.docstore.predicates import scalar_rank
from repro.errors import DocumentStoreError


class Cursor:
    """Iterates over query results, applying sort / skip / limit / projection.

    The cursor is lazy with respect to the caller and reads once, on first
    use, through ``fetch(sort_spec, limit)``: the documents matching the
    query, *already* in the requested order (an empty spec asks for none)
    and cut to ``limit`` (``skip + limit``; ``None`` when unlimited), so a
    scan or an ordered index walk behind it stops early.  Ordering is never
    done here -- :func:`cursor_read` is the fetch every cursor is built on.

    The cursor is part of the client surface of the copy-on-write document
    protocol: ``fetch`` returns the stored objects themselves, and the cursor
    materialises the single defensive copy per emitted document -- after
    skip/limit cut the result down, so documents that are never returned are
    never copied.
    """

    def __init__(
        self,
        fetch: Callable[[list[tuple[str, int]], int | None], list[dict[str, Any]]],
        projection: dict[str, int] | None = None,
        observer: Callable[[int], None] | None = None,
    ):
        self._fetch = fetch
        self._projection = projection
        # Optional hook fired exactly once, on materialisation, with the
        # number of documents the cursor actually emitted (after sort, skip,
        # limit and projection) -- the observability layer's view of what
        # the client really consumed, as opposed to what the query matched.
        self._observer = observer
        self._sort_spec: list[tuple[str, int]] = []
        self._skip = 0
        self._limit: int | None = None
        self._materialised: list[dict[str, Any]] | None = None

    # -- fluent modifiers ------------------------------------------------------

    def sort(self, field: str, direction: int = 1) -> "Cursor":
        """Sort by ``field`` ascending (1) or descending (-1)."""
        self._assert_not_started()
        self._sort_spec.append((field, direction))
        return self

    def skip(self, count: int) -> "Cursor":
        """Skip the first ``count`` results."""
        self._assert_not_started()
        self._skip = max(0, count)
        return self

    def limit(self, count: int) -> "Cursor":
        """Return at most ``count`` results."""
        self._assert_not_started()
        self._limit = max(0, count)
        return self

    # -- consumption --------------------------------------------------------------

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._results())

    def __len__(self) -> int:
        return len(self._results())

    def to_list(self) -> list[dict[str, Any]]:
        """Return all results as a list."""
        return list(self._results())

    def first(self) -> dict[str, Any] | None:
        """Return the first result or ``None``."""
        results = self._results()
        return results[0] if results else None

    # -- internals ------------------------------------------------------------------

    def _results(self) -> list[dict[str, Any]]:
        if self._materialised is None:
            if self._limit == 0:  # asks for nothing, so nothing is read
                documents = []
            else:
                end = None if self._limit is None else self._skip + self._limit
                documents = self._fetch(self._sort_spec, end)[self._skip:end]
            if self._projection:
                # Projection builds fresh (shallow) dicts; cloning them deep
                # copies only the projected subset.
                from repro.docstore.aggregation import project_document
                documents = [clone_document(project_document(doc, self._projection))
                             for doc in documents]
            else:
                documents = [clone_document(doc) for doc in documents]
            self._materialised = documents
            if self._observer is not None:
                self._observer(len(documents))
        return self._materialised

    def _assert_not_started(self) -> None:
        if self._materialised is not None:
            raise RuntimeError("cursor has already been consumed")


def cursor_read(collection: Any, query: dict[str, Any],
                sort_spec: list[tuple[str, int]], limit: int | None) -> Any:
    """The one read behind every cursor, on a collection of any deployment:
    a plain limited ``find_with_cost`` without a sort, the ``$match`` /
    ``$sort`` / ``$limit`` pipeline with one (an ordered index walk when an
    index covers the sort field, ties broken by ``str(_id)``)."""
    if not isinstance(query, dict):
        raise DocumentStoreError("queries must be dictionaries")
    if not sort_spec:
        return collection.find_with_cost(query, limit=limit)
    pipeline: list[dict[str, Any]] = [{"$match": query}] if query else []
    pipeline.append({"$sort": dict(sort_spec)})
    if limit is not None:
        pipeline.append({"$limit": limit})
    return collection.aggregate(pipeline)


def sort_key(value: Any) -> tuple:
    """Total-order sort key over mixed-type values: what ``$sort``, the
    ``$min`` / ``$max`` accumulators and the router's merge of shard streams
    compare by.

    Built on the same type-rank ladder as
    :func:`repro.docstore.predicates.ordered_key`, so the order agrees with
    the ordered index's emission order -- which is what lets the router merge
    the streams of ``INDEX_RANGE`` walks without sorting them again.
    """
    rank = scalar_rank(value)
    if rank is None:
        return (4, str(value))
    if value is None:
        return (rank, "")
    if isinstance(value, bool):
        return (rank, int(value))
    return (rank, value)
