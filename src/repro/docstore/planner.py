"""The query planner: choosing an access path for every collection read.

The planner replaces the old ``Collection._candidates`` heuristic.  For a
query it enumerates the applicable access paths, estimates each one's
simulated cost, in ticks, from the engine's
:class:`~repro.docstore.cost.TickCosts`, and picks the cheapest:

* ``ID_LOOKUP``    -- the query pins ``_id`` to one value: direct record fetch.
* ``INDEX_EQ``     -- an indexed field is pinned to one or more point values
  (``$eq`` / ``$in``): hash-index lookups, whose sorted record ids the engine
  then reads in one pass (``StorageEngine.read_ids``).
* ``INDEX_RANGE``  -- an indexed field is range-constrained (``$gt``/``$gte``/
  ``$lt``/``$lte``): an ordered ``tree.range()`` scan over the index B-tree.
* ``FULL_SCAN``    -- no usable index: every document is examined, in one
  pass of the engine (``StorageEngine.read_scan``) -- no record id is listed.

Whatever the path, a plan hands its executor *reads*, not ids, in one of
two forms, and the plan is the one place that picks the engine pass behind
them: :meth:`QueryPlan.reads`, one iterator of ``(document, cost)`` for a
read a limit may cut, and :meth:`QueryPlan.drain`, every candidate read at
once, for a read nothing cuts (the engine's drained pass for ``FULL_SCAN``
and ``INDEX_EQ``, a loop of point reads for the other two).  Candidate
sets are always supersets of the true matches (the predicate analysis
over-approximates); the caller re-checks every candidate with the plan's
compiled matcher, so planning never changes *what* a query returns, only how
many documents it examines and what the operation costs.

**Plan cache.**  Repeated operations (the YCSB mixes) issue the same query
*shapes* with different operand values.  :func:`~repro.docstore.matching.query_shape`
derives a hashable key capturing everything the decision depends on
(structure, operators, operand type ranks); the planner caches
``(shape, limit) -> access-path decision + compiled shape`` and, on a hit,
rebuilds only the winning plan's concrete candidates, binding the compiled
shape's matcher and interval analysis to the new operand values -- no
re-enumeration of alternatives, no re-compilation, no re-costing of losing
paths, and no second walk of the filter.  A filter a router parsed
(:class:`~repro.docstore.matching.ParsedQuery`) arrives with both bound.
Entries are invalidated on index DDL and whenever the collection's document
count leaves the power-of-two bucket the decision was made in (growth can
flip a scan/index choice).
Correctness never depends on the cache: candidates are re-checked, so a stale
decision can only cost simulated time, exactly like a stale plan cache entry
on a real server.

``explain()`` always plans cold (and surfaces the decision -- the winning
plan plus every considered alternative with its estimated cost) through
``Collection.explain`` / ``DocumentClient`` handles and the ``repro
explain`` CLI subcommand.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.docstore.matching import (
    CompiledShape,
    Matcher,
    ParsedQuery,
    compile_shape,
    equality_value,
    query_shape,
)
from repro.docstore.predicates import IntervalSet
from repro.docstore.values import ESCAPE, record_id
from repro.errors import DocumentStoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.docstore.collection import Collection
    from repro.docstore.engine_base import StorageEngine

ID_LOOKUP = "ID_LOOKUP"
INDEX_EQ = "INDEX_EQ"
INDEX_RANGE = "INDEX_RANGE"
FULL_SCAN = "FULL_SCAN"

ACCESS_PATHS = (ID_LOOKUP, INDEX_EQ, INDEX_RANGE, FULL_SCAN)

_PLAN_CACHE_LIMIT = 128


def bill_scan(engine: "StorageEngine", documents: int) -> int:
    """Charge ``engine`` for enumerating ``documents`` of its documents
    (``scan_uncharged``): its scan cost per document, in one charge."""
    return engine.costs.charge(
        "scan", engine.scan_cost_per_document() * documents, documents)


@dataclass(slots=True)
class QueryPlan:
    """One chosen access path plus the bookkeeping ``explain`` exposes.

    The executor takes :meth:`reads` when a limit may cut the read and
    :meth:`drain` when nothing can; neither executor knows the access path.
    ``ID_LOOKUP`` / ``INDEX_EQ`` plans carry a materialised
    ``candidate_ids`` list.  ``INDEX_RANGE`` plans are *lazy*: candidates
    stream from the index B-tree in ``(value, record id)`` order, so a
    limited executor walks only as much of the window as it needs, and the
    lookup cost accrues with the walk
    (``current_lookup_cost``).  A winning ``FULL_SCAN`` carries no ids at
    all: planning billed the enumeration (``lookup_cost``, ``scanned``
    documents) and the engine's fused pass reads them; ``lazy_candidates``
    lists its ids charge-free, for ``explain`` and tests only.

    Attributes:
        access_path: one of :data:`ACCESS_PATHS`.
        field: the field path driving the access (None for full scans).
        estimated_cost: the planner's total cost estimate for the path, in
            ticks, like every cost here.
        candidate_ids: record ids the executor will examine (None while a
            lazy plan is unmaterialised, and for a full scan).
        lookup_cost: simulated cost incurred finding the candidates
            (index traversal / full-scan enumeration).
        considered: summaries of every path that was costed (the winner only
            when the plan came from the cache).
        scanned: documents a winning full scan was billed for enumerating.
        matcher: the compiled query matcher the executor re-checks candidates
            with (None when ``exact`` makes re-checking unnecessary).
        exact: True when the candidate set provably equals the match set
            (an empty query matching everything), letting executors skip
            per-document matching entirely.
    """

    access_path: str
    field: str | None
    estimated_cost: int
    candidate_ids: list[str] | None = None
    lookup_cost: int = 0
    considered: list[dict[str, Any]] = field(default_factory=list)
    lazy_candidates: Callable[[], Iterator[str]] | None = None
    lazy_lookup_cost: Callable[[], int] | None = None
    scanned: int | None = None
    matcher: Callable[[dict[str, Any]], bool] | None = None
    exact: bool = False
    cache_state: str = "cold"

    def reads(self, engine: "StorageEngine"
              ) -> Iterator[tuple[dict[str, Any] | None, int]]:
        """What a read a limit may cut loops over: ``(document, cost)`` per
        candidate -- the engine's one lazy pass over every document for a
        full scan, over the sorted candidate ids for ``INDEX_EQ``; else a
        point read per id (a C-level ``map``: a warm point read pays no
        generator frame, and a range streams in the index order the router
        merges by).  A consumer that stops early closes it if it can be
        closed: a pass lands its engine-wide accounting when it ends."""
        if self.access_path == FULL_SCAN:
            return engine.read_scan()
        if self.access_path == INDEX_EQ:
            return engine.read_ids(self.candidate_ids)
        ids = self.candidate_ids
        return map(engine.read, self.lazy_candidates() if ids is None else ids)

    def drain(self, engine: "StorageEngine"
              ) -> tuple[list[dict[str, Any]], int, int]:
        """What a read nothing cuts takes instead of :meth:`reads`: every
        candidate at once, ``(documents found, examined, ticks)``, the
        documents not yet re-checked -- the engine's drained pass
        (``StorageEngine.drain``) for a full scan and for ``INDEX_EQ``'s
        sorted ids, the point reads of :meth:`reads` looped here for the
        rest."""
        path = self.access_path
        if path == FULL_SCAN or path == INDEX_EQ:
            return engine.drain(self.candidate_ids)
        ids = self.candidate_ids
        documents = []
        examined = ticks = 0
        for document, cost in map(engine.read,
                                  self.lazy_candidates() if ids is None else ids):
            examined += 1
            ticks += cost
            if document is not None:
                documents.append(document)
        return documents, examined, ticks

    def current_lookup_cost(self) -> int:
        """The lookup cost charged so far (grows as a lazy plan is consumed)."""
        if self.lazy_lookup_cost is not None:
            return self.lazy_lookup_cost()
        return self.lookup_cost

    def materialize(self) -> list[str]:
        """Force a lazy plan's full candidate list (used by ``explain``)."""
        if self.candidate_ids is None:
            self.candidate_ids = list(self.lazy_candidates())
            self.lookup_cost = self.current_lookup_cost()
        return self.candidate_ids

    def summary(self) -> dict[str, Any]:
        return {
            "access_path": self.access_path,
            "field": self.field,
            "candidates_examined": (len(self.candidate_ids)
                                    if self.candidate_ids is not None
                                    else self.scanned),
            "estimated_cost": self.estimated_cost,
        }


@dataclass
class _PlanTemplate:
    """A cached planning decision for one query shape."""

    access_path: str
    field: str | None
    compiled: CompiledShape  # its matcher and interval analysis, unbound
    count_bucket: int


class QueryPlanner:
    """Plans every read of one :class:`~repro.docstore.collection.Collection`."""

    def __init__(self, collection: "Collection"):
        self.collection = collection
        self._cache: dict[tuple[Any, int | None], _PlanTemplate] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.fast_id_plans = 0
        # Guards the cache dict and the hit/miss counters: concurrent finds
        # otherwise interleave lookup, insertion, overflow-clear and counter
        # read-modify-writes.  Templates themselves are immutable once
        # published (rebinding builds a fresh Matcher per plan), so holding
        # the lock only around cache/counter access is sufficient.
        self._cache_lock = threading.Lock()

    # -- planning ---------------------------------------------------------------

    def plan(self, query: dict[str, Any] | ParsedQuery, limit: int | None = None,
             use_cache: bool = True) -> QueryPlan:
        """Choose and materialise the cheapest access path for ``query``.

        ``query`` is a raw filter, which the planner reads with
        ``query_shape``, or one already read (a :class:`ParsedQuery`, what a
        router hands its shards), whose shape, matcher and intervals it
        takes as they are; ``None`` is no filter, and anything else that is
        not a document is refused before anything is read.  ``limit`` caps
        the estimated number of candidate reads (the executor stops after
        ``limit`` matches), which lets short range scans beat a full scan
        even on large collections.
        ``use_cache=False`` forces a cold plan without consulting or
        refreshing the plan cache (``explain`` uses it so its output always
        reflects current costs).
        """
        parsed = None
        if type(query) is not dict:  # inline: a warm point read adds no call
            if type(query) is ParsedQuery:
                parsed, query = query, query.raw
            elif query is None:
                query = {}
            elif not isinstance(query, dict):
                raise DocumentStoreError("queries must be dictionaries")
        if not query:
            # An empty query matches every document: full scan, no re-check.
            plan = self._bill_scan(QueryPlan(
                FULL_SCAN, None, self._full_scan_estimate(limit),
                exact=True, cache_state="exact"))
            plan.considered = [plan.summary()]
            return plan

        if use_cache and len(query) == 1:
            # The YCSB-dominant point read ``{"_id": <string>}`` skips shape
            # derivation, template lookup and matching entirely: record ids
            # are injective, so the candidate provably is the match.
            # Anything else uses the cached-template path, which re-binds a
            # compiled matcher instead of recompiling.
            condition = query.get("_id")
            if type(condition) is str:
                return self._fast_id_plan(condition)

        shape, params = (query_shape(query) if parsed is None
                         else (parsed.shape, parsed.params))
        key = (shape, limit)
        if use_cache:
            with self._cache_lock:
                template = self._cache.get(key)
            if template is not None:
                # Rebinding runs outside the lock (it reads engine state and
                # builds the concrete plan); the template is immutable, so a
                # concurrent eviction/replacement of the cache slot is safe.
                plan = self._plan_from_template(template, query, params, limit,
                                                parsed)
                if plan is not None:
                    plan.cache_state = "hit"
                    with self._cache_lock:
                        self.cache_hits += 1
                    return plan
                with self._cache_lock:
                    # index dropped / decision went stale
                    self._cache.pop(key, None)
                    self.cache_misses += 1
            else:
                with self._cache_lock:
                    self.cache_misses += 1
        plan, template = self._cold_plan(query, shape, params, limit, parsed)
        if use_cache:
            plan.cache_state = "miss"
            with self._cache_lock:
                if len(self._cache) >= _PLAN_CACHE_LIMIT:
                    self._cache.clear()
                self._cache[key] = template
        return plan

    def invalidate_cache(self) -> None:
        """Drop every cached decision (index DDL changes what is plannable)."""
        with self._cache_lock:
            self._cache.clear()

    def cache_stats(self) -> dict[str, int]:
        """Cache effectiveness counters (``fast_id_plans`` are the sole-
        ``{"_id": <scalar>}`` reads that skip both cache and compilation)."""
        with self._cache_lock:
            return {"entries": len(self._cache), "hits": self.cache_hits,
                    "misses": self.cache_misses,
                    "fast_id_plans": self.fast_id_plans}

    def explain(self, query: dict[str, Any] | None = None,
                limit: int | None = None) -> dict[str, Any]:
        """A MongoDB-``explain``-style description of how ``query`` would run.

        Note that explain pays the winning plan's lookup cost as the real
        query would (an index walk; a winning full scan's enumeration bill,
        charged when it is planned) -- listing a full scan's ids on top is
        free.  It always plans cold: the output reflects current data, not a
        cached decision.
        """
        plan = self.plan(query, limit=limit, use_cache=False)
        plan.materialize()
        winning = plan.summary()
        winning["lookup_cost"] = plan.lookup_cost
        considered = [
            plan.summary() if (entry["access_path"] == plan.access_path
                               and entry["field"] == plan.field) else entry
            for entry in plan.considered
        ]
        return {
            "collection": self.collection.name,
            "documents": self.collection.engine.count(),
            "query": {} if query is None else query,
            "limit": limit,
            "winning_plan": winning,
            "considered_plans": considered,
        }

    # -- internals ---------------------------------------------------------------

    def _count_bucket(self) -> int:
        return self.collection.engine.count().bit_length()

    def _fast_id_plan(self, value: str) -> QueryPlan:
        """The dedicated plan for a sole ``{"_id": <string>}`` predicate: the
        candidate provably *is* the match (one ``_id`` class is one record
        id, :func:`~repro.docstore.values.record_id`), so the plan is exact
        and the executor skips matching."""
        with self._cache_lock:
            self.fast_id_plans += 1
        # Its record id, the ``str`` case inline.
        candidate = value if not value.startswith(ESCAPE) else record_id(value)
        if candidate in self.collection.record_ids():
            candidates = [candidate]
            estimated = self._read_estimate()
        else:
            candidates = []
            estimated = 0
        return QueryPlan(ID_LOOKUP, "_id", estimated, candidate_ids=candidates,
                         exact=True, cache_state="fast_id")

    def _cold_plan(self, query: dict[str, Any], shape: tuple, params: list[Any],
                   limit: int | None, parsed: ParsedQuery | None,
                   ) -> tuple[QueryPlan, _PlanTemplate]:
        if parsed is None:
            compiled = compile_shape(shape)
            matcher = Matcher(compiled, params)
        else:
            compiled, matcher = parsed.compiled, parsed.matcher
        bucket = self._count_bucket()

        id_plan = self._id_lookup_plan(query)
        if id_plan is not None:
            id_plan.considered = [id_plan.summary()]
            id_plan.matcher = matcher
            return id_plan, _PlanTemplate(ID_LOOKUP, "_id", compiled, bucket)

        constraints = (compiled.intervals(params) if parsed is None
                       else parsed.intervals)
        choices: list[QueryPlan] = []
        for field_path in sorted(constraints):
            index_plan = self._index_plan(field_path, constraints[field_path], limit)
            if index_plan is not None:
                choices.append(index_plan)
        full_scan = QueryPlan(FULL_SCAN, None, self._full_scan_estimate(limit))
        choices.append(full_scan)

        winner = min(choices, key=lambda plan: plan.estimated_cost)
        if winner.access_path == FULL_SCAN:
            self._bill_scan(winner)
        winner.considered = [plan.summary() for plan in choices]
        winner.matcher = matcher
        return winner, _PlanTemplate(winner.access_path, winner.field,
                                     compiled, bucket)

    def _plan_from_template(self, template: _PlanTemplate, query: dict[str, Any],
                            params: list[Any], limit: int | None,
                            parsed: ParsedQuery | None) -> QueryPlan | None:
        """Rebuild the cached decision's concrete plan for this query's values:
        the template's matcher and intervals bound to ``params`` (a parsed
        query's are bound already).

        Returns None when the decision no longer applies (index dropped, or
        the collection left the document-count bucket it was made in) -- the
        caller then replans cold and refreshes the entry.
        """
        if template.count_bucket != self._count_bucket():
            return None
        if template.access_path == ID_LOOKUP:
            plan = self._id_lookup_plan(query)
        elif template.access_path == FULL_SCAN:
            plan = self._bill_scan(
                QueryPlan(FULL_SCAN, None, self._full_scan_estimate(limit)))
        else:
            constraints = (template.compiled.intervals(params) if parsed is None
                           else parsed.intervals)
            interval_set = constraints.get(template.field)
            if interval_set is None:
                return None
            plan = self._index_plan(template.field, interval_set, limit)
        if plan is None:
            return None
        plan.matcher = (Matcher(template.compiled, params) if parsed is None
                        else parsed.matcher)
        return plan

    def _id_lookup_plan(self, query: dict[str, Any]) -> QueryPlan | None:
        pinned, value = equality_value(query, "_id")
        if not pinned:
            return None
        candidate = record_id(value)
        candidates = [candidate] if candidate in self.collection.record_ids() else []
        estimated = len(candidates) * self._read_estimate()
        return QueryPlan(ID_LOOKUP, "_id", estimated, candidate_ids=candidates)

    def _index_plan(self, field_path: str, interval_set: IntervalSet,
                    limit: int | None) -> QueryPlan | None:
        index = self.collection.index_for(field_path)
        if index is None or interval_set.is_full:
            return None
        if interval_set.is_empty:
            # The constraints are contradictory: the query matches nothing.
            return QueryPlan(INDEX_RANGE, field_path, 0, candidate_ids=[])
        node_access = self.collection.engine.tick_costs.node_access
        points = interval_set.point_values()
        if points is not None:
            # One copy of the live buckets -- their union across ``$in``
            # points -- sorted once: the order the engine's pass reads in.
            ids = sorted(set().union(*map(index.lookup, points)))
            lookup_cost = len(self.collection.indexes) * node_access
            reads = len(ids) if limit is None else min(len(ids), limit)
            return QueryPlan(
                INDEX_EQ, field_path,
                lookup_cost + reads * self._read_estimate(),
                candidate_ids=ids, lookup_cost=lookup_cost)
        # Not every interval is a point, so every one is a range, and a range
        # has bounds of one scalar rank: what the tree holds.
        intervals = list(interval_set)
        # Lazy range plan: candidates stream from the tree in key order and
        # the lookup cost accrues with the walk.  The estimate is an upper
        # bound (the window size is unknown until walked): descent plus one
        # read per document up to the limit / collection size.
        count = self.collection.engine.count()
        reads_bound = count if limit is None else min(count, limit)
        lookup_estimate = (max(1, index.tree_depth()) * len(intervals)
                           * node_access)
        estimated = lookup_estimate + reads_bound * self._read_estimate()
        # The nodes this plan's own walk visited: the stream may stay
        # suspended while other readers and writers use the index.
        visited = [0]

        def lazy_candidates() -> Iterator[str]:
            seen: set[str] = set()
            for interval in intervals:
                for record_id in index.iter_range(interval, visited):
                    if record_id not in seen:
                        seen.add(record_id)
                        yield record_id

        def lazy_lookup_cost() -> int:
            return visited[0] * node_access

        return QueryPlan(INDEX_RANGE, field_path, estimated,
                         lazy_candidates=lazy_candidates,
                         lazy_lookup_cost=lazy_lookup_cost)

    def _read_estimate(self) -> int:
        return self.collection.engine.point_read_cost_estimate()

    def _full_scan_estimate(self, limit: int | None) -> int:
        engine = self.collection.engine
        count = engine.count()
        # A full scan cannot stop early with confidence (matches may cluster
        # at the end), so limit does not discount the estimate.
        return count * (engine.scan_cost_per_document() + self._read_estimate())

    def _bill_scan(self, plan: QueryPlan) -> QueryPlan:
        """Bill a winning full scan for enumerating the collection: the
        engine's scan cost per document, in one charge."""
        engine = self.collection.engine
        plan.scanned = engine.count()
        plan.lookup_cost = bill_scan(engine, plan.scanned)
        plan.lazy_candidates = lambda: (
            record_id for record_id, __ in engine.scan_uncharged())
        return plan
