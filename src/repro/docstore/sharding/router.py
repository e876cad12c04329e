"""The query router: the ``mongos`` of the sharded cluster.

The router exposes the same operation surface as a
:class:`~repro.docstore.collection.Collection`, which lets the existing
:class:`~repro.docstore.client.DocumentClient` /
:class:`~repro.docstore.client.CollectionHandle` pair talk to a
:class:`~repro.docstore.sharding.cluster.ShardedCluster` exactly as it talks
to a single :class:`~repro.docstore.server.DocumentServer`.

Routing rules (the MongoDB ones, simplified).  The router shares the query
planner's predicate analysis (:mod:`repro.docstore.predicates`) to decide the
fan-out of every operation:

* the shard key pinned to one value (``$eq``) -> *targeted*: exactly the one
  shard owning that key's chunk;
* the shard key constrained to a point set (``$in``) -> targeted to the
  owning shards of those points;
* the shard key range-constrained on a **range-sharded** namespace ->
  targeted to the shards owning chunks overlapping the interval
  (:meth:`~repro.docstore.sharding.chunks.ChunkManager.shards_for_interval`);
* everything else (no shard-key constraint, or a range on a hashed key) ->
  *scatter-gather* across every shard.

Operations whose fan-out the analysis narrowed count as
``targeted_operations``; full fan-outs count as ``scatter_operations``.

Where a filter is parsed: here, once per operation, on the calling thread
(:meth:`QueryRouter._shards_for_query`; a pipeline in
:func:`~repro.docstore.aggregation.split_pipeline`).  The one parse -- a
:class:`~repro.docstore.matching.ParsedQuery`, its matcher and interval
analysis bound -- targets the shards, orders a limited merge and is what
every shard receives in place of the raw filter; a pipeline's shards receive
their stages parsed.  A shard plans and matches with it and walks the filter
no more.  A filter that pins the shard key to one owner is not parsed here:
the owner reads it as a single server would.

Equivalence caveat (as on real ``mongos``): a single-document write that
does not pin the shard key (``update_one``/``delete_one`` on a non-key
predicate) affects exactly one matching document, but *which* one is
shard-probe order, which may differ from a single server's insertion-order
choice when several documents match.

Cost accounting and execution model: an operation that resolves to exactly
one shard -- a pinned key, a one-shard point set or interval, every operation
of a one-shard cluster -- takes the single-owner lane
(:meth:`QueryRouter._run_on_owner`): it runs on the owner directly, and the
owner's answer, naming the owner in ``shard_costs``, is the operation's
answer; nothing is dispatched and nothing merged.  All multi-shard latency
merging goes through :func:`combine_shard_costs` -- fan-outs cost the slowest
shard, sequential probes accumulate every probed shard.  The execution
matches the model: every fan-out hands its shards' first batch to the
cluster's per-shard :class:`~repro.docstore.sharding.executor.ShardExecutor`
-- the whole answer of an unbounded operation (a write, a count, an
unlimited read, a ``$group`` partial, a descending ``$sort``), the shard's
share of the limit for a limited read whose merge streams -- which
dispatches it concurrently, or serially once the cluster is closed; the
determinism rule is that per-shard results are always merged in shard_id
order, which keeps sharded output reproducible and document-for-document
equal to a standalone server either way.  The per-shard breakdown flows into
``OperationResult.shard_costs`` (simulated) and
``OperationResult.shard_wall_seconds`` (measured wall-clock per shard
dispatch).

One read merge: the documents of every multi-shard ``find_with_cost`` and
``aggregate`` come out of
:func:`~repro.docstore.aggregation.merge_shard_streams` -- an ordered k-way
merge of streams each shard already emits in order (a pushed ``$sort``; for a
limited ``find``, the order of the access path, :func:`_emission_order`),
deduplicated by the :func:`~repro.docstore.values.key` of ``_id`` (a
migration's dual residence never surfaces twice; ``1`` and ``"1"`` are two
documents),
then cut to the limit -- and :meth:`QueryRouter._merged` assembles their
costs and walls.  The router sorts nothing a shard has sorted.

One limited lane: a limited read over several shards does not cost that many
limited reads.  When the merge streams -- a limited ``find``; shard stages
ending in a ``$limit`` in no or an ascending order --
:meth:`QueryRouter._merge_prefetched` asks every shard (``open_read``, a
shard-side row of the operation table) to open its stream and read only
``ceil(limit / shards addressed)`` documents on its worker; each hands back a
:class:`~repro.docstore.aggregation.ShardStream`, first documents plus the
suspended rest, and the one merge resumes on the calling thread only the
streams whose documents really are next.  The choice is by the operation's
shape alone, and the prefetch is derived, not set.  A shard is billed what its
stream had read when the router closed it, so a read the limit cuts costs
less simulated time than ``limit`` documents per shard, and one it does not
cut costs exactly that.

One batch lane: ``insert_many`` stays a batch below the router.  The batch is
cut into *maintenance segments* -- the trigger is arithmetic, so the router
knows which document fires it -- and within a segment every owning shard
stores its share as one ``insert_many``; answer and cluster are those of
inserting the documents one by one, also when one of them fails
(:meth:`QueryRouter.insert_many` says how).

Failover handling: there is none here.  When shards are replica sets
(``ShardedCluster(replicas=M)``) each set elects its own primary on the
operation that finds the old one dead
(:meth:`~repro.docstore.replication.replica_set.ReplicaSet.require_primary`),
so the router just sends the operation to the shard; the shards'
``failovers`` sum to ``server_status()["failovers"]``.  If no majority is
reachable the election raises :class:`~repro.errors.NoPrimaryError` and the
operation fails loudly instead of silently dropping writes.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Mapping

from repro.docstore.aggregation import (
    ShardStream,
    apply_stages,
    combine_partial_groups,
    merge_shard_streams,
    merges_lazily,
    split_pipeline,
)
from repro.docstore.collection import OperationResult, no_documents
from repro.docstore.documents import check_field_path, get_path, with_id
from repro.docstore.matching import ParsedQuery, equality_value
from repro.docstore.operations import PROBE, QUERY_ROUTED_WRITES, generated
from repro.docstore.predicates import IntervalSet
from repro.docstore.update_ops import is_update_document
from repro.docstore.values import key, order
from repro.errors import DocumentStoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.docstore.sharding.cluster import ShardedCluster, ShardingState


def combine_shard_costs(shard_costs: Mapping[str, int], parallel: bool) -> int:
    """The single latency model for every multi-shard operation.

    Fan-out operations (scatter/targeted-subset reads, broadcast writes)
    contact their shards concurrently -- really, through the cluster's
    :class:`~repro.docstore.sharding.executor.ShardExecutor` -- so the
    merged simulated time is the *slowest* shard's cost (max).  Serial probes (``update_one`` /
    ``delete_one`` without a resolvable shard key stop at the first matching
    shard) visit shards one after another, so their merged time is the *sum*
    of every shard actually probed.  Routing both shapes through this one
    helper keeps the asymmetry deliberate rather than accidental.
    """
    if not shard_costs:
        return 0
    values = shard_costs.values()
    return sum(values) if not parallel else max(values)


# The writes placed by their query (``update_*`` / ``replace_one`` /
# ``delete_*``) differ only in the row's strategy: one ``_route_write``.
_QUERY_ROUTED_WRITE = """
def {name}(self, database, collection, {params}):
    return self._route_write({strategy!r}, database, collection, {name!r}, {args})
"""


@generated(_QUERY_ROUTED_WRITE, QUERY_ROUTED_WRITES)
class QueryRouter:
    """Routes collection operations of one cluster to its shards."""

    def __init__(self, cluster: "ShardedCluster"):
        self.cluster = cluster
        self._shard_names = tuple(f"shard{shard_id}"
                                  for shard_id in range(cluster.shard_count))
        self.targeted_operations = 0
        self.scatter_operations = 0
        self.maintenance_ticks = 0
        # Guards the three counters above: they are read-modify-writes on
        # state shared by every client thread of the cluster.
        self._stats_lock = threading.Lock()

    # -- writes -----------------------------------------------------------------

    def insert_one(self, database: str, collection: str,
                   document: dict[str, Any]) -> OperationResult:
        state = self.cluster.sharding_state(database, collection)
        stored, owner = self._place(state, database, collection, document)
        result = self._run_on_owner(database, collection, owner,
                                    "insert_one", stored)
        self._settle(database, collection, state, result, 1)
        return result

    def insert_many(self, database: str, collection: str,
                    documents: list[dict[str, Any]]) -> OperationResult:
        """Insert a batch: one ``insert_many`` per owning shard, per
        *maintenance segment*.

        The maintenance trigger is arithmetic, so the router knows which
        document of the batch fires it: the batch is cut after that document
        (:meth:`ShardedCluster.inserts_before_maintenance`), the segment is
        stored, the round runs exactly where :meth:`insert_one` would have run
        it -- billed to ``shard_costs["balancer"]`` -- and the next segment is
        placed on the chunk map the round left.  Within a segment the
        documents are placed one by one, grouped by owner in batch order, and
        every owner stores its group as one batch, through
        :meth:`_run_on_shard`, in one ``executor.scatter`` (which runs a
        single owner inline).

        The answer is the per-document loop's: ``inserted_ids`` in batch
        order, ``shard_costs`` per shard, ``ticks`` their sum.  So is the
        state after a failure (MongoDB's ordered insert): the
        documents before the first failing one *in batch order* persist,
        nothing after it does.  Each shard reports how far its group got
        (the error's ``inserted_ids``); what other shards stored past the
        failing document is deleted again, the counters advance by the
        surviving prefix, and that document's error is raised with the
        prefix as its ``inserted_ids``.  Documents, placement, chunk map,
        indexes and counters are then the loop's; engine counters and a
        replicated shard's oplog, which saw an insert and a delete, are not.
        An error that is not a document's fault and strikes after a shard
        stored its group (``WriteConcernError``, ``NoPrimaryError``)
        propagates with what was stored left stored, as unacknowledged writes
        always are.
        """
        cluster = self.cluster
        state = cluster.sharding_state(database, collection)
        combined = OperationResult()
        start = 0
        while start < len(documents):
            room = cluster.inserts_before_maintenance(state)
            stop = len(documents) if room is None else min(len(documents),
                                                           start + room)
            self._insert_segment(database, collection, state,
                                 documents[start:stop], combined)
            start = stop
        return combined

    def _insert_segment(self, database: str, collection: str,
                        state: "ShardingState", segment: list[dict[str, Any]],
                        combined: OperationResult) -> None:
        """Store one maintenance segment of :meth:`insert_many` and add its
        outcome to ``combined``; raises the first failing document's error."""
        routed: list[dict[str, Any]] = []
        groups: dict[int, list[dict[str, Any]]] = {}
        positions: dict[int, list[int]] = {}  # of a shard's group, in ``routed``
        failure: Exception | None = None
        for document in segment:
            try:
                stored, owner = self._place(state, database, collection, document)
            except Exception as error:  # keep the valid prefix, raise below
                failure = error
                break
            groups.setdefault(owner, []).append(stored)
            positions.setdefault(owner, []).append(len(routed))
            routed.append(stored)

        def store(shard_id: int) -> OperationResult | Exception:
            try:
                return self._run_on_shard(database, collection, shard_id,
                                          "insert_many", groups[shard_id])
            except Exception as error:
                if not hasattr(error, "inserted_ids"):
                    raise  # not a document's fault
                return error  # the shard's group got as far as it says

        shard_ids = sorted(groups)
        outcomes, __ = self.cluster.executor.scatter(shard_ids, store)

        # The first failing document in batch order is where the batch ends
        # (one that could not be placed comes after all that were).
        cut = len(routed)
        for shard_id, outcome in zip(shard_ids, outcomes):
            if isinstance(outcome, Exception):
                refused = positions[shard_id][len(outcome.inserted_ids)]
                if refused < cut:
                    failure, cut = outcome, refused
        if failure is None:
            for shard_id, outcome in zip(shard_ids, outcomes):
                name = self._shard_names[shard_id]
                combined.shard_costs[name] = (combined.shard_costs.get(name, 0)
                                              + outcome.ticks)
                combined.ticks += outcome.ticks
        else:  # what a shard stored past the cut is not the loop's state
            for shard_id, outcome in zip(shard_ids, outcomes):
                for position in positions[shard_id][:len(outcome.inserted_ids)]:
                    if position > cut:
                        self._run_on_shard(
                            database, collection, shard_id, "delete_one",
                            {"_id": routed[position]["_id"]})
        combined.inserted_ids.extend(document["_id"] for document in routed[:cut])
        if cut:
            self._settle(database, collection, state, combined, cut)
        if failure is not None:
            failure.inserted_ids = combined.inserted_ids
            raise failure

    def _place(self, state: "ShardingState", database: str, collection: str,
               document: dict[str, Any]) -> tuple[dict[str, Any], int]:
        """What the router first does with a document to insert: the copy
        that carries an ``_id``, and the shard owning its shard key."""
        if not isinstance(document, dict):
            raise DocumentStoreError(
                f"documents must be dictionaries, got {type(document).__name__}"
            )
        stored = with_id(document)
        found, value = get_path(stored, state.key)
        if not found:
            raise DocumentStoreError(
                f"document is missing the shard key {state.key!r} "
                f"of {database}.{collection}"
            )
        if isinstance(value, list):
            raise _array_key(state.key, value)
        return stored, state.manager.shard_for(value)

    def _settle(self, database: str, collection: str, state: "ShardingState",
                result: OperationResult, stored: int) -> None:
        """Count ``stored`` routed inserts and bill ``result`` the maintenance
        round they triggered, if they did."""
        with self._stats_lock:
            self.targeted_operations += stored
        maintenance = self.cluster.auto_maintain(database, collection, state,
                                                 stored)
        if maintenance:
            # The insert that pushed a chunk past its threshold pays for the
            # migrations of the maintenance round it triggered -- balancing
            # during a measured phase is not free.
            result.ticks += maintenance
            result.shard_costs["balancer"] = (
                result.shard_costs.get("balancer", 0) + maintenance)
            with self._stats_lock:
                self.maintenance_ticks += maintenance

    def _route_write(self, strategy: str, database: str, collection: str,
                     operation: str, query: dict[str, Any],
                     *update: dict[str, Any]) -> OperationResult:
        """Place a write by its query: one owning shard runs it unchanged;
        several are probed one by one until one matches (single-document
        writes, cost: sum) or written in parallel (multi-document writes,
        cost: max), by the row's ``strategy``.  ``update`` is the update or
        replacement document, when there is one.
        """
        state = self.cluster.sharding_state(database, collection)
        shard_ids, targeted, routed = self._shards_for_query(state, query)
        if update:  # checked against the filter as it came
            self._check_shard_key_immutable(state.key, query, *update)
        self._note(targeted)
        if len(shard_ids) == 1:
            return self._run_on_owner(database, collection, shard_ids[0],
                                      operation, routed, *update)
        merged = OperationResult()
        if strategy == PROBE:
            results: list[OperationResult] = []
            for shard_id in shard_ids:
                result = self._run_on_shard(database, collection, shard_id,
                                            operation, routed, *update)
                results.append(result)
                if result.matched_count or result.deleted_count:
                    break
        else:
            results, walls = self._fanout(database, collection, shard_ids,
                                          operation, routed, *update)
            merged.shard_wall_seconds = {
                self._shard_names[shard_id]: wall
                for shard_id, wall in zip(shard_ids, walls)}
        for shard_id, result in zip(shard_ids, results):  # the shards reached
            merged.matched_count += result.matched_count
            merged.modified_count += result.modified_count
            merged.deleted_count += result.deleted_count
            merged.shard_costs[self._shard_names[shard_id]] = result.ticks
        merged.ticks = combine_shard_costs(merged.shard_costs,
                                           parallel=strategy != PROBE)
        return merged

    # -- reads ----------------------------------------------------------------------

    def find_with_cost(self, database: str, collection: str, query: dict[str, Any],
                       limit: int | None = None) -> OperationResult:
        if limit is not None and (type(limit) is not int or limit < 1):
            return no_documents(limit)  # Collection._find_with_cost's rule
        state = self.cluster.sharding_state(database, collection)
        # Read once: the parse routes the read, orders its merge and is what
        # the shards read.
        shard_ids, targeted, query = self._shards_for_query(state, query)
        self._note(targeted)
        if len(shard_ids) == 1:
            return self._run_on_owner(database, collection, shard_ids[0],
                                      "find_with_cost", query, limit)
        # Deduplicated by ``_id`` (mid-migration a document is on donor and
        # recipient for a moment; a single-owner read cannot see duplicates),
        # and a limited read is cut in a single server's emission order.
        if limit is None or not shard_ids:
            results, walls = self._fanout(database, collection, shard_ids,
                                          "find_with_cost", query)
            documents = merge_shard_streams(
                [result.documents for result in results], None, None)
        else:
            # An empty filter, sent as it came, constrains no field: no order.
            results, walls, documents = self._merge_prefetched(
                database, collection, shard_ids, query, limit,
                _emission_order(query.intervals) if query else None)
        return self._merged(shard_ids, results, walls, documents)

    def aggregate(self, database: str, collection: str,
                  pipeline: list[dict[str, Any]] | None = None) -> OperationResult:
        """Run an aggregation pipeline with shard pushdown.

        The pipeline is rewritten by
        :func:`~repro.docstore.aggregation.split_pipeline` into a per-shard
        stage and a router merge stage (scatter--partial--merge): a pushed
        ``$group`` ships one partial accumulator-state row per group per
        shard, and a pushed ``$sort``/``$limit`` ships pre-sorted limited
        streams the router ordered-merges -- suspended ones it reads only
        as far as the limit needs (:meth:`_merge_prefetched`) when the order
        is ascending.  A leading ``$match`` drives
        shard targeting exactly like a ``find``.  Shards are contacted in
        parallel -- one dispatch per shard through the cluster's
        :class:`~repro.docstore.sharding.executor.ShardExecutor` (serial
        once the cluster is closed) -- so the merged cost is the
        slowest shard's, and wall-clock tracks it under
        ``real_service_scale``.  Determinism rule: whatever order shard
        replies arrive in, partial rows and pre-sorted streams are merged
        in shard_id order, so the output equals a single server's exactly.
        """
        split = split_pipeline(pipeline)
        state = self.cluster.sharding_state(database, collection)
        shard_ids, targeted, __ = self._shards_for_query(state, split.leading)
        self._note(targeted)
        if len(shard_ids) == 1:
            # One owning shard sees every matching document: the whole
            # pipeline runs there (its group/sort order is already the
            # canonical one).
            return self._run_on_owner(database, collection, shard_ids[0],
                                      "aggregate", split.pipeline)
        if not shard_ids:
            return OperationResult()  # contradictory leading match: nothing can match
        if split.mode == "group":
            results, walls = self._fanout(database, collection, shard_ids,
                                          "aggregate_partial",
                                          split.shard_stages, split.group)
            row_lists = [result.documents for result in results]
            documents = combine_partial_groups(row_lists, split.group)
        elif split.merge_limit is not None and merges_lazily(split.sort_spec):
            results, walls, documents = self._merge_prefetched(
                database, collection, shard_ids, split.shard_stages,
                split.merge_limit, split.sort_spec)
        else:
            results, walls = self._fanout(database, collection, shard_ids,
                                          "aggregate", split.shard_stages)
            shard_documents = [result.documents for result in results]
            documents = merge_shard_streams(shard_documents, split.sort_spec,
                                            split.merge_limit)
        return self._merged(shard_ids, results, walls,
                            apply_stages(documents, split.router_stages))

    def _merge_prefetched(self, database: str, collection: str,
                          shard_ids: list[int], source: Any, limit: int,
                          order: list[tuple[str, int]] | None,
                          ) -> tuple[list[ShardStream], list[float], list[Any]]:
        """The lane of every *limited* multi-shard read whose merge streams
        (:func:`~repro.docstore.aggregation.merges_lazily`): a ``find``
        (``source`` is its filter as the shards read it) and shard stages
        ending in a ``$limit`` (a parsed pipeline).

        The fan-out opens each shard's stream and reads that shard's share
        of the limit on its own worker (``open_read``: a
        :class:`~repro.docstore.aggregation.ShardStream` each); the merge
        then resumes, on this thread, only the streams whose documents
        really are next, so the cluster examines about ``limit + shards``
        documents instead of ``shards * limit``.  Whatever happens -- the
        merge stopped early or raised, a sibling shard's open raised out of
        the fan-out -- every stream that was opened is closed here, which
        settles its cost and finishes its span.  Returns the closed streams
        (``ticks`` is a shard's cost), the measured wall of each
        open and the merged documents: what :meth:`_merged` takes.
        """
        opened: list[ShardStream] = []
        try:
            streams, walls = self._fanout(
                database, collection, shard_ids, "open_read", source, limit,
                -(-limit // len(shard_ids)), opened)
            documents = merge_shard_streams(streams, order, limit)
        finally:
            for stream in opened:
                stream.close()
        return streams, walls, documents

    def _merged(self, shard_ids: list[int], results: list[Any],
                walls: list[float],
                documents: list[dict[str, Any]]) -> OperationResult:
        """The answer of a multi-shard read: the merged ``documents`` at the
        slowest shard's cost, every shard's cost and measured wall by name.
        ``results`` are the shards' ``OperationResult``s or closed
        ``ShardStream``s: whatever says ``ticks``."""
        names = [self._shard_names[shard_id] for shard_id in shard_ids]
        shard_costs = {name: result.ticks for name, result in zip(names, results)}
        return OperationResult(
            documents=documents, matched_count=len(documents),
            ticks=combine_shard_costs(shard_costs, parallel=True),
            shard_costs=shard_costs, shard_wall_seconds=dict(zip(names, walls)))

    def distinct(self, database: str, collection: str, field_path: str,
                 query: dict[str, Any] | None = None) -> list[Any]:
        """Distinct values across the targeted shards (degenerate ``$group``).

        Each shard returns its local deduplicated value list; the router
        unions them by :func:`~repro.docstore.values.key` and re-sorts by
        :func:`~repro.docstore.values.order`, so the result is identical to a
        single server's.
        """
        check_field_path(field_path)
        state = self.cluster.sharding_state(database, collection)
        shard_ids, targeted, query = self._shards_for_query(
            state, {} if query is None else query)
        self._note(targeted)
        if len(shard_ids) == 1:  # already deduplicated and sorted
            return self._run_on_owner(database, collection, shard_ids[0],
                                      "distinct", field_path, query)
        value_lists, _walls = self._fanout(database, collection, shard_ids,
                                           "distinct", field_path, query)
        seen: dict[Any, Any] = {}
        for values in value_lists:  # union in shard_id order: deterministic
            for value in values:
                seen.setdefault(key(value), value)
        return sorted(seen.values(), key=order)

    def count_documents(self, database: str, collection: str,
                        query: dict[str, Any]) -> int:
        state = self.cluster.sharding_state(database, collection)
        shard_ids, targeted, query = self._shards_for_query(state, query)
        self._note(targeted)
        if len(shard_ids) == 1:
            return self._run_on_owner(database, collection, shard_ids[0],
                                      "count_documents", query)
        counts, _walls = self._fanout(database, collection, shard_ids,
                                      "count_documents", query)
        return sum(counts)

    def explain(self, database: str, collection: str,
                query: dict[str, Any] | list[dict[str, Any]],
                limit: int | None = None) -> dict[str, Any]:
        """Cluster-level explain: routing decision plus every shard's plan.

        A pipeline (a list of stages) reports the shard/router split and
        every shard's per-stage pushdown report for its part instead.
        """
        state = self.cluster.sharding_state(database, collection)
        report: dict[str, Any] = {"sharded": True, "collection": collection}
        if isinstance(query, list):
            split = split_pipeline(query)
            routing_query: Any = split.leading
            shard_query: Any = split.shard_stages.raw
            group = None if split.group is None else split.group.raw
            if group is not None:
                shard_query.append({"$group": group})
            report["pipeline"] = list(query)
            report["split"] = {
                "mode": split.mode,
                "shard_stages": split.shard_stages.raw,
                "partial_group": group,
                "router_stages": split.router_stages.raw,
                "merge_limit": split.merge_limit,
            }
        else:
            routing_query = shard_query = report["query"] = query
        shard_ids, targeted, __ = self._shards_for_query(state, routing_query)
        names = [self._shard_names[shard_id] for shard_id in shard_ids]
        report.update(
            shard_key=state.key,
            strategy=state.manager.strategy,
            targeting="targeted" if targeted else "scatter",
            shards=names,
            shard_count=self.cluster.shard_count,
            shard_plans={
                name: self._run_on_shard(database, collection, shard_id,
                                         "explain", shard_query, limit=limit)
                for name, shard_id in zip(names, shard_ids)},
        )
        return report

    # -- index management ---------------------------------------------------------------

    def create_index(self, database: str, collection: str, field_path: str,
                     unique: bool = False) -> str:
        """Broadcast index creation to every shard.

        A unique index is only enforceable when it is prefixed by the shard
        key (each shard can only see its own documents), mirroring the
        MongoDB restriction.
        """
        check_field_path(field_path)  # before any shard is sent it
        state = self.cluster.sharding_state(database, collection)
        if unique and field_path != state.key:
            raise DocumentStoreError(
                f"unique index on {field_path!r} cannot be enforced across "
                f"shards; the shard key is {state.key!r}"
            )
        self._fanout(database, collection, self._every_shard(),
                     "create_index", field_path, unique=unique)
        return field_path

    def drop_index(self, database: str, collection: str, field_path: str) -> bool:
        check_field_path(field_path)
        dropped, _walls = self._fanout(database, collection, self._every_shard(),
                                       "drop_index", field_path)
        return any(dropped)

    # -- internals -------------------------------------------------------------------------

    def _run_on_owner(self, database: str, collection: str, shard_id: int,
                      operation: str, *arguments: Any) -> Any:
        """The single-owner lane: an operation that resolves to one shard
        runs on it directly and its answer is the operation's answer.

        Nothing is merged and the executor is not entered; a costed result
        names its owner in ``shard_costs`` (at the shard's own cost, with no
        ``shard_wall_seconds``: nothing was dispatched), a count or a value
        list passes through as it is.
        """
        result = self._run_on_shard(database, collection, shard_id,
                                    operation, *arguments)
        if isinstance(result, OperationResult):
            result.shard_costs = {self._shard_names[shard_id]: result.ticks}
        return result

    def _run_on_shard(self, database: str, collection: str, shard_id: int,
                      operation: str, *arguments: Any, **keywords: Any) -> Any:
        """Run one collection operation on one shard (a replicated shard
        elects a new primary itself when the operation finds it dead)."""
        target = self.cluster.shard_collection_on(shard_id, database, collection)
        return getattr(target, operation)(*arguments, **keywords)

    def _fanout(self, database: str, collection: str, shard_ids: list[int],
                operation: str, *arguments: Any, **keywords: Any
                ) -> tuple[list[Any], list[float]]:
        """Run one operation on every listed shard, through
        ``executor.scatter`` (which decides between parallel and serial).

        Returns per-shard results and measured wall-clock seconds, both
        aligned with ``shard_ids`` -- callers pass the ids sorted, so every
        merge downstream happens in shard_id order (the determinism rule).
        A shard whose primary died elects inside its task, on the
        dispatching worker thread exactly as it would inline; an
        unrecoverable error surfaces on the calling thread,
        deterministically from the lowest failing shard.  (An operation with
        one owner never gets here: it takes :meth:`_run_on_owner`.)
        """
        def run(shard_id: int) -> Any:
            return self._run_on_shard(database, collection, shard_id,
                                      operation, *arguments, **keywords)
        return self.cluster.executor.scatter(shard_ids, run)

    def _shards_for_query(self, state: "ShardingState",
                          query: dict[str, Any] | ParsedQuery | None,
                          ) -> tuple[list[int], bool, Any]:
        """The shards an operation must contact, whether it is targeted, and
        the filter to send them.

        ``query`` is read here, once, on the calling thread -- unless it pins
        the shard key to one owner, which reads it as a single server would,
        or is empty (``None``: a pipeline without a leading ``$match``).
        What the shards are sent is that parse (a :class:`ParsedQuery`:
        matcher and intervals bound), else ``query`` as it came; a parse the
        caller already holds (a pipeline's leading ``$match``) is used as it
        is.

        Targeted means the shard-key analysis narrowed the fan-out: a pinned
        key, a point set (``$in``), or -- on a range-sharded namespace -- an
        interval overlapping only some chunks.  An unconstrained key (or a
        range on a hashed key) falls back to the full shard list.
        """
        if query is None:
            return self._every_shard(), False, query
        parsed = query if type(query) is ParsedQuery else None
        if parsed is None and not isinstance(query, dict):
            raise DocumentStoreError("queries must be dictionaries")
        pinned, value = equality_value(query if parsed is None else parsed.raw,
                                       state.key)
        if pinned:
            try:
                return [state.manager.shard_for(value)], True, query
            except (DocumentStoreError, TypeError):
                # The pinned value does not compare with the chunk bounds
                # (e.g. an int key on a string-range-sharded namespace): the
                # query cannot be placed, so fall back to scatter-gather.
                return self._every_shard(), False, parsed or ParsedQuery(query)
        if not query:
            return self._every_shard(), False, query
        if parsed is None:
            parsed = ParsedQuery(query)
        return (*_shards_for_intervals(state, parsed.intervals.get(state.key),
                                       self._every_shard()), parsed)

    def _every_shard(self) -> list[int]:
        return list(range(len(self._shard_names)))

    def _note(self, targeted: bool) -> None:
        with self._stats_lock:
            if targeted:
                self.targeted_operations += 1
            else:
                self.scatter_operations += 1

    @staticmethod
    def _check_shard_key_immutable(shard_key: str, query: dict[str, Any],
                                   update: dict[str, Any]) -> None:
        """Reject updates that could change a document's shard key."""
        if shard_key == "_id":
            return  # no update can change ``_id``; replacements preserve it
        if is_update_document(update):
            for operator, spec in update.items():
                if not isinstance(spec, dict):
                    continue
                # a $rename changes the field it renames to as well
                targets = spec.values() if operator == "$rename" else ()
                for field_path in (*spec, *targets):
                    if not isinstance(field_path, str):
                        continue  # the shard refuses it
                    if (field_path == shard_key
                            or field_path.startswith(shard_key + ".")
                            or shard_key.startswith(field_path + ".")):
                        raise DocumentStoreError(
                            f"the shard key {shard_key!r} is immutable"
                        )
            return
        found, value = get_path(update, shard_key)
        if not found:
            raise DocumentStoreError(
                f"replacement documents must carry the shard key {shard_key!r}"
            )
        if isinstance(value, list):
            raise _array_key(shard_key, value)
        pinned, pinned_value = equality_value(query, shard_key)
        if not pinned:
            # Without a pinned key we cannot compare the replacement against
            # the matched document, so the write could silently re-key a
            # document in place on the wrong shard.
            raise DocumentStoreError(
                f"replacement updates must pin the shard key {shard_key!r} "
                "in their query"
            )
        if key(value) != key(pinned_value):
            raise DocumentStoreError(f"the shard key {shard_key!r} is immutable")


def _array_key(shard_key: str, value: list) -> DocumentStoreError:
    """The refusal of an array shard-key value, as MongoDB refuses it: a
    document is placed by the one value it holds, so a targeted read of an
    element would miss it (an update cannot set one: the key is immutable)."""
    return DocumentStoreError(
        f"the shard key {shard_key!r} may not be an array, got {value!r}")


def _shards_for_intervals(state: "ShardingState", interval_set: IntervalSet | None,
                          every: list[int]) -> tuple[list[int], bool]:
    """The shards owning the shard-key values ``interval_set`` allows (the
    filter's constraint on the key; ``None``: there is none), and whether
    that narrowed the fan-out."""
    if interval_set is None or interval_set.is_full:
        return every, False
    if interval_set.is_empty:
        return [], True  # contradictory constraints: nothing can match
    points = interval_set.point_values()
    if points is not None:
        try:
            shards = {state.manager.shard_for(point) for point in points}
        except (DocumentStoreError, TypeError):
            return every, False
        return sorted(shards), len(shards) < len(every)
    shards = set()
    for interval in interval_set:
        owners = state.manager.shards_for_interval(interval)
        if owners is None:
            return every, False  # hashed key or incomparable bounds
        shards |= owners
    # A range that overlaps every chunk did not narrow anything: count it
    # as scatter so the targeting stats stay honest.
    return sorted(shards), len(shards) < len(every)


def _emission_order(constraints: dict[str, Any]) -> list[tuple[str, int]] | None:
    """The order in which every shard emits the matches of a query, given its
    interval analysis (:attr:`~repro.docstore.matching.ParsedQuery.intervals`),
    as the sort spec :func:`~repro.docstore.aggregation.merge_shard_streams`
    takes.

    When exactly one field carries an interval constraint it is the order a
    single server's executor emits for that query shape when the field is
    indexed -- plain record-id order for equality / ``$in`` (``INDEX_EQ``
    reads ``sorted(ids)``), ``(field value, record id)`` for a range (the
    ``INDEX_RANGE`` walk) -- so a limited merge returns the same documents a
    single server would.  Queries without a single constrained field promise
    no order (``None``) and are cut in shard order: their limited result is
    execution-order-dependent, as in MongoDB without a sort -- and so is that
    of a constrained field without an index.
    """
    narrowed = [(field_path, interval_set) for field_path, interval_set
                in constraints.items() if not interval_set.is_full]
    if len(narrowed) != 1:
        return None
    ((field_path, interval_set),) = narrowed
    return [] if interval_set.point_values() is not None else [(field_path, 1)]
