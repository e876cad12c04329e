"""Collections: the CRUD surface of the document store.

A collection combines

* a storage engine instance (wiredTiger or mmapv1) holding the documents,
* an index catalog of ordered secondary indexes maintained on every write,
* an ``_id`` primary index (a record-id set for point lookups plus an
  ordered index so ``_id`` range scans never touch the whole collection), and
* a :class:`~repro.docstore.planner.QueryPlanner` that picks the access path
  (``ID_LOOKUP`` / ``INDEX_EQ`` / ``INDEX_RANGE`` / ``FULL_SCAN``) for every
  read and drives ``find`` / ``find_one`` / ``count`` / ``update`` /
  ``delete``; :meth:`Collection.explain` exposes its decisions.

Every operation returns an :class:`OperationResult` carrying the simulated
cost so workload drivers can account latency without real sleeping.

**Copy-on-write document protocol.**  The write boundary freezes one
canonical stored document per insert or replacement -- validated,
deep-copied and sized in a single walk
(:func:`~repro.docstore.documents.freeze_document`); an operator update
builds its post-image from the stored version and its stored size
(:func:`~repro.docstore.update_ops.apply_update`), copying and measuring
only the top-level fields it touches -- and the engines store that object
as-is.  Reads hand the stored object back by
reference to *internal* consumers (planner re-checks, index maintenance,
oplog capture, router merging); only the client surface
(:class:`~repro.docstore.cursor.Cursor`, :meth:`find_one`,
:class:`~repro.docstore.client.DocumentClient`) materialises a defensive
copy, exactly once per returned document.  Callers of the internal read
paths (:meth:`find_with_cost` / ``_find_with_cost``) must treat the documents they
receive as immutable.

**Concurrency protocol (PR 6).**  Reads are *latch-free*: stored documents
are frozen, both engines serve point reads from structures a reader can
never observe torn (a copy-on-write B-tree snapshot / a single dict
lookup), and index candidate enumeration reads bucket snapshots.  A full
scan answers from *one* engine snapshot (``StorageEngine.read_scan``): it
never sees a document twice or a deleted one as a miss, where ids listed on
one snapshot used to be re-read on later ones.  Writes
follow the lock hierarchy documented in :mod:`repro.docstore.locks`
(collection -> stripe -> index latch -> engine latch):

* ``insert_one`` freezes the document outside any lock, then under the
  engine's write lock re-checks the id (the pre-lock duplicate check is
  only a fast-fail), indexes, inserts and notifies.
* ``update_one`` / ``delete_one`` use *locate-lock-revalidate*: find a
  candidate latch-free, take its write lock, re-read the current version
  and re-check the query against it -- retrying the find when a concurrent
  writer invalidated the candidate.  The update is applied to the freshest
  version under the lock, so read-modify-write operators (``$inc``) never
  lose updates.
* ``insert_many``, ``update_many`` / ``delete_many`` and a member's
  ``apply_post_images`` take one ``write_batch`` round (collection
  exclusive) for all their documents; the multi-document updates and
  deletes find latch-free first and revalidate each match under it.
* index mutations happen under a per-collection index latch nested inside
  the write lock, keeping index writers serialised while index readers
  stay latch-free.
* change notification fires inside the write lock, so oplog order always
  equals apply order.

**One write.**  Every change of stored state -- an insert, an update, a
delete, one document or a run of them -- goes through one sequence,
:meth:`Collection._store_run`: index each record by its kind, store the run
with the engine's one write (``StorageEngine.store_batch``), enter it into
the id set, bill the index upkeep and announce it to the change listener
once (a member's replay announces nothing).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.docstore.cost import TICKS_PER_SECOND
from repro.docstore.cursor import Cursor, cursor_read
from repro.docstore.observability import render_query_shape
from repro.docstore.documents import (
    check_field_path,
    check_id,
    clone_document,
    freeze_document,
    with_id,
)
from repro.docstore.engine_base import StorageEngine
from repro.docstore.indexes import IndexCatalog, SecondaryIndex
from repro.docstore.matching import compile_query
from repro.docstore.operations import generated
from repro.docstore.planner import QueryPlanner, bill_scan
from repro.docstore.update_ops import apply_update, is_update_document
from repro.docstore import values
from repro.errors import DocumentStoreError, DuplicateKeyError

#: What :meth:`Collection._store_run` stores: ``(record_id, current,
#: post_image, size)`` -- ``current`` ``None`` for a new record,
#: ``post_image`` ``None`` for a delete.
_Record = tuple[str, dict[str, Any] | None, dict[str, Any] | None, int]


@dataclass(slots=True)
class OperationResult:
    """Outcome of a single collection operation.

    Attributes:
        acknowledged: True for every completed operation.
        matched_count / modified_count / deleted_count / inserted_ids: the
            usual driver-level counters.
        ticks: total simulated service time charged by the engine, in ticks
            (:data:`~repro.docstore.cost.TICKS_PER_SECOND`);
            :attr:`simulated_seconds` reports it in seconds.
        documents: result documents for read operations.  On results returned
            by the internal ``find_with_cost`` path these are the stored
            objects themselves (treat as immutable); the client surface
            replaces them with defensive copies.
        shard_costs: per-shard cost breakdown in ticks, filled in by the sharding
            router when the operation ran against a cluster (empty for
            single-server operations).
        shard_wall_seconds: measured per-shard wall-clock seconds for router
            fan-outs (empty for single-server and single-shard operations);
            unlike ``shard_costs`` these are real elapsed times, so they
            expose the actual straggler under parallel dispatch.
    """

    acknowledged: bool = True
    matched_count: int = 0
    modified_count: int = 0
    deleted_count: int = 0
    inserted_ids: list[str] = field(default_factory=list)
    ticks: int = 0
    documents: list[dict[str, Any]] = field(default_factory=list)
    shard_costs: dict[str, int] = field(default_factory=dict)
    shard_wall_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def simulated_seconds(self) -> float:
        """``ticks`` in seconds, for whoever reports the operation."""
        return self.ticks / TICKS_PER_SECOND


def no_documents(limit: Any) -> OperationResult:
    """What a read answers whose ``limit`` is not a positive integer, on every
    topology: ``0`` asks for nothing, so nothing is read and nothing returned
    (as ``Cursor.limit(0)``); a negative, ``bool`` or non-integer limit is an
    error.  Called behind the one inline compare where a limit is consumed."""
    if type(limit) is int and limit == 0:
        return OperationResult()
    raise DocumentStoreError(
        f"a read limit must be a non-negative integer or None, got {limit!r}")


class DerivedReads:
    """What a :class:`Collection` and its stand-ins (a replica set's, a
    cluster's) derive from the table operations they carry."""

    def find_one(self, query: dict[str, Any] | None = None) -> dict[str, Any] | None:
        """Return a copy of the first matching document or ``None``."""
        result = self.find_with_cost(query, limit=1)
        if not result.documents:
            return None
        return clone_document(result.documents[0])

    def __len__(self) -> int:
        return self.count_documents({})


# Every operation of the table on a Collection: one gate (profiling off = one
# attribute load and one branch, then straight into the ``_<name>``
# implementation), one span wrapper behind it.
_GATED_OPERATION = """
def {name}(self, {params}):
    profiler = self.profiler
    if profiler is None or not profiler.enabled:
        return self._{name}({args})
    return self._spanned({span!r}, {subject}, self._{name}, {args})
"""


@generated(_GATED_OPERATION)
class Collection(DerivedReads):
    """A named set of documents stored in one engine.

    The table's operations (:mod:`repro.docstore.operations`) are generated
    gates around the hand-written ``_<name>`` implementations below, each of
    which accepts the open profiler ``span`` (``None`` when profiling is off).
    """

    def __init__(self, name: str, engine: StorageEngine,
                 profiler: Any = None, namespace: str | None = None):
        self.name = name
        self.engine = engine
        # Operation profiler shared with the owning server (None for bare
        # collections); level 0 costs the generated gate's attribute load
        # and branch.  ``namespace`` is the ``db.collection`` string spans
        # report (defaults to the bare collection name).
        self.profiler = profiler
        self.namespace = namespace or name
        self.indexes = IndexCatalog()
        self._ids: set[str] = set()
        # Ordered index over the ``_id`` values so range predicates on the
        # primary key are real range scans.  It is primary-key bookkeeping,
        # not a catalog entry: it does not count towards index-maintenance
        # cost (the engines already charge for their own key structures).
        self._id_index = SecondaryIndex("_id")
        self.planner = QueryPlanner(self)
        # Optional write observer, called ``(operation, records)`` once per
        # successful document change with the ``(record_id, post_image,
        # size)`` records it stored: one for a single write, a multi-document
        # write's run at once, ``(record_id, None, 0)`` for a delete.  The
        # replication subsystem attaches one to a primary's collections to
        # capture the exact post-images, with their stored sizes, that
        # secondaries put in place through :meth:`apply_post_images` (which
        # it is not told of); ``None`` costs nothing.
        # Post-images are the frozen stored documents -- listeners may keep
        # references but must never mutate them.
        self.change_listener: Any = None
        # Serialises index mutations (catalog + _id index); nested strictly
        # inside a held write lock (see the module docstring's hierarchy).
        self._index_latch = threading.Lock()

    # -- profiling --------------------------------------------------------------

    def _spanned(self, label: str | None, subject: Any, operation: Any,
                 *arguments: Any) -> Any:
        """Run one operation inside a :class:`ProfiledOp` span.

        Only entered when the profiler is enabled.  The span's lock wait is
        the *calling thread's* wait delta across the operation, read from the
        engine's :class:`~repro.docstore.locks.LockStats` thread-local
        accounting.  Operations without a span label (DDL) run bare.
        """
        if label is None:
            return operation(*arguments)
        stats = self.engine.locks.stats
        wait_before = stats.thread_wait_seconds()
        profiler = self.profiler
        span = profiler.start(
            label, self.namespace,
            None if subject is None else render_query_shape(subject))
        try:
            result = operation(*arguments, span=span)
            span.note_result(result)
            return result
        except BaseException as error:
            span.errored = type(error).__name__
            raise
        finally:
            span.lock_wait_ms = (stats.thread_wait_seconds()
                                 - wait_before) * 1000.0
            profiler.finish(span)

    # -- writes -----------------------------------------------------------------

    def _insert_one(self, document: dict[str, Any],
                    span: Any = None) -> OperationResult:
        """Insert a single document (an ``_id`` is generated when missing)."""
        stored_id, frozen, size = self._prepare_insert(document)
        with self.engine.locks.write(stored_id):
            # The duplicate check in _prepare_insert ran outside the lock and
            # is only a fast-fail; identical record ids map to the same
            # stripe, so this re-check under the write lock is authoritative
            # -- exactly one of two concurrent same-id inserts succeeds.
            if stored_id in self._ids:
                raise self._duplicate(frozen)
            cost = self._store_run("insert", [(stored_id, None, frozen, size)], [])
        return OperationResult(inserted_ids=[frozen["_id"]], ticks=cost)

    def _insert_many(self, documents: list[dict[str, Any]],
                     span: Any = None) -> OperationResult:
        """Insert several documents as one batch.

        Documents are frozen and indexed in order up to the first failing
        one and the valid prefix is stored as one run (:meth:`_store_run`)
        under a single batch-wide lock round.  On failure the prefix stays
        inserted and the error is re-raised -- exactly the semantics of
        looping :meth:`insert_one` (MongoDB's ordered inserts) -- carrying
        the ids of that prefix as ``inserted_ids`` (a shard's ``nInserted``):
        a failed batch says how far it got, which is what lets the sharded
        router send each shard its share of a batch and still end where the
        loop would.  Result cost and engine accounting are ``==`` those of
        the loop; batching only amortises the real-world bookkeeping.
        """
        ids: list[Any] = []  # the ``_id`` of every record prepared, in order

        def prepared() -> Iterator[_Record]:
            seen: set[str] = set()
            for document in documents:
                stored_id, frozen, size = self._prepare_insert(document)
                if stored_id in seen:
                    raise self._duplicate(frozen)
                seen.add(stored_id)
                ids.append(frozen["_id"])
                yield stored_id, None, frozen, size

        stored: list[str] = []
        error: Exception | None = None
        # The whole batch runs under the collection-exclusive batch lock so
        # the per-document duplicate checks, index updates and engine inserts
        # cannot interleave with concurrent single-document writers.
        with self.engine.locks.write_batch():
            try:
                cost = self._store_run("insert", prepared(), stored)
            except Exception as failure:  # keep the valid prefix, re-raise below
                error = failure
        inserted = ids[:len(stored)]  # a run stores a prefix of what it drew
        if error is not None:
            error.inserted_ids = inserted
            raise error
        return OperationResult(inserted_ids=inserted, ticks=cost)

    def _store_run(self, operation: str | None, records: Iterable[_Record],
                   stored: list[str]) -> int:
        """Change stored state: the one sequence every document write of the
        collection goes through.  Each ``(record_id, current, post_image,
        size)`` record puts ``post_image`` (frozen, ``size`` bytes) where
        ``current`` is stored -- a new record when ``current`` is ``None``, a
        delete when ``post_image`` is -- and the caller holds the lock that
        covers them all (a stripe for one record, ``write_batch`` for more).

        Under the index latch each record is indexed by its kind -- a run of
        more than one record (records drawn from an iterator count as such)
        through one writer per index tree, published when the records are
        indexed, before the engine stores any, so the index trees always
        hold what the engine holds; then the
        run is stored with one ``store_batch``, entered into ``_ids``, its
        non-deletes billed one index upkeep each, and announced to the change
        listener once, as ``operation`` (``None``, a member's replay,
        announces nothing).  Appends the ids it stored to ``stored`` and
        returns what they cost.  A record its indexes refuse
        -- or that ``records``, drawn one at a time, fails to produce -- ends
        the run: those before it are stored, billed and announced, then the
        error is raised."""
        run: list[tuple[str, dict[str, Any] | None, int]] = []
        try:
            with self._index_latch:
                runs = (self.indexes.open_runs(self._id_index)
                        if type(records) is not list or len(records) > 1 else ())
                for record_id, current, document, size in records:
                    if current is None:
                        self._index_new_document(record_id, document)
                    elif document is None:
                        self.indexes.remove_document(record_id, current)
                        self._id_index.remove(record_id, current)
                    else:
                        self.indexes.replace_document(record_id, current, document)
                    run.append((record_id, document, size))
        finally:  # what was indexed is published and stored, also on a failure
            for index in runs:  # (the batch lock keeps every other writer out)
                index.publish_run()
            cost = 0
            if run:
                engine = self.engine
                cost = engine.store_batch(run)
                written = 0
                for record_id, document, __ in run:
                    if document is None:
                        self._ids.discard(record_id)
                    else:
                        self._ids.add(record_id)
                        written += 1
                    stored.append(record_id)
                if written:
                    cost += engine.index_maintenance_cost(
                        len(self.indexes), written) * written
                if self.change_listener is not None and operation is not None:
                    self.change_listener(operation, run)
        return cost

    def _index_new_document(self, record_id: str, frozen: dict[str, Any]) -> None:
        """Add one document to every index, rolling back on failure.

        A unique-index violation can strike after some catalog indexes were
        already updated; removing the document again (removal tolerates
        absent entries) guarantees a failed insert leaves no phantom index
        entries behind.
        """
        try:
            self.indexes.add_document(record_id, frozen)
            self._id_index.add(record_id, frozen)
        except Exception:
            self.indexes.remove_document(record_id, frozen)
            self._id_index.remove(record_id, frozen)
            raise

    def _prepare_insert(self, document: dict[str, Any]) -> tuple[str, dict[str, Any], int]:
        """Freeze one incoming document: id it, validate+copy+size in one walk."""
        if not isinstance(document, dict):
            raise DocumentStoreError(
                f"documents must be dictionaries, got {type(document).__name__}"
            )
        frozen, size = freeze_document(with_id(document))
        _id = frozen["_id"]  # its record id, the ``str`` case inline
        stored_id = (_id if type(_id) is str and not _id.startswith(values.ESCAPE)
                     else values.record_id(_id))
        if stored_id in self._ids:
            raise self._duplicate(frozen)
        return stored_id, frozen, size

    def _duplicate(self, document: dict[str, Any]) -> DuplicateKeyError:
        return DuplicateKeyError(
            f"duplicate _id {document['_id']!r} in collection {self.name!r}")

    def _update_one(self, query: dict[str, Any], update: dict[str, Any],
                    span: Any = None) -> OperationResult:
        """Apply ``update`` to the first document matching ``query``.

        Locate-lock-revalidate: the candidate is found latch-free, then
        re-validated under its write lock against the *current* stored
        version; the update is computed from that freshest version, so
        read-modify-write operators never lose concurrent updates.  When a
        concurrent writer invalidated the candidate, the find is retried.
        """
        total_cost = 0
        while True:
            found = self._find_with_cost(query, 1, span)
            total_cost += found.ticks
            if not found.documents:
                return OperationResult(matched_count=0, ticks=total_cost)
            document = found.documents[0]
            _id = document["_id"]  # its record id, the ``str`` case inline
            record_id = (_id if type(_id) is str and not _id.startswith(values.ESCAPE)
                         else values.record_id(_id))
            with self.engine.locks.write(record_id):
                current, size = self.engine.peek(record_id) or (None, 0)
                if current is None or (current is not document
                                       and not compile_query(query)(current)):
                    continue  # lost the race with a concurrent writer: re-find
                new_document, size = apply_update(current, size, update)
                cost = self._store_run("update", [(
                    record_id, current, new_document, size)], [])
            return OperationResult(
                matched_count=1,
                # Changed when it is stored changed: ``!=``, or the text of
                # what ``==`` holds equal (``True`` -> ``1``, ``1`` -> ``1.0``
                # are writes too, as a changed BSON type is); no Python call.
                modified_count=int(new_document != current
                                   or repr(new_document) != repr(current)),
                ticks=total_cost + cost,
            )

    def _update_many(self, query: dict[str, Any], update: dict[str, Any],
                     span: Any = None) -> OperationResult:
        """Apply ``update`` to every matching document, stored as one run
        (:meth:`_store_matches`)."""
        return self._store_matches("update", query, update, span)

    def _store_matches(self, operation: str, query: dict[str, Any],
                       update: dict[str, Any] | None, span: Any) -> OperationResult:
        """Store what ``operation`` makes of every document matching
        ``query``: its post-image under ``update``, or, for ``"delete"``
        (``update`` is ``None``), nothing.

        The find is latch-free; then, in one ``write_batch`` round, each
        candidate is re-validated in find order (``peek`` and, when a
        concurrent writer replaced it, re-match -- the query compiled once
        for the call; one deleted or changed away from the query is skipped,
        not re-found), its post-image computed, and the whole set stored with
        one :meth:`_store_run`.  Documents, indexes, result, cost and engine
        accounting are ``==`` those of writing the matches one at a time
        under their stripe locks; a failure stores the matches before it,
        then raises.
        """
        found = self._find_with_cost(query, span=span)
        engine = self.engine
        records: list[_Record] = []
        modified = 0
        error: Exception | None = None
        matcher = None  # compiled at the first document a writer changed
        with engine.locks.write_batch():
            try:
                for document in found.documents:
                    _id = document["_id"]  # its record id, the ``str`` case inline
                    record_id = (_id if type(_id) is str
                                 and not _id.startswith(values.ESCAPE)
                                 else values.record_id(_id))
                    current, size = engine.peek(record_id) or (None, 0)
                    if current is None:
                        continue
                    if current is not document:
                        if matcher is None:
                            matcher = compile_query(query)
                        if not matcher(current):
                            continue
                    if update is None:
                        records.append((record_id, current, None, 0))
                        continue
                    new_document, size = apply_update(current, size, update)
                    records.append((record_id, current, new_document, size))
                    if (new_document != current  # as in ``_update_one``
                            or repr(new_document) != repr(current)):
                        modified += 1
            except Exception as failure:  # store the prefix, re-raise below
                error = failure
            ticks = found.ticks + self._store_run(operation, records, [])
        if error is not None:
            raise error
        if update is None:
            return OperationResult(deleted_count=len(records), ticks=ticks)
        return OperationResult(matched_count=len(records),
                               modified_count=modified, ticks=ticks)

    def apply_post_images(
            self, records: list[tuple[str, dict[str, Any] | None, int]]) -> int:
        """Make each ``(record_id, post_image, size)`` record hold, in order
        and in one batch-wide lock round: ``record_id`` stores exactly
        ``post_image`` (``size`` bytes), or nothing when it is ``None``.
        Returns what they cost.

        How a replica-set member applies a run of replicated writes of any
        kind.  A post-image is the primary's frozen stored document, so
        nothing is planned, matched, copied, validated or measured again: the
        object is stored by reference (members share it, as the oplog already
        does) and billed what the write itself would be, and the change
        listener hears nothing of it (a demoted primary keeps its oplog
        capture, and must not log what it replays).  A record the member
        already holds -- an update, idempotent replay, the same id twice in
        the run -- is read first, billed on the state the records before it
        left, so the run is cut before it and it starts the next one: stored
        in place (engine scan order stays the primary's), or removed for a
        delete.  New records join the run they follow, and a record the run
        just deleted starts the next one anew; a delete of a record the
        member does not hold costs nothing at all.  Documents, scan
        order, indexes, the cost and the engine's accounting are ``==`` those
        of applying the records one at a time; only the lock rounds differ,
        and applying them again changes nothing.  A failure leaves the
        records before it applied and names them in the error's
        ``inserted_ids``, as a failed :meth:`insert_many` does.
        """
        engine = self.engine
        cost = 0
        stored: list[str] = []
        run: list[_Record] = []  # a held record first, then new ones
        run_ids: set[str] = set()
        error: Exception | None = None
        with engine.locks.write_batch():
            try:
                for record_id, document, size in records:
                    if (document is not None and record_id not in self._ids
                            and record_id not in run_ids):
                        run.append((record_id, None, document, size))
                        run_ids.add(record_id)
                        continue
                    if run:
                        cost += self._store_run(None, run, stored)
                        run, run_ids = [], set()
                    current = None
                    if record_id in self._ids:
                        current, read_cost = engine.read(record_id)
                        cost += read_cost
                    elif document is None:  # a delete of nothing
                        stored.append(record_id)
                        continue
                    # else the run just deleted it: it is stored anew
                    run.append((record_id, current, document, size))
                    run_ids.add(record_id)
                if run:
                    cost += self._store_run(None, run, stored)
            except Exception as failure:  # keep the valid prefix, re-raise below
                error = failure
        if error is not None:
            error.inserted_ids = stored
            raise error
        return cost

    def _replace_one(self, query: dict[str, Any], replacement: dict[str, Any],
                     span: Any = None) -> OperationResult:
        """Replace the first matching document wholesale."""
        if is_update_document(replacement):
            raise DocumentStoreError("replacement documents may not contain operators")
        check_id(replacement)
        return self._update_one(query, replacement, span=span)

    def _delete_one(self, query: dict[str, Any], span: Any = None) -> OperationResult:
        """Delete the first document matching ``query`` (locate-lock-revalidate)."""
        total_cost = 0
        while True:
            found = self._find_with_cost(query, 1, span)
            total_cost += found.ticks
            if not found.documents:
                return OperationResult(deleted_count=0, ticks=total_cost)
            document = found.documents[0]
            _id = document["_id"]  # its record id, the ``str`` case inline
            record_id = (_id if type(_id) is str and not _id.startswith(values.ESCAPE)
                         else values.record_id(_id))
            with self.engine.locks.write(record_id):
                current, __ = self.engine.peek(record_id) or (None, 0)
                if current is None or (current is not document
                                       and not compile_query(query)(current)):
                    continue  # lost the race with a concurrent writer: re-find
                cost = self._store_run("delete", [(record_id, current, None, 0)], [])
            return OperationResult(deleted_count=1, ticks=total_cost + cost)

    def _delete_many(self, query: dict[str, Any], span: Any = None) -> OperationResult:
        """Delete every matching document, as one run (:meth:`_store_matches`)."""
        return self._store_matches("delete", query, None, span)

    # -- reads ---------------------------------------------------------------------

    def find(self, query: dict[str, Any] | None = None,
             projection: dict[str, int] | None = None) -> Cursor:
        """Return a cursor over documents matching ``query`` (all when None).

        The cursor reads through :func:`~repro.docstore.cursor.cursor_read`,
        like a client handle's: its ``limit`` rides down into the planner (or,
        sorted, into the pipeline), so a limited range scan stops after
        enough matches.  Returned documents are defensive copies (made once,
        by the cursor).
        """
        query = {} if query is None else query
        return Cursor(
            lambda sort_spec, limit: cursor_read(self, query, sort_spec,
                                                 limit).documents,
            projection,
        )

    def explain(self, query: dict[str, Any] | list[dict[str, Any]] | None = None,
                limit: int | None = None) -> dict[str, Any]:
        """Describe the access path ``query`` would use (see the planner).

        ``query`` may also be an aggregation pipeline (a list of stages), in
        which case the report covers the pipeline's per-stage pushdown
        decisions and the source's winning access path.
        """
        if isinstance(query, list):
            from repro.docstore.aggregation import explain_pipeline
            return explain_pipeline(self, query)
        return self.planner.explain(query, limit=limit)

    def _aggregate(self, pipeline: list[dict[str, Any]],
                   span: Any = None) -> OperationResult:
        """Run an aggregation pipeline (see :mod:`repro.docstore.aggregation`).

        This is an internal read path like :meth:`find_with_cost`: documents
        passed through unchanged by the pipeline are the stored objects
        themselves and must be treated as immutable; the client surface
        clones them.
        """
        from repro.docstore.aggregation import execute_pipeline
        return execute_pipeline(self, pipeline, span=span)

    def _aggregate_partial(self, prefix: Any, group_spec: Any,
                           span: Any = None) -> OperationResult:
        """Shard-side partial ``$group``: one accumulator-state row per group.

        The sharding router calls this on every targeted shard, with the
        prefix and the group as its split read them, and combines the
        returned states, so a distributed ``$group`` ships group states
        instead of matching documents.
        """
        from repro.docstore.aggregation import execute_partial
        return execute_partial(self, prefix, group_spec, span=span)

    def _open_read(self, source: Any, limit: int | None, prefetch: int,
                   opened: list[Any]) -> Any:
        """Shard-side start of a limited multi-shard read: this shard's
        :class:`~repro.docstore.aggregation.ShardStream` for a ``find``
        (``source`` is the filter as the router read it, cut at ``limit``) or
        for shard stages (a parsed pipeline), its first ``prefetch``
        documents read, the rest suspended for the router's merge; once open
        it is in ``opened``, which the router closes.  Its span is the
        stream's own: it ends when the stream does.
        """
        from repro.docstore.aggregation import ShardStream
        return ShardStream(self, source, limit, prefetch, opened)

    def _distinct(self, field_path: str, query: dict[str, Any],
                  span: Any = None) -> list[Any]:
        """Distinct values of ``field_path`` among documents matching ``query``."""
        from repro.docstore.aggregation import distinct_values
        check_field_path(field_path)
        found = self._find_with_cost(query, span=span)
        if span is not None:
            span.ticks = found.ticks
        return distinct_values(found.documents, field_path)

    def _count_documents(self, query: dict[str, Any], span: Any = None) -> int:
        """Number of documents matching ``query``.

        An empty query is the engine's own count; anything else is the
        length of what :meth:`_find_with_cost` matched -- a transient list of
        references to stored documents, nothing is copied.
        """
        if type(query) is dict and not query:
            return self.engine.count()
        found = self._find_with_cost(query, span=span)
        if span is not None:
            span.ticks = found.ticks
        return len(found.documents)

    # -- index management -------------------------------------------------------------

    def _create_index(self, field_path: str, unique: bool = False) -> str:
        """Create a secondary index on ``field_path`` and backfill it.

        DDL runs under the collection-exclusive batch lock so the backfill
        scan cannot interleave with concurrent writers.  Readers take no
        latch, so the index is built detached and published only once it is
        full: a concurrent plan sees no index or the whole one, and a unique
        violation during the backfill publishes nothing.  The backfill is
        one run of the index tree, and the enumeration is billed the scan
        cost of each document it reached, in one charge.
        """
        check_field_path(field_path)
        with self.engine.locks.write_batch():
            with self._index_latch:
                if self.indexes.get(field_path) is None:
                    index = SecondaryIndex(field_path, unique=unique)
                    index.open_run()
                    scanned = 0
                    try:
                        for record_id, document in self.engine.scan_uncharged():
                            scanned += 1
                            index.add(record_id, document)
                    finally:
                        bill_scan(self.engine, scanned)
                    self.indexes.publish(index)
            self.planner.invalidate_cache()
        return field_path

    def _drop_index(self, field_path: str) -> bool:
        check_field_path(field_path)
        with self._index_latch:
            dropped = self.indexes.drop(field_path)
        if dropped:
            self.planner.invalidate_cache()
        return dropped

    # -- statistics ----------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """A ``collStats``-style document including engine statistics."""
        engine_stats = self.engine.statistics()
        engine_stats["collection"] = self.name
        engine_stats["indexes"] = self.indexes.names()
        engine_stats["plan_cache"] = self.planner.cache_stats()
        return engine_stats

    # -- internals -------------------------------------------------------------------------

    def index_for(self, field_path: str) -> SecondaryIndex | None:
        """The index usable for ``field_path`` (the ``_id`` index included)."""
        if field_path == "_id":
            return self._id_index
        return self.indexes.get(field_path)

    def record_ids(self) -> set[str]:
        """The live record-id set (planner plumbing for ``ID_LOOKUP``)."""
        return self._ids

    def _find_with_cost(self, query: dict[str, Any],
                        limit: int | None = None, span: Any = None) -> OperationResult:
        """Matching documents *and* the simulated cost: the internal read path.

        A read nothing cuts (no ``limit``) takes every candidate at once
        (``QueryPlan.drain``) and filters the list; a limited read loops over
        the plan's lazy reads and, cut at ``limit``, ends them there.  The
        result documents are the stored objects themselves and must not be
        mutated; the client surface
        (:class:`~repro.docstore.client.CollectionHandle`) copies them.
        """
        if limit is not None and (type(limit) is not int or limit < 1):
            return no_documents(limit)
        plan = self.planner.plan(query, limit=limit)
        if span is not None:
            span.note_plan(plan.access_path, plan.cache_state)
        matcher = plan.matcher
        # Latch-free read path: frozen documents + snapshot-consistent engine
        # structures make torn reads impossible (see module docstring).
        if limit is None:
            documents, examined, read_cost = plan.drain(self.engine)
            if matcher is not None:
                documents = list(filter(matcher, documents))
        else:
            reads = plan.reads(self.engine)
            documents = []
            read_cost = examined = 0
            for document, cost in reads:
                examined += 1
                read_cost += cost
                if document is not None and (matcher is None or matcher(document)):
                    documents.append(document)
                    if len(documents) >= limit:
                        # An engine pass (a FULL_SCAN's, an INDEX_EQ's)
                        # bills when it ends: end it here (point reads have
                        # nothing to close).
                        close = getattr(reads, "close", None)
                        if close is not None:
                            close()
                        break
        if span is not None:
            span.docs_examined += examined
        return OperationResult(documents=documents,
                               ticks=plan.current_lookup_cost() + read_cost,
                               matched_count=len(documents))

    def __len__(self) -> int:
        return self.engine.count()

    def __repr__(self) -> str:
        return f"Collection({self.name!r}, engine={self.engine.name!r}, documents={len(self)})"
