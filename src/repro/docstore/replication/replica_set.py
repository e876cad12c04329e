"""Replica sets: one primary plus N-1 secondaries behind the server surface.

A :class:`ReplicaSet` is a :class:`~repro.docstore.server.DocumentDeployment`
like a :class:`~repro.docstore.server.DocumentServer` (``database()`` /
``run_command()`` / ``drop_database()`` / ``server_status()`` and the
diagnostics folded over its members), so ``DocumentClient(ReplicaSet(members=3))`` works
everywhere a server or a :class:`~repro.docstore.sharding.cluster.ShardedCluster`
does -- evaluation clients, benchmarks and agents gain replication without
code changes.  The ScalienDB shape from the paper's related work maps on
directly: the primary serialises writes into a log that secondaries replay,
with leader election on failure.

How the pieces fit:

* **Writes** go to the primary's real collections.  A change listener on
  those collections captures every post-image into the shared
  :class:`~repro.docstore.replication.oplog.Oplog`; secondaries tail and
  replay it (idempotently).  A write is one oplog append of its records
  whatever its kind -- a batch insert's run at once -- and a secondary
  applies a run of consecutive document entries in one round; what a
  *failing* write stored before it failed is replicated like any write
  before its error surfaces.
* **Write concern** -- ``w=1`` acknowledges after the primary applies;
  ``w=k`` / ``w="majority"`` blocks until enough secondaries have applied
  the write's optime, charging the slowest required secondary's network
  round-trip plus apply cost to the operation.
* **Replication lag** -- secondaries not needed for the write concern stay
  up to ``replication_lag`` entries behind, which is what ``secondary``
  reads observe: real eventual consistency, measured in the
  ``staleness_*`` scalars.
* **Read preference** -- ``primary`` (consistent), ``secondary``
  (round-robin over secondaries, may be stale), ``nearest`` (lowest ping).
* **Elections** -- when the primary dies or is partitioned from a majority,
  a majority vote among reachable members elects the one with the highest
  applied optime.  Oplog entries the new primary never saw are rolled back
  (``rolled_back_entries``); members whose data ran ahead resync from
  scratch when they rejoin.  A set elects its own primary, on the first
  operation that finds the old one unusable
  (:meth:`ReplicaSet.require_primary`), so failover is transparent to
  clients -- a sharded cluster's shards included: its router only sends
  each operation to the shard.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro.docstore.aggregation import ShardStream
from repro.docstore.collection import (
    Collection,
    DerivedReads,
    OperationResult,
)
from repro.docstore.cost import TICKS_PER_SECOND, CostParameters, to_ticks
from repro.docstore.documents import check_field_path
from repro.docstore.operations import DDL, READ, WRITE, generated, of_kind
from repro.docstore.replication.member import (
    ROLE_PRIMARY,
    ROLE_SECONDARY,
    ReplicaSetMember,
)
from repro.docstore.replication.oplog import (
    OP_CREATE_INDEX,
    OP_DROP_COLLECTION,
    OP_DROP_DATABASE,
    OP_DROP_INDEX,
    Oplog,
    OpTime,
    apply_ddl,
)
from repro.docstore.server import BUILD_INFO, DocumentDeployment
from repro.errors import DocumentStoreError, NoPrimaryError, WriteConcernError

WRITE_CONCERN_MAJORITY = "majority"

READ_PRIMARY = "primary"
READ_SECONDARY = "secondary"
READ_NEAREST = "nearest"
READ_PREFERENCES = (READ_PRIMARY, READ_SECONDARY, READ_NEAREST)

#: Base one-way network delay, in ticks; member pings derive from it.
NETWORK_DELAY = to_ticks(0.00025)
#: Detection plus election cost charged on failover, in ticks.
ELECTION_TIMEOUT = to_ticks(0.01)


def resolve_write_concern(write_concern: int | str, member_count: int) -> int:
    """Number of members (primary included) that must acknowledge a write."""
    if write_concern == WRITE_CONCERN_MAJORITY:
        return member_count // 2 + 1
    if isinstance(write_concern, bool) or not isinstance(write_concern, int):
        raise DocumentStoreError(
            f"write concern must be a positive int or 'majority', "
            f"got {write_concern!r}"
        )
    if not 1 <= write_concern <= member_count:
        raise DocumentStoreError(
            f"write concern w={write_concern} is outside 1..{member_count}"
        )
    return write_concern


@dataclass
class ElectionRecord:
    """One election: who won, with how many votes, at what simulated cost."""

    term: int
    winner_id: int
    votes: int
    member_count: int
    rolled_back_entries: int
    ticks: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "term": self.term,
            "winner": self.winner_id,
            "votes": f"{self.votes}/{self.member_count}",
            "rolled_back_entries": self.rolled_back_entries,
            "simulated_seconds": self.ticks / TICKS_PER_SECOND,
        }


# How the replica set carries each kind of operation: the row's name travels
# as data, exactly as ``primary_write`` / ``routed_read`` expect it; logged
# DDL is the ReplicaSet method of the row's name.
_PRIMARY_WRITE = """
def {name}(self, {params}):
    return self.replica_set.primary_write(self.database, self.name, {name!r}, {args})
"""
_ROUTED_READ = """
def {name}(self, {params}):
    return self.replica_set.routed_read(self.database, self.name, {name!r}, {args})
"""
_LOGGED_DDL = """
def {name}(self, {params}):
    return self.replica_set.{name}(self.database, self.name, {args})
"""


@generated(_PRIMARY_WRITE, of_kind(WRITE))
@generated(_ROUTED_READ, of_kind(READ))
@generated(_LOGGED_DDL, of_kind(DDL))
class ReplicatedCollection(DerivedReads):
    """The replica-set stand-in for a :class:`Collection`.

    Exposes the operation surface
    :class:`~repro.docstore.client.CollectionHandle` (and the sharding
    router/balancer) expect: the table's operations
    (:mod:`repro.docstore.operations`) are generated, routing writes to the
    primary and reads to the member the set's read preference selects.
    """

    def __init__(self, replica_set: "ReplicaSet", database: str, collection: str):
        self.replica_set = replica_set
        self.database = database
        self.name = collection

    def explain(self, query: dict[str, Any] | None = None,
                limit: int | None = None) -> dict[str, Any]:
        """The serving member's query plan plus which member answered."""
        member = self.replica_set.read_member()
        plan = self._on(member).explain(query, limit=limit)
        plan["replication"] = {"member": member.name, "role": member.role,
                               "read_preference": self.replica_set.read_preference}
        return plan

    # -- statistics ----------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Primary ``collStats`` plus a replication summary."""
        stats = self._on(self.replica_set.status_member()).stats()
        stats["replicas"] = self.replica_set.replica_count
        stats["replication"] = self.replica_set.replication_summary()
        return stats

    @property
    def engine(self):
        """The primary's engine (concurrency/name lookups, balancer scans)."""
        return self._on(self.replica_set.require_primary()).engine

    def _on(self, member: ReplicaSetMember) -> Collection:
        return self.replica_set.member_collection(member, self.database, self.name)

    def __repr__(self) -> str:
        return (f"ReplicatedCollection({self.database}.{self.name}, "
                f"set={self.replica_set.set_name})")


class _OplogCapture:
    """The change listener of one of the primary's collections: the records
    of every write it is told of -- a single write's one, a batch's run, a
    delete's ``(record_id, None, 0)`` -- are one oplog append and one advance
    of the primary.  It stays attached when the primary is demoted; what the
    member replays from then on is not told to it
    (:meth:`~repro.docstore.collection.Collection.apply_post_images`).

    Post-images arriving here are the primary's frozen stored documents
    (copy-on-write write boundary): logged by reference, with the size they
    are stored at.  The last optime logged is left in the thread's write
    state, where ``primary_write`` picks it up.
    """

    __slots__ = ("replica_set", "database", "collection")

    def __init__(self, replica_set: "ReplicaSet", database: str, collection: str):
        self.replica_set = replica_set
        self.database = database
        self.collection = collection

    def __call__(self, operation: str,
                 records: list[tuple[str, dict[str, Any] | None, int]]) -> None:
        replica_set = self.replica_set
        state = replica_set._write_state
        entries = replica_set.oplog.append(
            replica_set.term, operation, self.database, self.collection, records)
        state.optime = entries[-1].optime
        replica_set._advance_primary(state.optime, len(entries))


class ReplicaSet(DocumentDeployment):
    """N document servers replicating one oplog behind a single surface.

    Args:
        members: total member count (1 primary + ``members - 1`` secondaries).
        storage_engine: engine every member runs.
        set_name: replica-set name (shows up in statuses and member names).
        write_concern: default for every write -- ``1`` .. ``members`` or
            ``"majority"``.
        read_preference: ``"primary"`` / ``"secondary"`` / ``"nearest"``.
        replication_lag: how many oplog entries secondaries not required by
            the write concern may trail behind (eventual consistency window).
        cost_parameters / engine_options: forwarded to every member server.
    """

    def __init__(
        self,
        members: int = 3,
        storage_engine: str = "wiredtiger",
        set_name: str = "rs0",
        write_concern: int | str = 1,
        read_preference: str = READ_PRIMARY,
        replication_lag: int = 0,
        cost_parameters: CostParameters | None = None,
        **engine_options: Any,
    ):
        super().__init__()
        if members < 1:
            raise DocumentStoreError("a replica set needs at least one member")
        if read_preference not in READ_PREFERENCES:
            raise DocumentStoreError(
                f"unknown read preference {read_preference!r}; "
                f"supported: {READ_PREFERENCES}"
            )
        if replication_lag < 0:
            raise DocumentStoreError("replication_lag cannot be negative")
        resolve_write_concern(write_concern, members)  # validate early
        self.set_name = set_name
        self.storage_engine = storage_engine
        self.write_concern: int | str = write_concern
        self.read_preference = read_preference
        self.replication_lag = replication_lag
        self.members = [
            # Deterministic ping spread with the *last* member closest (1x),
            # the initial primary mid-distance (1.5x) and the rest farther
            # out -- so ``nearest`` genuinely prefers a secondary and its
            # reads observe replication lag like any secondary read.
            ReplicaSetMember(member_id, set_name, storage_engine,
                             ping_ticks=NETWORK_DELAY
                             * (2 + (member_id + 1) % 3) // 2,
                             cost_parameters=cost_parameters, **engine_options)
            for member_id in range(members)
        ]
        self.term = 1
        self.oplog = Oplog()
        self.partitioned: set[int] = set()
        self.elections: list[ElectionRecord] = []
        self.failovers = 0
        self.rolled_back_entries = 0
        # What secondary reads observed (oplog entries the serving member had
        # not applied yet), as running scalars: a set samples for as long as
        # it lives.
        self.staleness_count = 0
        self.staleness_sum = 0
        self.staleness_max = 0
        self.staleness_last = 0
        self._primary_id: int | None = 0
        # Whether a majority is reachable.  Only the four failure hooks below
        # change it, so they compute it and every operation just reads it.
        self._majority_reachable = True
        self.members[0].role = ROLE_PRIMARY
        self.members[0].publish_status()
        # Per *thread*: ``optime`` is the last optime the primary's change
        # listener logged for this thread's write -- what ``primary_write``
        # waits on.  A plain attribute would leak across threads: a write
        # would wait on (and be charged for) another thread's.
        self._write_state = threading.local()
        self._pending_cost = 0
        self._read_cursor = 0
        # Small-state lock for the counters above plus the primary's applied
        # optime: all are read-modify-write hot spots touched from every
        # client thread.
        self._state_lock = threading.Lock()
        # One lock per member serialises oplog application onto it --
        # concurrent catch-ups of the same member would interleave entry
        # batches and double-apply costs.
        self._apply_locks = {member.member_id: threading.Lock()
                             for member in self.members}
        # Elections mutate term, roles, the oplog tail and the primary id as
        # one unit; reentrant because ``step_down``/``require_primary`` call
        # ``elect`` while holding it.
        self._election_lock = threading.RLock()

    # -- membership / roles ---------------------------------------------------------

    @property
    def replica_count(self) -> int:
        return len(self.members)

    @property
    def primary(self) -> ReplicaSetMember | None:
        """The member currently holding the primary role (may be down)."""
        if self._primary_id is None:
            return None
        return self.members[self._primary_id]

    def majority(self) -> int:
        return len(self.members) // 2 + 1

    def reachable_members(self) -> list[ReplicaSetMember]:
        """Members that are up and on the majority side of any partition."""
        return [member for member in self.members
                if member.up and member.member_id not in self.partitioned]

    def require_primary(self) -> ReplicaSetMember:
        """The usable primary, electing one first when there is none.

        A primary is usable when it is up, un-partitioned and can see a
        majority.  Otherwise the operation that noticed holds the election
        (and pays for it); this is the set's one failover path.  Without a
        reachable majority the election raises :class:`NoPrimaryError`.
        """
        member = self.primary
        if self._primary_usable(member):
            return member
        with self._election_lock:
            # Re-check under the lock: another thread noticing the same dead
            # primary may have already elected a replacement, and a second
            # election would needlessly bump the term and roll back its log.
            member = self.primary
            if not self._primary_usable(member):
                self.elect()
            return self.members[self._primary_id]

    def _primary_usable(self, member: ReplicaSetMember | None) -> bool:
        return (
            member is not None
            and member.up
            and member.member_id not in self.partitioned
            and self._majority_reachable
        )

    def _liveness_changed(self) -> None:
        self._majority_reachable = (
            len(self.reachable_members()) >= self.majority())

    def elect(self, exclude_member: int | None = None) -> ElectionRecord:
        """Majority-vote election; the highest-optime reachable member wins.

        Rolls back oplog entries the winner never applied (they lived only
        on the dead primary) and flags members whose data ran ahead of the
        truncated log for resync.  The election's simulated cost is charged
        to the next operation.
        """
        with self._election_lock:
            candidates = [member for member in self.reachable_members()
                          if member.member_id != exclude_member]
            if len(self.reachable_members()) < self.majority() or not candidates:
                self._demote_current_primary()
                self._primary_id = None
                raise NoPrimaryError(
                    f"replica set {self.set_name!r} cannot elect a primary: "
                    f"{len(self.reachable_members())}/{len(self.members)} members "
                    f"reachable, majority is {self.majority()}"
                )
            winner = max(candidates, key=lambda m: (m.applied, -m.member_id))
            self._demote_current_primary()
            self.term += 1
            removed = self.oplog.truncate_after(winner.applied)
            self.rolled_back_entries += len(removed)
            for member in self.members:
                if member.applied > winner.applied:
                    member.needs_resync = True
            winner.role = ROLE_PRIMARY
            winner.publish_status()
            self._primary_id = winner.member_id
            self.failovers += 1
            cost = ELECTION_TIMEOUT + 2 * NETWORK_DELAY
            with self._state_lock:
                self._pending_cost += cost
            record = ElectionRecord(
                term=self.term,
                winner_id=winner.member_id,
                votes=len(self.reachable_members()),
                member_count=len(self.members),
                rolled_back_entries=len(removed),
                ticks=cost,
            )
            self.elections.append(record)
            return record

    def step_down(self) -> ElectionRecord:
        """Voluntary ``replSetStepDown``: the primary yields and a new one is
        elected among the *other* members (ties on optime break toward them)."""
        return self.elect(exclude_member=self._primary_id)

    def _demote_current_primary(self) -> None:
        if self._primary_id is not None:
            old = self.members[self._primary_id]
            old.role = ROLE_SECONDARY
            old.publish_status()

    # -- failure hooks (driven by the FailureInjector) ---------------------------------

    def kill_member(self, member_id: int) -> None:
        """Crash a member.  A dead primary keeps its role until the next
        operation notices and triggers the election -- that detection gap
        is the failover window E11 measures."""
        member = self.members[member_id]
        member.up = False
        self._liveness_changed()
        member.publish_status()

    def restart_member(self, member_id: int) -> int:
        """Restart a crashed member; it rejoins as a secondary and catches up
        (full resync when its old data ran ahead of a rolled-back oplog)."""
        member = self.members[member_id]
        member.up = True
        self._liveness_changed()
        if self._primary_id != member.member_id:
            member.role = ROLE_SECONDARY
        member.publish_status()
        return self.catch_up_member(member)

    def set_partition(self, member_ids: set[int]) -> None:
        """Isolate ``member_ids`` on the minority side of a network split."""
        unknown = member_ids - {member.member_id for member in self.members}
        if unknown:
            raise DocumentStoreError(f"unknown member ids {sorted(unknown)}")
        self.partitioned = set(member_ids)
        self._liveness_changed()

    def heal_partition(self) -> int:
        """Reconnect partitioned members; they catch up (or resync)."""
        healed = self.partitioned
        self.partitioned = set()
        self._liveness_changed()
        cost = 0
        for member_id in sorted(healed):
            member = self.members[member_id]
            if member.role == ROLE_PRIMARY and self._primary_id != member.member_id:
                member.role = ROLE_SECONDARY
                member.publish_status()
            if member.up:
                cost += self.catch_up_member(member)
        return cost

    def catch_up_member(self, member: ReplicaSetMember,
                        target: OpTime | None = None) -> int:
        """Replay the member's oplog tail (or resync when it diverged).

        The per-member apply lock serialises concurrent catch-ups of the
        same member (two write-concern waits can target one secondary); the
        ``member.applied`` read happens under it so each entry is applied
        exactly once.
        """
        with self._apply_locks[member.member_id]:
            if member.needs_resync:
                return member.resync(self.oplog)
            entries = self.oplog.entries_after(member.applied, through=target)
            return member.apply_entries(entries)

    # -- write path --------------------------------------------------------------------

    def primary_write(self, database: str, collection: str, operation: str,
                      *arguments: Any) -> OperationResult:
        """Run a write on the primary, replicate it, honour the write concern."""
        primary = self.require_primary()
        target = self.member_collection(primary, database, collection)
        state = self._write_state
        state.optime = None
        try:
            result: OperationResult = getattr(target, operation)(*arguments)
        except Exception:
            # What a failing write stored before it failed (a batch's valid
            # prefix) stays stored, so it is replicated like any write --
            # ack wait, then tailing -- before the error surfaces: the prefix
            # must survive this primary as it would a standalone's restart.
            self._finish_write(state.optime)
            raise
        result.ticks += self._finish_write(state.optime) + self._take_pending_cost()
        return result

    def create_index(self, database: str, collection: str, field_path: str,
                     unique: bool = False) -> str:
        """Create an index on the primary and replicate it to every member
        (DDL is broadcast eagerly so secondary reads plan like the primary)."""
        check_field_path(field_path)  # before the oplog holds it
        self._logged_ddl(OP_CREATE_INDEX, database, collection, field_path, unique)
        return field_path

    def drop_index(self, database: str, collection: str, field_path: str) -> bool:
        check_field_path(field_path)
        return self._logged_ddl(OP_DROP_INDEX, database, collection, field_path)

    def drop_collection(self, database: str, collection: str) -> bool:
        dropped = self._logged_ddl(OP_DROP_COLLECTION, database, collection)
        self._forget_stand_ins(database, collection)
        return dropped

    def drop_database(self, name: str) -> bool:
        dropped = self._logged_ddl(OP_DROP_DATABASE, name)
        self._forget_stand_ins(name)
        return dropped

    def _logged_ddl(self, operation: str, database: str, collection: str = "",
                    field_path: str | None = None, unique: bool = False) -> bool:
        """Apply one DDL operation on the primary -- guarded as its replay is
        (:func:`apply_ddl`: a drop never *creates* a namespace, an index that
        exists is left alone), so all members stay identical -- then log it
        and broadcast it to every reachable secondary immediately.  Returns
        whether the primary changed; a failing backfill logs nothing."""
        changed = apply_ddl(self.require_primary().server, operation, database,
                            collection, field_path, unique)
        [entry] = self.oplog.append(self.term, operation, database, collection,
                                    field_path=field_path, unique=unique)
        self._advance_primary(entry.optime)
        for member in self.reachable_members():
            if member.role != ROLE_PRIMARY and not member.needs_resync:
                self.catch_up_member(member)
        return changed

    def _finish_write(self, optime: OpTime | None) -> int:
        """Post-write replication: ack wait on the write's own last optime
        (``None`` when it changed nothing), then background tailing."""
        extra = 0
        if optime is not None:
            extra = self._satisfy_write_concern(optime)
        self._background_replicate()
        return extra

    def _satisfy_write_concern(self, target: OpTime) -> int:
        """Block until ``w`` members applied ``target``; returns the wait."""
        needed = resolve_write_concern(self.write_concern, len(self.members)) - 1
        if needed <= 0:
            return 0
        candidates = sorted(
            (member for member in self.reachable_members()
             if member.role != ROLE_PRIMARY),
            key=lambda m: (m.ping_ticks, m.member_id),
        )
        if len(candidates) < needed:
            raise WriteConcernError(
                f"write concern w={self.write_concern!r} needs {needed} "
                f"reachable secondaries, only {len(candidates)} available"
            )
        wait = 0
        for member in candidates[:needed]:
            apply_cost = self.catch_up_member(member, target)
            wait = max(wait, 2 * member.ping_ticks + apply_cost)
        return wait

    def _background_replicate(self) -> None:
        """Keep reachable secondaries within ``replication_lag`` entries.

        This models the asynchronous tailing that happens off the client's
        critical path, so its apply costs are not charged to any operation.
        """
        entries = self.oplog.entries
        horizon = len(entries) - self.replication_lag
        if horizon <= 0:
            return
        target = entries[horizon - 1].optime
        for member in self.reachable_members():
            if member.role == ROLE_PRIMARY or member.needs_resync:
                continue
            if member.applied < target:
                self.catch_up_member(member, target)

    def _take_pending_cost(self) -> int:
        if not self._pending_cost:  # only an election leaves one
            return 0
        with self._state_lock:
            cost, self._pending_cost = self._pending_cost, 0
        return cost

    # -- read path ---------------------------------------------------------------------

    def read_member(self) -> ReplicaSetMember:
        """The member the configured read preference selects for this read.

        Every read served by a secondary samples the staleness it observes
        (oplog entries the member has not applied yet) into the
        ``staleness_*`` scalars.
        """
        member = self._select_read_member()
        if member.role != ROLE_PRIMARY:
            sample = self.oplog.lag_behind(member.applied)
            with self._state_lock:
                self.staleness_count += 1
                self.staleness_sum += sample
                self.staleness_max = max(self.staleness_max, sample)
                self.staleness_last = sample
        return member

    def _select_read_member(self) -> ReplicaSetMember:
        if self.read_preference == READ_PRIMARY:
            return self.require_primary()
        reachable = self.reachable_members()
        if self.read_preference == READ_NEAREST:
            if not reachable:
                raise NoPrimaryError(
                    f"replica set {self.set_name!r} has no reachable members"
                )
            return min(reachable, key=lambda m: (m.ping_ticks, m.member_id))
        usable = [member for member in reachable
                  if member.role != ROLE_PRIMARY and not member.needs_resync]
        if not usable:
            # No readable secondary left: fall back to the primary (the
            # "secondaryPreferred" behaviour, which keeps workloads running
            # through failovers).
            return self.require_primary()
        with self._state_lock:
            cursor = self._read_cursor
            self._read_cursor += 1
        return usable[cursor % len(usable)]

    def routed_read(self, database: str, collection: str, operation: str,
                    *arguments: Any, **keywords: Any) -> Any:
        """Run a read on the preferred member, sampling observed staleness."""
        member = self.read_member()
        target = self.member_collection(member, database, collection)
        result = getattr(target, operation)(*arguments, **keywords)
        if isinstance(result, OperationResult):  # counts and value lists are free
            result.ticks += 2 * member.ping_ticks + self._take_pending_cost()
        elif isinstance(result, ShardStream):  # billed when the router closes it
            result.surcharge += 2 * member.ping_ticks + self._take_pending_cost()
        return result

    # -- member plumbing ---------------------------------------------------------------

    def member_collection(self, member: ReplicaSetMember, database: str,
                          collection: str) -> Collection:
        """The member's physical collection, oplog-instrumented on the primary."""
        physical = member.server.database(database).collection(collection)
        if member.role == ROLE_PRIMARY and physical.change_listener is None:
            physical.change_listener = _OplogCapture(self, database, collection)
        return physical

    def _advance_primary(self, optime: OpTime, entries: int = 1) -> None:
        """The primary applies what it writes: its optime tracks the log head
        (``optime`` is the last of the ``entries`` it just logged).

        Writes on different documents notify concurrently, so the advance is
        a locked monotonic max -- a slow thread carrying an older optime
        must never rewind ``applied`` below a newer write's.
        """
        if self._primary_id is None:
            return
        primary = self.members[self._primary_id]
        with self._state_lock:
            if optime > primary.applied:
                primary.applied = optime
            primary.entries_applied += entries
        primary.publish_status()

    # -- the deployment surface ---------------------------------------------------------

    collection_class = ReplicatedCollection

    def children(self) -> list[tuple[str, DocumentDeployment]]:
        return [(member.name, member.server) for member in self.members]

    def reporting_profiler(self) -> Any:
        return self.status_member().server.profiler

    def collection_names(self, database: str) -> list[str]:
        server = self.status_member().server
        if database not in server.database_names():
            return []
        return server.database(database).collection_names()

    def database_stats(self, database: str) -> dict[str, Any]:
        stats = self.status_member().server.database(database).stats()
        stats["replicas"] = self.replica_count
        return stats

    def status_member(self) -> ReplicaSetMember:
        """A member for status/introspection reads: the primary when usable,
        otherwise the freshest up member (statuses must not need a primary)."""
        member = self.primary
        if member is not None and member.up:
            return member
        up = [candidate for candidate in self.members if candidate.up]
        if not up:
            return self.members[0]
        return max(up, key=lambda m: (m.applied, -m.member_id))

    def database_names(self) -> list[str]:
        return self.status_member().server.database_names()

    def own_command(self, command: dict[str, Any]) -> dict[str, Any]:
        """The replica-set commands: ``replSetGetStatus``,
        ``replSetStepDown``, ``isMaster``/``hello`` (and ``buildInfo``)."""
        if "replSetGetStatus" in command:
            return self.replica_set_status()
        if "replSetStepDown" in command:
            record = self.step_down()
            return {"ok": 1, "term": record.term, "primary": record.winner_id}
        if "isMaster" in command or "hello" in command:
            primary = self.primary
            return {
                "ok": 1,
                "ismaster": True,
                "setName": self.set_name,
                "hosts": [member.name for member in self.members],
                "primary": primary.name if primary else None,
            }
        if "buildInfo" in command:
            return {**BUILD_INFO, "replicaSet": self.set_name,
                    "members": len(self.members)}
        return super().own_command(command)

    def server_status(self) -> dict[str, Any]:
        """A member's ``serverStatus`` plus set-level replication state."""
        status = self.status_member().server.server_status()
        status["commands"] = self._commands_executed
        status["repl"] = self.replication_summary()
        status["metrics"] = self.metrics_snapshot()
        status["locks"] = self.locks_report()
        return status

    def _replication_state(self) -> dict[str, Any]:
        """What ``replSetGetStatus`` and the compact summary both report."""
        return {
            "set": self.set_name,
            "term": self.term,
            "primary": self._primary_id,
            "write_concern": self.write_concern,
            "read_preference": self.read_preference,
            "oplog_entries": len(self.oplog),
            "failovers": self.failovers,
            "rolled_back_entries": self.rolled_back_entries,
        }

    def replica_set_status(self) -> dict[str, Any]:
        """``replSetGetStatus``: per-member roles, optimes and lag."""
        return {
            "ok": 1,
            **self._replication_state(),
            "members": [
                member.status(
                    lag_entries=self.oplog.lag_behind(member.applied),
                    partitioned=member.member_id in self.partitioned,
                )
                for member in self.members
            ],
        }

    def replication_summary(self) -> dict[str, Any]:
        """The compact replication block embedded in statuses and stats."""
        count = self.staleness_count
        return {
            **self._replication_state(),
            "replicas": len(self.members),
            "replication_lag": self.replication_lag,
            "elections": [record.as_dict() for record in self.elections],
            "staleness_samples": count,
            "staleness_mean": self.staleness_sum / count if count else 0.0,
            "staleness_max": self.staleness_max,
        }

    def concurrency_lanes(self) -> int:
        """Writes always serialise on the primary, so ``primary`` reads leave
        the whole set behaving like one server -- and so does ``nearest``,
        which routes every read to the single closest member.  Only
        ``secondary`` reads fan out: they round-robin over the up
        secondaries the way cluster reads spread over shards."""
        if self.read_preference != READ_SECONDARY:
            return 1
        return max(1, len([member for member in self.members
                           if member.up and member.role != ROLE_PRIMARY]))

    def __repr__(self) -> str:
        return (f"ReplicaSet({self.set_name!r}, members={len(self.members)}, "
                f"primary={self._primary_id}, engine={self.storage_engine!r})")
