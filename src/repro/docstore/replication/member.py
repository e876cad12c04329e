"""One member of a replica set: a document server plus replication state.

A :class:`ReplicaSetMember` wraps a plain
:class:`~repro.docstore.server.DocumentServer` -- the same class that backs
standalone deployments and sharded-cluster shards -- and adds what
replication needs to know about it: its role, liveness, the optime it has
applied up to, and a simulated network distance (``ping_ticks``) used by
write-concern waits and ``nearest`` reads.

Members keep their server's ``replication`` attribute up to date, so
``server.run_command({"replSetGetStatus": 1})`` and ``server_status()`` on
the *member's own* server report its role and optime (the introspection
surface tests and agents rely on).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Any

from repro.docstore.cost import TICKS_PER_SECOND, CostParameters
from repro.docstore.replication.oplog import (
    ZERO_OPTIME,
    Oplog,
    OplogEntry,
    apply_entry,
)
from repro.docstore.server import DocumentServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.docstore.replication.oplog import OpTime

ROLE_PRIMARY = "PRIMARY"
ROLE_SECONDARY = "SECONDARY"

#: What a member stores of a document entry.
_RECORD = attrgetter("record_id", "document", "size")


class ReplicaSetMember:
    """One ``mongod`` of a replica set."""

    def __init__(self, member_id: int, set_name: str, storage_engine: str,
                 ping_ticks: int = 0,
                 cost_parameters: CostParameters | None = None,
                 **engine_options: Any):
        self.member_id = member_id
        self.set_name = set_name
        self.storage_engine = storage_engine
        self.ping_ticks = ping_ticks
        self._cost_parameters = cost_parameters
        self._engine_options = dict(engine_options)
        self.server = self._new_server()
        self.role = ROLE_SECONDARY
        self.up = True
        self.applied: "OpTime" = ZERO_OPTIME
        # Set when this member's data ran ahead of a rolled-back oplog (it
        # was the primary that died with unreplicated writes): incremental
        # catch-up would be wrong, a full resync is required.
        self.needs_resync = False
        self.entries_applied = 0
        self.resyncs = 0
        self.publish_status()

    @property
    def name(self) -> str:
        return f"{self.set_name}/member{self.member_id}"

    # -- replication ------------------------------------------------------------------

    def apply_entries(self, entries: list[OplogEntry]) -> int:
        """Replay ``entries`` (ordered, contiguous tail) onto this member.

        A maximal run of consecutive document entries into one namespace --
        inserts, updates and deletes alike -- is applied in one round
        (:meth:`Collection.apply_post_images`); only DDL entries go through
        :func:`apply_entry`.  A run never reaches past ``entries``,
        so a member is never ahead of the optime its catch-up was clipped at.
        The member's state, the returned cost and its engines' accounting are
        those of entry-by-entry replay; when an entry fails, ``applied``
        stands at the last one stored.
        """
        cost = 0
        position = 0
        while position < len(entries):
            first = entries[position]
            stop = position + 1
            if first.record_id is not None:  # DDL carries none
                while (stop < len(entries)
                       and entries[stop].record_id is not None
                       and entries[stop].collection == first.collection
                       and entries[stop].database == first.database):
                    stop += 1
            run = entries[position:stop]
            position = stop
            try:
                if first.record_id is None:
                    cost += apply_entry(self.server, first)
                else:
                    collection = (self.server.database(first.database)
                                  .collection(first.collection))
                    cost += collection.apply_post_images(list(map(_RECORD, run)))
            except Exception as failure:
                run = run[:len(getattr(failure, "inserted_ids", ()))]
                raise
            finally:
                if run:
                    self.applied = run[-1].optime
                    self.entries_applied += len(run)
        if entries:
            self.publish_status()
        return cost

    def resync(self, oplog: Oplog) -> int:
        """Initial-sync from scratch: fresh server, full oplog replay.

        This is how a member whose data diverged from the (rolled-back)
        oplog -- or a freshly restarted crashed process -- rebuilds a state
        that is exactly the log's image.
        """
        self.server = self._new_server()
        self.applied = ZERO_OPTIME
        self.entries_applied = 0
        self.needs_resync = False
        self.resyncs += 1
        return self.apply_entries(list(oplog))

    # -- introspection ----------------------------------------------------------------

    def publish_status(self) -> None:
        """Mirror this member's replication view onto its server."""
        self.server.replication = {
            "set": self.set_name,
            "member_id": self.member_id,
            "name": self.name,
            "role": self.role,
            "up": self.up,
            "optime": self.applied.as_list(),
        }

    def status(self, lag_entries: int, partitioned: bool) -> dict[str, Any]:
        """One row of ``replSetGetStatus``."""
        return {
            "member_id": self.member_id,
            "name": self.name,
            "role": self.role,
            "up": self.up,
            "partitioned": partitioned,
            "optime": self.applied.as_list(),
            "lag_entries": lag_entries,
            "ping_ms": self.ping_ticks * 1000 / TICKS_PER_SECOND,
            "entries_applied": self.entries_applied,
            "needs_resync": self.needs_resync,
            "resyncs": self.resyncs,
        }

    # -- internals --------------------------------------------------------------------

    def _new_server(self) -> DocumentServer:
        return DocumentServer(self.storage_engine,
                              cost_parameters=self._cost_parameters,
                              **self._engine_options)

    def __repr__(self) -> str:
        return f"ReplicaSetMember({self.name}, role={self.role}, up={self.up})"
