"""Replica sets for the document store: oplog, elections, read/write concern.

This package adds the consistency/availability axis to the document store,
the way MongoDB replica sets do:

* :mod:`~repro.docstore.replication.oplog` -- an append-only, idempotently
  replayable change log with monotonic ``(term, index)`` optimes; the
  primary records post-images, secondaries tail and replay them.
* :mod:`~repro.docstore.replication.member` --
  :class:`~repro.docstore.replication.member.ReplicaSetMember`, one
  :class:`~repro.docstore.server.DocumentServer` plus role, liveness,
  applied optime and simulated ping.
* :mod:`~repro.docstore.replication.replica_set` --
  :class:`~repro.docstore.replication.replica_set.ReplicaSet`, mirroring the
  server surface so ``DocumentClient(ReplicaSet(members=3))`` works wherever
  a server did, with configurable write concern (``1`` .. ``n`` /
  ``"majority"``), read preference (``primary``/``secondary``/``nearest``),
  replication lag and majority-vote elections with rollback.
* :mod:`~repro.docstore.replication.failures` --
  :class:`~repro.docstore.replication.failures.FailureInjector`, which
  kills/restarts/partitions members mid-workload.

``ShardedCluster(shards=N, replicas=M)`` runs a replica set per shard; each
elects its own primary on failover, as a standalone set does.
"""

from repro.docstore.replication.failures import FailureInjector
from repro.docstore.replication.member import (
    ROLE_PRIMARY,
    ROLE_SECONDARY,
    ReplicaSetMember,
)
from repro.docstore.replication.oplog import (
    OP_CREATE_INDEX,
    OP_DELETE,
    OP_DROP_COLLECTION,
    OP_DROP_DATABASE,
    OP_DROP_INDEX,
    OP_INSERT,
    OP_UPDATE,
    ZERO_OPTIME,
    Oplog,
    OplogEntry,
    OpTime,
    apply_entry,
)
from repro.docstore.replication.replica_set import (
    READ_NEAREST,
    READ_PREFERENCES,
    READ_PRIMARY,
    READ_SECONDARY,
    WRITE_CONCERN_MAJORITY,
    ElectionRecord,
    ReplicaSet,
    ReplicatedCollection,
    resolve_write_concern,
)

__all__ = [
    "Oplog",
    "OplogEntry",
    "OpTime",
    "ZERO_OPTIME",
    "apply_entry",
    "OP_INSERT",
    "OP_UPDATE",
    "OP_DELETE",
    "OP_CREATE_INDEX",
    "OP_DROP_INDEX",
    "OP_DROP_COLLECTION",
    "OP_DROP_DATABASE",
    "ReplicaSetMember",
    "ROLE_PRIMARY",
    "ROLE_SECONDARY",
    "ReplicaSet",
    "ReplicatedCollection",
    "ElectionRecord",
    "resolve_write_concern",
    "WRITE_CONCERN_MAJORITY",
    "READ_PRIMARY",
    "READ_SECONDARY",
    "READ_NEAREST",
    "READ_PREFERENCES",
    "FailureInjector",
]
