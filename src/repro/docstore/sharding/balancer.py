"""The chunk balancer: evens out chunk ownership across shards.

MongoDB's balancer moves chunks between shards until every shard owns
roughly the same number of chunks; this reproduction implements the same
policy.  A migration physically moves the chunk's documents -- each document
is inserted on the recipient and then deleted from the donor, so no document
is ever lost or duplicated mid-migration (the recipient holds a copy before
the donor forgets it).

Balancing operates on the physical per-shard :class:`~repro.docstore.collection.Collection`
objects of one namespace plus its :class:`~repro.docstore.sharding.chunks.ChunkManager`;
it is invoked by :meth:`ShardedCluster.balance` and by the router's
auto-maintenance hook after bursts of inserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.docstore.collection import Collection
from repro.docstore.cost import TICKS_PER_SECOND
from repro.docstore.documents import get_path
from repro.docstore.planner import bill_scan
from repro.docstore.sharding.chunks import Chunk, ChunkManager
from repro.errors import DuplicateKeyError


@dataclass
class Migration:
    """Record of one chunk migration (for stats, tests and the demo output)."""

    namespace: str
    lower: Any
    upper: Any
    source_shard: int
    target_shard: int
    documents_moved: int
    ticks: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "namespace": self.namespace,
            "lower": self.lower,
            "upper": self.upper,
            "from_shard": self.source_shard,
            "to_shard": self.target_shard,
            "documents_moved": self.documents_moved,
            "simulated_seconds": self.ticks / TICKS_PER_SECOND,
        }


@dataclass
class Balancer:
    """Chunk-count balancing policy.

    Attributes:
        imbalance_threshold: migrations run while the difference between the
            most and least loaded shard exceeds this many chunks (1 mirrors
            MongoDB's steady-state goal).
        migrations: every migration performed, in order.
    """

    imbalance_threshold: int = 1
    migrations: list[Migration] = field(default_factory=list)

    def balance(self, namespace: str, shard_key: str, manager: ChunkManager,
                collections: list[Collection]) -> list[Migration]:
        """Migrate chunks until shard chunk counts are within the threshold.

        ``collections[i]`` must be the physical collection of shard ``i``
        for ``namespace``.  Returns the migrations performed this round.
        """
        performed: list[Migration] = []
        while True:
            counts = manager.chunk_counts()
            donor = max(counts, key=lambda shard: (counts[shard], shard))
            recipient = min(counts, key=lambda shard: (counts[shard], shard))
            if counts[donor] - counts[recipient] <= self.imbalance_threshold:
                break
            # One donor scan yields every chunk's documents; the chunk with
            # the fewest documents is the cheapest to move.
            documents_by_chunk = _documents_by_chunk(
                collections[donor], shard_key, manager, manager.chunks_on(donor))
            chunk = min(documents_by_chunk,
                        key=lambda c: (len(documents_by_chunk[c]), str(c.lower)))
            migration = self.migrate_chunk(namespace, manager, chunk, recipient,
                                           collections, documents_by_chunk[chunk],
                                           shard_key=shard_key)
            performed.append(migration)
        return performed

    def migrate_chunk(self, namespace: str, manager: ChunkManager, chunk: Chunk,
                      target_shard: int, collections: list[Collection],
                      documents: list[dict[str, Any]],
                      shard_key: str = "_id") -> Migration:
        """Move one chunk (its ``documents`` snapshot) to ``target_shard``.

        Ownership is reassigned *first*, then the snapshot's documents are
        moved, then the donor is rescanned for stragglers.  With concurrent
        clients the order matters: if documents moved before the assignment
        flipped, an insert routed to the donor during the copy would be
        stranded there forever (a permanent orphan invisible to targeted
        reads).  Assign-first narrows the race to the *snapshot* being stale,
        which the final donor rescan closes -- any chunk-range document that
        landed on the donor before the flip is swept over too.  During the
        sweep a document can briefly exist on both shards; the router
        deduplicates scatter reads by ``_id`` so clients never observe the
        dual residence.
        """
        source = collections[chunk.shard_id]
        target = collections[target_shard]
        source_shard = chunk.shard_id
        manager.assign(chunk, target_shard)
        cost = 0
        moved = 0
        for document in documents:
            cost += _move_document(source, target, document)
            moved += 1
        # Straggler sweep: writes that reached the donor between the snapshot
        # scan and the ownership flip.
        for document in _chunk_documents(source, shard_key, manager, chunk):
            cost += _move_document(source, target, document)
            moved += 1
        migration = Migration(
            namespace=namespace,
            lower=chunk.lower,
            upper=chunk.upper,
            source_shard=source_shard,
            target_shard=target_shard,
            documents_moved=moved,
            ticks=cost,
        )
        self.migrations.append(migration)
        return migration


def _move_document(source: Collection, target: Collection,
                   document: dict[str, Any]) -> int:
    """Copy one document to the recipient, then delete it from the donor.

    Tolerates races with concurrent clients: the recipient may already hold
    the ``_id`` (a client insert routed there after the ownership flip), and
    the donor copy may already be gone (a client delete).  Either way the
    recipient's copy is authoritative and the donor ends up clean.
    """
    cost = 0
    try:
        cost += target.insert_one(document).ticks
    except DuplicateKeyError:
        pass
    return cost + source.delete_one({"_id": document["_id"]}).ticks


def key_values(collection: Collection,
               shard_key: str) -> list[tuple[dict[str, Any], Any]]:
    """``(document, shard key value)`` for every document on ``collection``
    that holds the key: one pass over its engine, billed the engine's scan
    cost per document in one charge."""
    documents = [document for __, document in collection.engine.scan_uncharged()]
    bill_scan(collection.engine, len(documents))
    return [(document, value) for document in documents
            for found, value in [get_path(document, shard_key)] if found]


def _chunk_documents(collection: Collection, shard_key: str,
                     manager: ChunkManager,
                     chunk: Chunk) -> list[dict[str, Any]]:
    """Every document on ``collection`` whose routing point ``chunk`` covers."""
    return [document for document, value in key_values(collection, shard_key)
            if manager.locate(manager.routing_point(value))[1] is chunk]


def _documents_by_chunk(collection: Collection, shard_key: str,
                        manager: ChunkManager,
                        chunks: list[Chunk]) -> dict[Chunk, list[dict[str, Any]]]:
    """Partition a shard's documents over ``chunks`` in a single scan."""
    documents: dict[Chunk, list[dict[str, Any]]] = {chunk: [] for chunk in chunks}
    for document, value in key_values(collection, shard_key):
        # A document of a chunk that is not among ``chunks`` is not this
        # scan's to move.
        held = documents.get(manager.locate(manager.routing_point(value))[1])
        if held is not None:
            held.append(document)
    return documents
