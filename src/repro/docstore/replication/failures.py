"""Failure injection for replica sets: kill, restart, partition, heal.

Where :mod:`repro.core.failure` recovers *Chronos jobs* whose agents crash,
this module injects failures into the *System under Evaluation itself*: it
crashes and restarts replica-set members and splits the set into network
partitions mid-workload, so durability/availability trade-offs (write
concern vs data loss, failover time, staleness) become measurable scenarios
rather than hypotheticals.  The injector only flips member state through the
:class:`~repro.docstore.replication.replica_set.ReplicaSet` hooks and keeps
an event log, so every experiment can report exactly what was done to the
deployment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.docstore.cost import TICKS_PER_SECOND
from repro.errors import DocumentStoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.docstore.replication.replica_set import ReplicaSet


class FailureInjector:
    """Injects member failures into one replica set and logs them."""

    def __init__(self, replica_set: "ReplicaSet"):
        self.replica_set = replica_set
        self.events: list[dict[str, Any]] = []

    # -- crashes -----------------------------------------------------------------------

    def kill(self, member_id: int) -> None:
        """Crash one member (the primary included -- that's the point)."""
        self.replica_set.kill_member(member_id)
        self._log("kill", member=member_id)

    def kill_primary(self) -> int:
        """Crash the current primary; returns its member id."""
        primary = self.replica_set.primary
        if primary is None:
            raise DocumentStoreError(
                f"replica set {self.replica_set.set_name!r} has no primary to kill"
            )
        self.kill(primary.member_id)
        return primary.member_id

    def restart(self, member_id: int) -> int:
        """Restart a crashed member; returns its catch-up/resync cost."""
        cost = self.replica_set.restart_member(member_id)
        self._log("restart", member=member_id,
                  catch_up_seconds=cost / TICKS_PER_SECOND)
        return cost

    # -- partitions --------------------------------------------------------------------

    def partition(self, member_ids: list[int] | set[int]) -> None:
        """Split ``member_ids`` away from the rest of the set."""
        self.replica_set.set_partition(set(member_ids))
        self._log("partition", members=sorted(member_ids))

    def heal(self) -> int:
        """Heal the partition; returns the rejoin catch-up cost."""
        cost = self.replica_set.heal_partition()
        self._log("heal", catch_up_seconds=cost / TICKS_PER_SECOND)
        return cost

    def _log(self, event: str, **details: Any) -> None:
        self.events.append({"event": event, **details})

    def __repr__(self) -> str:
        return (f"FailureInjector({self.replica_set.set_name!r}, "
                f"events={len(self.events)})")
