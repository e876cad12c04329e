"""Deployments: instances of an SuE in specific environments.

Deployments serve two purposes (Section 2.1): evaluating a system in
different environments/versions simultaneously, and parallelising an
evaluation over multiple identical deployments.

A deployment may declare its *topology* -- the deployment shape of the
document store it runs (shards, replicas, quorum configuration; see
:mod:`repro.docstore.topology`).  The control plane stores it as plain data
under ``environment["topology"]``, validated at registration time, so an
evaluation can compare standalone, sharded and replicated deployments of the
same SuE without encoding the shape into every job's parameters.
"""

from __future__ import annotations

from typing import Any

from repro.core.entities import Deployment
from repro.core.repository import Repository
from repro.errors import ValidationError
from repro.storage.database import Database
from repro.storage.query import eq
from repro.util.clock import Clock
from repro.util.ids import IdGenerator
from repro.util.validation import ensure_non_empty


class DeploymentService:
    """Registers and queries deployments of Systems under Evaluation."""

    def __init__(self, database: Database, clock: Clock, ids: IdGenerator):
        self._clock = clock
        self._ids = ids
        self._deployments = Repository(database, Deployment)

    def register(self, system_id: str, name: str, environment: dict[str, Any] | None = None,
                 version: str = "", topology: Any = None) -> Deployment:
        """Register a deployment of ``system_id`` called ``name``.

        ``topology`` (a :class:`~repro.docstore.topology.TopologySpec` or its
        dictionary form) declares the deployment shape; it is validated and
        stored under ``environment["topology"]``.  A topology already present
        in ``environment`` is validated the same way.  A spec object declares
        *every* field; a dictionary pins only the fields it names, leaving
        the rest to the evaluation's job parameters (so ``{"shards": 4}``
        declares a four-shard cluster without freezing the storage engine).
        """
        ensure_non_empty(name, "deployment name")
        deployment = Deployment(
            id=self._ids.next("deployment"),
            system_id=system_id,
            name=name,
            environment=_with_validated_topology(environment, topology),
            version=version,
            active=True,
            created_at=self._clock.now(),
        )
        return self._deployments.add(deployment)

    def get(self, deployment_id: str) -> Deployment:
        return self._deployments.get(deployment_id)

    def list(self, system_id: str | None = None, active_only: bool = False) -> list[Deployment]:
        """Deployments, optionally filtered by system and active flag."""
        if system_id is None:
            deployments = self._deployments.find(None, order_by="created_at")
        else:
            deployments = self._deployments.find(eq("system_id", system_id),
                                                 order_by="created_at")
        if active_only:
            deployments = [d for d in deployments if d.active]
        return deployments

    def deactivate(self, deployment_id: str) -> Deployment:
        """Mark a deployment inactive: it no longer receives jobs."""
        return self._deployments.update(deployment_id, {"active": False})

    def activate(self, deployment_id: str) -> Deployment:
        return self._deployments.update(deployment_id, {"active": True})



def _with_validated_topology(environment: dict[str, Any] | None,
                             topology: Any) -> dict[str, Any]:
    """Merge a declared topology into the environment, normalised to a dict.

    Declaring a topology both ways (the ``topology`` argument *and*
    ``environment["topology"]``) is rejected rather than silently resolved:
    evaluating the wrong cluster shape must fail loudly.

    The control plane stays system-agnostic: topologies are stored as plain
    data, and the docstore layer (which owns the schema) is only imported
    when one is actually declared.
    """
    environment = dict(environment or {})
    if topology is not None and "topology" in environment:
        raise ValidationError(
            "deployment topology declared both in the environment and via "
            "the topology argument; declare it once"
        )
    declared = topology if topology is not None else environment.get("topology")
    if declared is None:
        return environment
    from repro.docstore.topology import TopologySpec

    if isinstance(declared, TopologySpec):
        # A spec object is a complete shape: every field is declared.
        environment["topology"] = declared.as_dict()
    else:
        # A dictionary declaration stays sparse: validate it but store
        # (normalised) only the fields it names, so the declaration pins
        # exactly what the operator wrote -- serializing materialized
        # defaults would silently freeze fields like the storage engine
        # against job-parameter sweeps.
        spec = TopologySpec.parse(declared)
        environment["topology"] = {
            name: getattr(spec, name) for name, value in declared.items()
            if name != "kind" and value not in ("", None)}
    return environment
