"""Experiments: the definition of an evaluation with all its parameters."""

from __future__ import annotations

from typing import Any

from repro.core.entities import Experiment
from repro.core.enums import EventType
from repro.core.events import EventService
from repro.core.parameters import (
    evaluation_space_size,
    expand_parameter_space,
    resolve_assignments,
)
from repro.core.repository import Repository
from repro.core.systems import SystemService
from repro.storage.database import Database
from repro.storage.query import eq
from repro.util.clock import Clock
from repro.util.ids import IdGenerator
from repro.util.validation import ensure_non_empty


class ExperimentService:
    """Creates experiments and expands their parameter space."""

    def __init__(self, database: Database, clock: Clock, ids: IdGenerator,
                 systems: SystemService, events: EventService):
        self._clock = clock
        self._ids = ids
        self._systems = systems
        self._events = events
        self._experiments = Repository(database, Experiment)

    # -- CRUD --------------------------------------------------------------------------

    def create(self, project_id: str, system_id: str, name: str,
               parameters: dict[str, Any], description: str = "") -> Experiment:
        """Define an experiment against ``system_id`` within ``project_id``.

        The parameters are validated against the system's parameter
        definitions immediately so that configuration errors surface at
        definition time (as in the UI of Fig. 3a), not when jobs start.
        """
        ensure_non_empty(name, "experiment name")
        definitions = self._systems.parameter_definitions(system_id)
        resolve_assignments(definitions, parameters)
        experiment = Experiment(
            id=self._ids.next("experiment"),
            project_id=project_id,
            system_id=system_id,
            name=name,
            description=description,
            parameters=dict(parameters),
            created_at=self._clock.now(),
        )
        self._experiments.add(experiment)
        self._events.record("experiment", experiment.id, EventType.CREATED,
                            f"experiment {name!r} created")
        return experiment

    def get(self, experiment_id: str) -> Experiment:
        return self._experiments.get(experiment_id)

    def list(self, project_id: str | None = None, include_archived: bool = True) -> list[Experiment]:
        if project_id is None:
            experiments = self._experiments.find(None, order_by="created_at")
        else:
            experiments = self._experiments.find(eq("project_id", project_id),
                                                 order_by="created_at")
        if not include_archived:
            experiments = [e for e in experiments if not e.archived]
        return experiments

    # -- parameter space -----------------------------------------------------------------

    def job_parameter_sets(self, experiment_id: str) -> list[dict[str, Any]]:
        """One parameter dictionary per job the experiment expands into."""
        experiment = self.get(experiment_id)
        definitions = self._systems.parameter_definitions(experiment.system_id)
        assignments = resolve_assignments(definitions, experiment.parameters)
        return expand_parameter_space(assignments)

    def space_size(self, experiment_id: str) -> int:
        """Number of jobs one evaluation of this experiment will create."""
        experiment = self.get(experiment_id)
        definitions = self._systems.parameter_definitions(experiment.system_id)
        assignments = resolve_assignments(definitions, experiment.parameters)
        return evaluation_space_size(assignments)
