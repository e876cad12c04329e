"""System (SuE) registration: parameters, result structure and visualisation.

"For every SuE, it is defined which parameters the SuE expects, how the
results are structured, and how they should be visualized." (Section 2.1).
Systems can be registered programmatically (the equivalent of the UI-based
configuration shown in Fig. 2) or loaded from a declarative *extension
bundle* -- a directory containing a ``system.json`` file -- which stands in
for the git/mercurial extension repositories of the original.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.entities import System
from repro.core.enums import DiagramKind
from repro.core.parameters import ParameterDefinition
from repro.core.repository import Repository
from repro.errors import ConflictError, ValidationError
from repro.storage.database import Database
from repro.storage.query import eq
from repro.util.clock import Clock
from repro.util.ids import IdGenerator
from repro.util.validation import ensure_non_empty


def diagram_spec(kind: DiagramKind | str, title: str, x_field: str, y_field: str,
                 group_field: str | None = None) -> dict[str, Any]:
    """Build one diagram specification for a system's result configuration."""
    kind_value = kind.value if isinstance(kind, DiagramKind) else DiagramKind(kind).value
    return {
        "kind": kind_value,
        "title": title,
        "x_field": x_field,
        "y_field": y_field,
        "group_field": group_field,
    }


def result_config(metrics: list[str], diagrams: list[dict[str, Any]] | None = None) -> dict[str, Any]:
    """Build a system result configuration: metric names plus diagram specs."""
    return {"metrics": list(metrics), "diagrams": list(diagrams or [])}


class SystemService:
    """Registers Systems under Evaluation and their configuration."""

    def __init__(self, database: Database, clock: Clock, ids: IdGenerator):
        self._clock = clock
        self._ids = ids
        self._systems = Repository(database, System)

    # -- registration -----------------------------------------------------------

    def register(
        self,
        name: str,
        parameters: list[ParameterDefinition],
        result_configuration: dict[str, Any] | None = None,
        description: str = "",
        owner_id: str = "",
    ) -> System:
        """Register a new SuE with its parameter and result configuration."""
        ensure_non_empty(name, "system name")
        if self._systems.find_one(eq("name", name)) is not None:
            raise ConflictError(f"a system named {name!r} is already registered")
        system = System(
            id=self._ids.next("system"),
            name=name,
            description=description,
            parameters=[definition.to_dict() for definition in parameters],
            result_config=result_configuration or result_config([]),
            owner_id=owner_id,
            created_at=self._clock.now(),
        )
        return self._systems.add(system)

    def register_from_bundle(self, bundle_path: str | Path, owner_id: str = "") -> System:
        """Register an SuE from a declarative extension bundle directory.

        The bundle must contain a ``system.json`` with ``name``,
        ``description``, ``parameters`` (list of parameter-definition
        dictionaries) and ``result_config``.
        """
        bundle = Path(bundle_path)
        manifest_path = bundle / "system.json"
        if not manifest_path.exists():
            raise ValidationError(f"bundle {bundle} does not contain a system.json")
        with manifest_path.open("r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        parameters = [
            ParameterDefinition.from_dict(item) for item in manifest.get("parameters", [])
        ]
        return self.register(
            name=manifest["name"],
            parameters=parameters,
            result_configuration=manifest.get("result_config"),
            description=manifest.get("description", ""),
            owner_id=owner_id,
        )

    # -- retrieval ---------------------------------------------------------------------

    def get(self, system_id: str) -> System:
        return self._systems.get(system_id)

    def get_by_name(self, name: str) -> System | None:
        return self._systems.find_one(eq("name", name))

    def list(self) -> list[System]:
        return self._systems.find(None, order_by="name")

    def parameter_definitions(self, system_id: str) -> list[ParameterDefinition]:
        """The system's parameter definitions as objects."""
        system = self.get(system_id)
        return [ParameterDefinition.from_dict(item) for item in system.parameters]

    def diagrams(self, system_id: str) -> list[dict[str, Any]]:
        """The diagram specifications of the system's result configuration."""
        return list(self.get(system_id).result_config.get("diagrams", []))

    def metrics(self, system_id: str) -> list[str]:
        """The metric names the system's results are expected to report."""
        return list(self.get(system_id).result_config.get("metrics", []))
