"""Parameter types and evaluation-space expansion.

The Chronos web UI lets a system define the parameters an experiment must
provide.  The paper lists the supported parameter types: *Boolean*, *check
box*, *value* types as well as *intervals* and *ratios* (Section 2.2).

An experiment assigns each parameter either a fixed value or a set of values
to sweep; :func:`expand_parameter_space` computes the cartesian product of
all swept parameters, yielding one parameter dictionary per job -- exactly
how an evaluation is split into jobs in the paper's example (one job per
number of threads per storage engine).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.enums import ParameterKind
from repro.errors import ValidationError


@dataclass(frozen=True)
class ParameterDefinition:
    """Declaration of one parameter an SuE expects.

    Attributes:
        name: parameter name used in experiment configurations and job specs.
        kind: one of the UI parameter types.
        description: human-readable explanation shown in the UI.
        options: allowed options (checkbox), or none.
        default: default value when the experiment does not set the parameter.
        required: whether an experiment must assign the parameter.
    """

    name: str
    kind: ParameterKind
    description: str = ""
    options: tuple = ()
    default: Any = None
    required: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind.value,
            "description": self.description,
            "options": list(self.options),
            "default": self.default,
            "required": self.required,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ParameterDefinition":
        return cls(
            name=data["name"],
            kind=ParameterKind(data["kind"]),
            description=data.get("description", ""),
            options=tuple(data.get("options", ())),
            default=data.get("default"),
            required=bool(data.get("required", True)),
        )


def checkbox(name: str, options: Iterable[Any], description: str = "",
             required: bool = True) -> ParameterDefinition:
    """Declare a multi-choice (check box) parameter."""
    return ParameterDefinition(name, ParameterKind.CHECKBOX, description,
                               options=tuple(options), required=required)


def value(name: str, description: str = "", default: Any = None,
          required: bool = True) -> ParameterDefinition:
    """Declare a plain value parameter."""
    return ParameterDefinition(name, ParameterKind.VALUE, description,
                               default=default, required=required)


def interval(name: str, description: str = "", required: bool = True) -> ParameterDefinition:
    """Declare an interval parameter (swept between start and stop by step)."""
    return ParameterDefinition(name, ParameterKind.INTERVAL, description,
                               required=required)


def ratio(name: str, description: str = "", required: bool = True) -> ParameterDefinition:
    """Declare a ratio parameter (e.g. read/write mix such as ``"95:5"``)."""
    return ParameterDefinition(name, ParameterKind.RATIO, description,
                               required=required)


def parse_interval(spec: dict[str, Any]) -> list[Any]:
    """Expand an interval specification into the list of values it covers.

    The specification is ``{"start": a, "stop": b, "step": s}`` with an
    optional ``"scale": "linear" | "geometric"``; geometric intervals multiply
    by ``step`` instead of adding it (useful for thread counts 1, 2, 4, 8...).
    """
    try:
        start, stop, step = spec["start"], spec["stop"], spec["step"]
    except (KeyError, TypeError):
        raise ValidationError(
            f"interval specification must contain start/stop/step, got {spec!r}"
        ) from None
    scale = spec.get("scale", "linear")
    if step <= 0 and scale == "linear":
        raise ValidationError("interval step must be positive")
    if scale == "geometric" and step <= 1:
        raise ValidationError("geometric interval step must be greater than 1")
    values: list[Any] = []
    current = start
    guard = 0
    while current <= stop:
        values.append(current)
        current = current + step if scale == "linear" else current * step
        guard += 1
        if guard > 100000:
            raise ValidationError("interval expansion exceeds 100000 values")
    if not values:
        raise ValidationError(f"interval {spec!r} expands to no values")
    return values


def parse_ratio(spec: str) -> tuple[float, ...]:
    """Parse a ratio string such as ``"95:5"`` into normalised fractions."""
    if not isinstance(spec, str) or ":" not in spec:
        raise ValidationError(f"ratio values must look like '95:5', got {spec!r}")
    try:
        parts = [float(part) for part in spec.split(":")]
    except ValueError:
        raise ValidationError(f"ratio parts must be numbers: {spec!r}") from None
    total = sum(parts)
    if total <= 0:
        raise ValidationError(f"ratio parts must sum to a positive number: {spec!r}")
    return tuple(part / total for part in parts)


@dataclass
class ParameterAssignment:
    """The values an experiment assigns to one parameter.

    ``values`` is the list of values to sweep.  A single-element list means
    the parameter is fixed for the whole evaluation.
    """

    definition: ParameterDefinition
    values: list[Any] = field(default_factory=list)


def resolve_assignments(
    definitions: Iterable[ParameterDefinition],
    experiment_parameters: dict[str, Any],
) -> list[ParameterAssignment]:
    """Validate experiment parameters against the system's definitions.

    Each experiment parameter is either a scalar (fixed value), a list of
    values to sweep, or -- for intervals -- a ``{"start", "stop", "step"}``
    specification.  Unknown parameters raise, missing required parameters
    without defaults raise, booleans may sweep ``[True, False]``, checkbox
    values must come from the declared options.
    """
    definitions = list(definitions)
    known = {definition.name for definition in definitions}
    unknown = set(experiment_parameters) - known
    if unknown:
        raise ValidationError(f"unknown parameter(s) {sorted(unknown)!r}")

    assignments: list[ParameterAssignment] = []
    for definition in definitions:
        if definition.name in experiment_parameters:
            raw = experiment_parameters[definition.name]
        elif definition.default is not None or not definition.required:
            raw = definition.default
        else:
            raise ValidationError(f"missing required parameter {definition.name!r}")
        assignments.append(
            ParameterAssignment(definition, _expand_values(definition, raw))
        )
    return assignments


def _expand_values(definition: ParameterDefinition, raw: Any) -> list[Any]:
    kind = definition.kind
    if kind is ParameterKind.INTERVAL:
        if isinstance(raw, dict):
            return parse_interval(raw)
        if isinstance(raw, list):
            return list(raw)
        return [raw]
    if kind is ParameterKind.CHECKBOX:
        selected = raw if isinstance(raw, list) else [raw]
        invalid = [item for item in selected if item not in definition.options]
        if invalid:
            raise ValidationError(
                f"value(s) {invalid!r} are not valid options for {definition.name!r}; "
                f"allowed: {list(definition.options)!r}"
            )
        return list(selected)
    if kind is ParameterKind.BOOLEAN:
        values = raw if isinstance(raw, list) else [raw]
        for item in values:
            if not isinstance(item, bool):
                raise ValidationError(
                    f"boolean parameter {definition.name!r} got non-boolean {item!r}"
                )
        return list(values)
    if kind is ParameterKind.RATIO:
        values = raw if isinstance(raw, list) else [raw]
        for item in values:
            parse_ratio(item)
        return list(values)
    # VALUE: scalar or explicit sweep list.
    return list(raw) if isinstance(raw, list) else [raw]


def expand_parameter_space(assignments: list[ParameterAssignment]) -> list[dict[str, Any]]:
    """Cartesian product of all assignments: one dictionary per job.

    The order is deterministic: parameters vary slowest-first in the order of
    their definitions, matching how the UI lists jobs of an evaluation.
    """
    if not assignments:
        return [{}]
    names = [assignment.definition.name for assignment in assignments]
    value_lists = [assignment.values for assignment in assignments]
    combinations = itertools.product(*value_lists)
    return [dict(zip(names, combination)) for combination in combinations]


def evaluation_space_size(assignments: list[ParameterAssignment]) -> int:
    """Number of jobs the expansion will generate."""
    size = 1
    for assignment in assignments:
        size *= max(1, len(assignment.values))
    return size
