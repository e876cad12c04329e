"""Trivial and failure-injecting agents used by tests and experiments E3/E4."""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any

from repro.agent.base import ChronosAgent, JobContext
from repro.core.parameters import value
from repro.core.systems import result_config
from repro.errors import AgentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.control import ChronosControl
    from repro.core.entities import System

SLEEP_SYSTEM_NAME = "sleep-system"


def register_sleep_system(control: "ChronosControl", owner_id: str = "",
                          name: str = SLEEP_SYSTEM_NAME) -> "System":
    """Register the trivial SuE used by scheduling and failure experiments."""
    parameters = [
        value("work_units", "amount of simulated work", default=10),
        value("payload", "opaque payload echoed into the result", default="", required=False),
    ]
    return control.systems.register(
        name=name,
        parameters=parameters,
        result_configuration=result_config(metrics=["work_done"]),
        description="A trivial SuE that does simulated work (tests and ablations)",
        owner_id=owner_id,
    )


class SleepAgent(ChronosAgent):
    """Performs ``work_units`` of simulated work and reports it."""

    system_name = SLEEP_SYSTEM_NAME

    def __init__(self, work_seconds_per_unit: float = 0.0):
        self.work_seconds_per_unit = work_seconds_per_unit
        self.jobs_executed = 0

    def set_up(self, context: JobContext) -> None:
        context.state["work_units"] = int(context.parameters.get("work_units", 10))

    def execute(self, context: JobContext) -> dict[str, Any]:
        work_units = context.state["work_units"]
        for unit in range(work_units):
            context.metrics.increment("work_done")
            if work_units:
                context.progress(25 + int(60 * (unit + 1) / work_units))
        self.jobs_executed += 1
        return {
            "work_done": work_units,
            "payload": context.parameters.get("payload", ""),
        }


class FlakyAgent(SleepAgent):
    """Fails a configurable fraction of its executions (failure-handling tests).

    Failure decisions are drawn from a seeded RNG, so a run is reproducible;
    ``fail_first_attempts`` makes the first N executions fail deterministically
    which is convenient for asserting retry behaviour.
    """

    def __init__(self, failure_rate: float = 0.0, fail_first_attempts: int = 0,
                 seed: int = 1234):
        super().__init__()
        self.failure_rate = failure_rate
        self.fail_first_attempts = fail_first_attempts
        self._rng = random.Random(seed)
        self.attempts = 0
        self.failures_injected = 0

    def execute(self, context: JobContext) -> dict[str, Any]:
        self.attempts += 1
        should_fail = (
            self.attempts <= self.fail_first_attempts
            or self._rng.random() < self.failure_rate
        )
        if should_fail:
            self.failures_injected += 1
            raise AgentError(f"injected failure on attempt {self.attempts}")
        return super().execute(context)
