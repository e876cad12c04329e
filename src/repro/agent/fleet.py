"""Running a fleet of agents: one runner per deployment until the work is done.

The original demo starts one Chronos-enabled evaluation client per MongoDB
deployment; each polls Chronos Control independently.  :class:`AgentFleet`
reproduces that set-up in-process: it builds one :class:`AgentRunner` per
deployment (each with its own authenticated REST connection) and interleaves
their polling until an evaluation has no scheduled or running jobs left.

``parallel=True`` runs the deployments in real threads (useful to exercise
the lock manager); the default round-robin interleaving is deterministic and
is what the benchmarks use.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.agent.base import ChronosAgent
from repro.agent.connection import AgentConnection
from repro.agent.runner import AgentRunner
from repro.rest.client import RestClient
from repro.util.clock import Clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.control import ChronosControl


@dataclass
class FleetReport:
    """Combined report of one fleet drive."""

    jobs_finished: int = 0
    jobs_failed: int = 0
    rounds: int = 0
    per_deployment: dict[str, int] = field(default_factory=dict)


class AgentFleet:
    """One agent runner per deployment, sharing a single agent factory."""

    def __init__(
        self,
        control: "ChronosControl",
        system_id: str,
        deployment_ids: list[str],
        agent_factory: Callable[[], ChronosAgent],
        username: str = "admin",
        password: str = "admin",
        clock: Clock | None = None,
    ):
        self._control = control
        self._system_id = system_id
        self._clock = clock
        self._runners: list[AgentRunner] = []
        for deployment_id in deployment_ids:
            client = RestClient(control.api)
            connection = AgentConnection(client)
            connection.login(username, password)
            deployment = control.deployments.get(deployment_id)
            runner = AgentRunner(
                agent=agent_factory(),
                connection=connection,
                system_id=system_id,
                deployment_id=deployment_id,
                deployment_info=deployment.environment,
                clock=clock,
            )
            self._runners.append(runner)

    @property
    def runners(self) -> list[AgentRunner]:
        return list(self._runners)

    # -- driving --------------------------------------------------------------------------

    def drive_evaluation(self, evaluation_id: str, parallel: bool = False,
                         max_rounds: int = 10000) -> FleetReport:
        """Run agents until the evaluation has no active jobs left."""
        if parallel:
            return self._drive_parallel(evaluation_id)
        return self._drive_round_robin(evaluation_id, max_rounds)

    # -- internals ---------------------------------------------------------------------------

    def _drive_round_robin(self, evaluation_id: str, max_rounds: int) -> FleetReport:
        report = FleetReport()
        for _ in range(max_rounds):
            if self._control.evaluations.is_complete(evaluation_id):
                break
            report.rounds += 1
            progressed = False
            for runner in self._runners:
                if runner.run_one():
                    progressed = True
                    report.per_deployment[runner.deployment_id] = (
                        report.per_deployment.get(runner.deployment_id, 0) + 1
                    )
            if not progressed:
                break
        self._tally(report, evaluation_id)
        return report

    def _drive_parallel(self, evaluation_id: str) -> FleetReport:
        report = FleetReport()
        threads = []
        lock = threading.Lock()

        def worker(runner: AgentRunner) -> None:
            while True:
                ran = runner.run_one()
                if not ran:
                    if self._control.evaluations.is_complete(evaluation_id):
                        return
                    # Nothing claimable right now but the evaluation is still
                    # active (e.g. jobs running on other deployments).
                    if not self._control.jobs.next_scheduled(self._system_id):
                        return
                    continue
                with lock:
                    report.per_deployment[runner.deployment_id] = (
                        report.per_deployment.get(runner.deployment_id, 0) + 1
                    )

        for runner in self._runners:
            thread = threading.Thread(target=worker, args=(runner,), daemon=True)
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        self._tally(report, evaluation_id)
        return report

    def _tally(self, report: FleetReport, evaluation_id: str) -> None:
        jobs = self._control.evaluations.jobs(evaluation_id)
        report.jobs_finished = sum(1 for job in jobs if job.status.value == "finished")
        report.jobs_failed = sum(1 for job in jobs if job.status.value == "failed")
