"""Automated failure handling and recovery of failed evaluation runs.

Demonstrates requirement (iii): an agent that crashes on its first attempts
has its jobs automatically re-scheduled, and a job whose agent disappears
(heartbeat timeout) is recovered by the failure handler.

Run with::

    python examples/failure_recovery_demo.py
"""

from __future__ import annotations

from repro.agent.connection import AgentConnection
from repro.agent.fleet import AgentFleet
from repro.agent.runner import AgentRunner
from repro.agents.testing import FlakyAgent, register_sleep_system
from repro.core.control import ChronosControl
from repro.rest.client import RestClient
from repro.util.clock import SimulatedClock


def main() -> None:
    clock = SimulatedClock()
    control = ChronosControl(clock=clock, heartbeat_timeout=60.0)
    admin = control.users.get_by_username("admin")
    system = register_sleep_system(control, owner_id=admin.id)
    deployment = control.deployments.register(system.id, "worker-1")
    project = control.projects.create("Reliability tests", admin)
    experiment = control.experiments.create(
        project_id=project.id, system_id=system.id, name="flaky workload",
        parameters={"work_units": [5, 10, 15, 20]},
    )
    evaluation, jobs = control.evaluations.create(experiment.id, max_attempts=3)
    print(f"evaluation {evaluation.id} with {len(jobs)} jobs, 3 attempts each")

    # --- an agent that fails its first two executions -------------------------------
    flaky = FlakyAgent(fail_first_attempts=2)
    fleet = AgentFleet(control, system.id, [deployment.id], lambda: flaky, clock=clock)
    report = fleet.drive_evaluation(evaluation.id)
    print(f"finished: {report.jobs_finished}, failures injected: {flaky.failures_injected}")
    counts = control.jobs.counts_by_status(evaluation.id)
    print(f"job states after automatic retries: {counts}")
    print()

    # --- a stalled job recovered by the heartbeat timeout ----------------------------
    experiment2 = control.experiments.create(
        project_id=project.id, system_id=system.id, name="stall recovery",
        parameters={"work_units": 5},
    )
    evaluation2, _ = control.evaluations.create(experiment2.id)
    stalled_job = control.claim_next_job(system.id, deployment.id)
    print(f"job {stalled_job.id} claimed and then abandoned (agent crash)")
    clock.advance(120.0)  # beyond the 60 s heartbeat timeout
    recovery = control.recover_stalled_jobs()
    print(f"recovery pass re-scheduled: {recovery.stalled_jobs_recovered}")

    # a healthy agent picks the job up again and finishes the evaluation
    client = RestClient(control.api)
    connection = AgentConnection(client)
    connection.login("admin", "admin")
    runner = AgentRunner(FlakyAgent(), connection, system.id, deployment.id, clock=clock)
    runner.run_until_idle()
    print(f"evaluation 2 complete: {control.jobs.counts_by_status(evaluation2.id)}")

    # --- the job timeline shows the whole story ----------------------------------------
    print()
    print(f"timeline of the recovered job {stalled_job.id}:")
    for event in control.events.timeline("job", stalled_job.id):
        print(f"  [{event.timestamp:8.1f}] {event.event_type.value:12} {event.message}")


if __name__ == "__main__":
    main()
