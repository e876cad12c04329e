"""Property-based tests of Chronos Control invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enums import JOB_TRANSITIONS, JobStatus
from repro.core.parameters import (
    checkbox,
    evaluation_space_size,
    expand_parameter_space,
    parse_ratio,
    resolve_assignments,
    value,
)

sweep_lists = st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True)


@settings(max_examples=60, deadline=None)
@given(sweep_lists, sweep_lists, sweep_lists)
def test_expansion_cardinality_is_product_of_sweeps(first, second, third):
    """|jobs| == product of the per-parameter value counts, no duplicates."""
    definitions = [value("a"), value("b"), value("c")]
    assignments = resolve_assignments(definitions, {"a": first, "b": second, "c": third})
    space = expand_parameter_space(assignments)
    assert len(space) == len(first) * len(second) * len(third)
    assert len(space) == evaluation_space_size(assignments)
    unique = {tuple(sorted(point.items())) for point in space}
    assert len(unique) == len(space)
    for point in space:
        assert point["a"] in first and point["b"] in second and point["c"] in third


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3, unique=True))
def test_checkbox_expansion_matches_selection(selected):
    definitions = [checkbox("option", ["x", "y", "z"])]
    assignments = resolve_assignments(definitions, {"option": selected})
    space = expand_parameter_space(assignments)
    assert [point["option"] for point in space] == selected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 999), st.integers(1, 999))
def test_ratio_normalisation_sums_to_one(left, right):
    fractions = parse_ratio(f"{left}:{right}")
    assert abs(sum(fractions) - 1.0) < 1e-9
    assert fractions[0] > 0 and fractions[1] > 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(list(JobStatus)), min_size=1, max_size=8))
def test_job_state_machine_never_leaves_terminal_states(path):
    """Applying any transition sequence never escapes finished/aborted."""
    current = JobStatus.SCHEDULED
    for target in path:
        if target in JOB_TRANSITIONS[current]:
            current = target
        # illegal transitions are rejected by the service; state unchanged
    if current in (JobStatus.FINISHED, JobStatus.ABORTED):
        assert JOB_TRANSITIONS[current] == ()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=8, unique=True),
       st.integers(1, 3))
def test_every_expanded_job_is_created_and_eventually_finished(thread_sweep, deployments):
    """For any sweep, the evaluation creates exactly one job per point and a
    fleet of SleepAgents finishes all of them."""
    from repro.agent.fleet import AgentFleet
    from repro.agents.testing import SleepAgent, register_sleep_system
    from repro.core.control import ChronosControl
    from repro.util.clock import SimulatedClock

    clock = SimulatedClock()
    control = ChronosControl(clock=clock)
    admin = control.users.get_by_username("admin")
    system = register_sleep_system(control, owner_id=admin.id)
    deployment_ids = [control.deployments.register(system.id, f"node-{i}").id
                      for i in range(deployments)]
    project = control.projects.create("property", admin)
    experiment = control.experiments.create(project.id, system.id, "exp",
                                            parameters={"work_units": thread_sweep})
    evaluation, jobs = control.evaluations.create(experiment.id)
    assert len(jobs) == len(thread_sweep)
    fleet = AgentFleet(control, system.id, deployment_ids, SleepAgent, clock=clock)
    report = fleet.drive_evaluation(evaluation.id)
    assert report.jobs_finished == len(thread_sweep)
    assert control.evaluations.get(evaluation.id).status.value == "finished"
    finished_work = sorted(
        control.results.for_job(job.id).data["work_done"]
        for job in control.evaluations.jobs(evaluation.id)
    )
    assert finished_work == sorted(thread_sweep)


# -- the index-served queue and status == the list-sort-derive they replaced -----------------
#
# The reference below is the implementation the control plane had before the
# jobs table got its ordered indexes, reading nothing but the table's rows.


def _all_jobs(control):
    from repro.core.entities import Job

    return [Job.from_row(row) for row in control.database.table("jobs").all_rows()]


def reference_next_scheduled(control, system_id, deployment_id=None):
    jobs = [job for job in _all_jobs(control)
            if job.system_id == system_id and job.status is JobStatus.SCHEDULED]
    jobs.sort(key=lambda job: (job.created_at, job.id))
    if deployment_id is not None:
        jobs = [job for job in jobs if job.deployment_id in (None, deployment_id)]
    return jobs[0] if jobs else None


def reference_counts(control, evaluation_id=None):
    counts = {status.value: 0 for status in JobStatus}
    for job in _all_jobs(control):
        if evaluation_id in (None, job.evaluation_id):
            counts[job.status.value] += 1
    return counts


def reference_status(control, evaluation_id):
    from repro.core.enums import EvaluationStatus

    statuses = {job.status for job in _all_jobs(control)
                if job.evaluation_id == evaluation_id}
    if not statuses:
        return EvaluationStatus.CREATED
    if JobStatus.RUNNING in statuses:
        return EvaluationStatus.RUNNING
    if JobStatus.SCHEDULED in statuses:
        if statuses - {JobStatus.SCHEDULED}:
            return EvaluationStatus.RUNNING
        return EvaluationStatus.CREATED
    if statuses == {JobStatus.FINISHED}:
        return EvaluationStatus.FINISHED
    if JobStatus.FAILED in statuses:
        return EvaluationStatus.FAILED
    return EvaluationStatus.ABORTED


def reference_busy(control):
    return {job.deployment_id for job in _all_jobs(control) if job.status is JobStatus.RUNNING}


OPERATIONS = ("create", "claim", "finish", "fail", "fail_for_good", "reschedule",
              "abort", "abort_evaluation", "pin", "tick")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(OPERATIONS), st.integers(0, 1), st.integers(0, 7)),
                min_size=1, max_size=40))
def test_indexed_queue_and_status_equal_the_list_sort_derive_reference(steps):
    from repro.agents.testing import register_sleep_system
    from repro.core.control import ChronosControl
    from repro.util.clock import SimulatedClock

    clock = SimulatedClock()
    control = ChronosControl(clock=clock)
    admin = control.users.get_by_username("admin")
    project = control.projects.create("p", admin)
    systems, deployments, evaluations = [], [], []
    for name in ("one", "two"):
        system = register_sleep_system(control, owner_id=admin.id, name=name)
        experiment = control.experiments.create(project.id, system.id, name,
                                                parameters={"work_units": [1, 2]})
        evaluation, _ = control.evaluations.create(experiment.id, max_attempts=2)
        systems.append(system.id)
        evaluations.append(evaluation.id)
        deployments.append([control.deployments.register(system.id, f"{name}-{n}").id
                            for n in (1, 2)])

    def pick(status, which, number):
        jobs = [job for job in _all_jobs(control)
                if job.status is status and job.system_id == systems[which]]
        return sorted(jobs, key=lambda job: job.id)[number % len(jobs)] if jobs else None

    for operation, which, number in steps:
        system, evaluation = systems[which], evaluations[which]
        deployment = deployments[which][number % 2]
        if operation == "create":
            # either evaluation may get a job of either system
            control.jobs.create(evaluations[number % 2], system, {"n": number},
                                max_attempts=2)
            control.evaluations.refresh_status(evaluations[number % 2])
        elif operation == "tick":
            clock.advance(1.0)
        elif operation == "claim":
            expected = reference_next_scheduled(control, system, deployment)
            busy = deployment in reference_busy(control)
            claimed = control.scheduler.claim_next_job(system, deployment)
            assert (claimed and claimed.id) == (None if busy else expected and expected.id)
        elif operation == "pin":
            job = pick(JobStatus.SCHEDULED, which, number)
            if job is not None:
                control.database.update("jobs", job.id, {"deployment_id": deployment})
        elif operation in ("finish", "fail", "fail_for_good"):
            job = pick(JobStatus.RUNNING, which, number)
            if job is not None and operation == "finish":
                control.scheduler.complete_job(job.id)
            elif job is not None and operation == "fail":
                control.report_failure(job.id, "crash")  # re-scheduled while attempts last
            elif job is not None:
                with control.database.transaction():
                    control.jobs.fail(job.id, "crash")
                    control.evaluations.refresh_status(job.evaluation_id)
        elif operation == "reschedule":
            job = pick(JobStatus.FAILED, which, number)
            if job is not None:
                control.jobs.reschedule(job.id)
                control.evaluations.refresh_status(job.evaluation_id)
        elif operation == "abort":
            job = pick(JobStatus.RUNNING, which, number) or pick(JobStatus.SCHEDULED,
                                                                 which, number)
            if job is not None:
                control.jobs.abort(job.id)
                control.evaluations.refresh_status(job.evaluation_id)
        elif operation == "abort_evaluation":
            control.evaluations.abort(evaluation)

        for system_id, its_deployments in zip(systems, deployments):
            for deployment_id in (None, *its_deployments):
                expected = reference_next_scheduled(control, system_id, deployment_id)
                actual = control.jobs.next_scheduled(system_id, deployment_id)
                assert (actual and actual.id) == (expected and expected.id)
        for evaluation_id in evaluations:
            counts = reference_counts(control, evaluation_id)
            assert control.jobs.counts_by_status(evaluation_id) == counts
            assert control.evaluations.get(evaluation_id).status \
                is reference_status(control, evaluation_id)
            assert control.evaluations.is_complete(evaluation_id) \
                == (counts["scheduled"] + counts["running"] == 0)
            assert control.evaluations.progress(evaluation_id)["counts"] == counts
            listed = sorted((job for job in _all_jobs(control)
                             if job.evaluation_id == evaluation_id),
                            key=lambda job: (job.created_at, job.id))
            assert control.jobs.list(evaluation_id=evaluation_id) == listed
        totals = reference_counts(control)
        snapshot = control.scheduler.snapshot()
        assert {name: getattr(snapshot, name) for name in totals} == totals
        assert snapshot.busy_deployments == sorted(reference_busy(control))
