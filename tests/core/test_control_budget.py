"""What one job costs the control plane, in Python calls, rows copied and commits.

A clock-free guard for ``job_overhead_ms`` (``benchmarks/perf`` measures it in
milliseconds): the Python ``call`` events (``sys.setprofile``) and the rows the
store copies while an agent claims a job, reports progress and uploads a
result over the REST edge are exact and repeat, and they must not depend on
how many jobs the sweep has -- the claim and the evaluation's status are index
walks.  An O(jobs) path that creeps back fails here without a timing.  Each
request is one unit of work, so each is one WAL record.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.agent.connection import AgentConnection
from repro.agents.testing import register_sleep_system
from repro.core.control import ChronosControl
from repro.rest.client import RestClient
from repro.storage.database import Database
from repro.storage.table import Table
from repro.util.clock import SimulatedClock

SIZES = (20, 200)
STEPS = ("claim", "progress", "upload")
#: rows copied out of the store per step (a write returns a copy of its row;
#: a remembered session token costs none; a tick reads its job's status from
#: the row its write returns)
COPIES = {"claim": 6, "progress": 3, "upload": 6}


class Sweep:
    """A sleep-system evaluation of ``jobs`` jobs, half of them done, and the
    REST connection of its one agent."""

    def __init__(self, jobs: int):
        self.control = ChronosControl(clock=SimulatedClock())
        admin = self.control.users.get_by_username("admin")
        system = register_sleep_system(self.control, owner_id=admin.id)
        project = self.control.projects.create("budget", admin)
        experiment = self.control.experiments.create(
            project.id, system.id, "sweep",
            parameters={"work_units": 1, "payload": list(range(jobs))})
        self.evaluation, _ = self.control.evaluations.create(experiment.id)
        self.system_id = system.id
        self.deployment_id = self.control.deployments.register(system.id, "node").id
        self.connection = AgentConnection(RestClient(self.control.api))
        self.connection.login("admin", "admin")
        for _ in range(jobs // 2):
            self.one_job()

    def one_job(self, around=lambda step, call: call()) -> None:
        """The three requests of a job's life, each run through ``around``."""
        job = around("claim", lambda: self.connection.claim_next_job(
            self.system_id, self.deployment_id))
        around("progress", lambda: self.connection.report_progress(job["id"], 50, "half"))
        around("upload", lambda: self.connection.upload_result(
            job["id"], {"work_done": 1}, {"work_done": 1.0}))


def python_calls(call) -> tuple[int, object]:
    """Python ``call`` events of ``call()``, its own excluded, and its result;
    the collector is held off meanwhile (a finalizer of earlier garbage would
    be counted)."""
    count = -1

    def profile(frame, event, argument) -> None:
        nonlocal count
        count += event == "call"

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
        gc.enable()
    return count, result


@pytest.fixture(scope="module")
def budgets() -> dict[int, dict[str, dict]]:
    """Per sweep size and step, of one job in mid-sweep: Python calls, the rows
    copied out of the store (by table), ``(limit, rows returned, rows
    copied)`` of each ``Database.select`` and the WAL records committed."""
    patch = pytest.MonkeyPatch()
    selects: list[list] = []
    copies: list[str] = []  # the table of every row that left the store
    commits: list[int] = []  # the operations of every WAL record
    select, copy, commit = Database.select, Table.copy_out, Database._log_commit

    def recording_select(self, table, predicate=None, **kwargs):
        selects.append([kwargs.get("limit"), None, 0])
        rows = select(self, table, predicate, **kwargs)
        selects[-1][1] = len(rows)
        return rows

    def counting_copy(self, row):
        copies.append(self.name)
        if selects and selects[-1][1] is None:  # inside a select
            selects[-1][2] += 1
        return copy(self, row)

    def counting_commit(self, operations):
        commits.append(len(operations))
        return commit(self, operations)

    measured: dict[int, dict[str, dict]] = {}
    try:
        for jobs in SIZES:
            sweep = Sweep(jobs)
            steps: dict[str, dict] = {}

            def count_calls(step, call, steps=steps):
                calls, result = python_calls(call)
                steps[step] = {"calls": calls}
                return result

            def count_rows(step, call, steps=steps):
                del selects[:], copies[:], commits[:]
                result = call()
                steps[step]["selects"] = [tuple(entry) for entry in selects]
                steps[step]["copies"] = sorted(copies)
                steps[step]["commits"] = list(commits)
                return result

            sweep.one_job(count_calls)
            patch.setattr(Database, "select", recording_select)
            patch.setattr(Table, "copy_out", counting_copy)
            patch.setattr(Database, "_log_commit", counting_commit)
            sweep.one_job(count_rows)
            patch.undo()
            measured[jobs] = steps
    finally:
        patch.undo()
    return measured


@pytest.mark.parametrize("step", STEPS)
def test_a_step_costs_the_same_python_calls_at_every_sweep_size(budgets, step):
    small, large = (budgets[jobs][step]["calls"] for jobs in SIZES)
    assert small == large


@pytest.mark.parametrize("step", STEPS)
def test_a_select_copies_what_it_returns_and_no_more_than_its_limit(budgets, step):
    small, large = (budgets[jobs][step] for jobs in SIZES)
    assert small["copies"] == large["copies"] and len(large["copies"]) == COPIES[step]
    assert small["selects"] == large["selects"]
    for limit, returned, copied in large["selects"]:
        assert copied == returned
        assert returned <= (1 if limit is None else limit)  # point look-ups otherwise


@pytest.mark.parametrize("step", STEPS)
def test_a_request_is_one_commit(budgets, step):
    """Every write of a request lands in one WAL record (a claim writes the
    job and its event; a tick the job, its event and the log line; an upload
    the result, its event, the job and its event)."""
    assert [budgets[jobs][step]["commits"] for jobs in SIZES] == [
        [{"claim": 2, "progress": 3, "upload": 4}[step]]] * 2


def test_the_claim_is_one_bounded_select(budgets):
    assert (1, 1, 1) in budgets[SIZES[-1]]["claim"]["selects"]


def test_counting_is_exact():
    sweep = Sweep(4)
    sweep.one_job()
    job = sweep.connection.claim_next_job(sweep.system_id, sweep.deployment_id)
    tick = lambda: sweep.connection.report_progress(job["id"], 10)  # noqa: E731
    assert len({python_calls(tick)[0] for _ in range(5)}) == 1
