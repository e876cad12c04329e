"""The session memo of ``UserService.validate_token``.

A token once validated is remembered with the stored session and user rows
it was read from; a later request checks that both are still the stored rows
and that the session has not expired, and reads nothing else.  These tests
hold it to what a fresh read would answer: after an expiry, a rollback, a
replaced user row and a restart, and under agent threads.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.agent.fleet import AgentFleet
from repro.agents.testing import SleepAgent
from repro.core.control import ChronosControl
from repro.core.enums import JobStatus, Role
from repro.core.users import DEFAULT_SESSION_LIFETIME, UserService
from repro.errors import AuthenticationError
from repro.rest.client import RestClient
from repro.storage.database import Database
from repro.util.clock import SimulatedClock


@pytest.fixture
def sessions_selected(monkeypatch) -> list[str]:
    """One entry per ``Database.select`` of the ``sessions`` table from now on."""
    selected: list[str] = []
    select = Database.select

    def counting_select(self, table, predicate=None, **kwargs):
        if table == "sessions":
            selected.append(table)
        return select(self, table, predicate, **kwargs)

    monkeypatch.setattr(Database, "select", counting_select)
    return selected


def outcome(users: UserService, token: str) -> str:
    """The username ``token`` authenticates, or the message it is refused with."""
    try:
        return users.validate_token(token).username
    except AuthenticationError as exc:
        return f"refused: {exc}"


def test_requests_on_one_token_select_its_session_once(control, admin_token,
                                                       sessions_selected):
    client = RestClient(control.api, token=admin_token)
    for _ in range(10):
        assert client.get("/api/v1/projects").ok
    assert len(sessions_selected) == 1


@pytest.mark.parametrize("offset", [-1.0, 0.0, 1e-6, 3600.0])
def test_an_expired_token_is_refused_at_the_same_instant_as_a_fresh_read(
        control, clock, offset):
    token = control.users.login("admin", "admin")
    assert outcome(control.users, token) == "admin"  # remembered from here on
    clock.advance(DEFAULT_SESSION_LIFETIME + offset)
    fresh = UserService(control.database, clock, control.ids)
    expected = "admin" if offset <= 0 else "refused: session token has expired"
    assert outcome(control.users, token) == outcome(fresh, token) == expected
    assert outcome(control.users, token) == expected  # and again, from the memo


def test_an_unknown_token_is_refused_every_time_and_never_remembered(
        control, sessions_selected):
    for _ in range(3):
        assert outcome(control.users, "bogus") == "refused: invalid session token"
    assert len(sessions_selected) == 3


def test_a_session_rolled_back_after_its_validation_is_refused(control):
    with pytest.raises(RuntimeError):
        with control.database.transaction():
            token = control.users.login("admin", "admin")
            assert outcome(control.users, token) == "admin"
            raise RuntimeError("roll the unit of work back")
    assert outcome(control.users, token) == "refused: invalid session token"


def test_a_replaced_user_row_is_seen_by_the_next_request(control, admin, admin_token):
    assert control.users.validate_token(admin_token).role is Role.ADMIN
    control.database.update("users", admin.id, {"role": Role.READONLY.value})
    assert control.users.validate_token(admin_token).role is Role.READONLY
    client = RestClient(control.api, token=admin_token, raise_for_status=False)
    assert client.get("/api/v1/projects").ok


def test_a_control_rebuilt_from_its_wal_authenticates(tmp_path):
    first = ChronosControl(data_directory=tmp_path, clock=SimulatedClock())
    token = first.users.login("admin", "admin")
    assert RestClient(first.api, token=token).get("/api/v1/projects").ok
    first.close()

    second = ChronosControl(data_directory=tmp_path, clock=SimulatedClock(),
                            create_admin=False)
    client = RestClient(second.api, token=token, raise_for_status=False)
    assert client.get("/api/v1/projects").ok
    assert RestClient(second.api, token="bogus", raise_for_status=False) \
        .get("/api/v1/projects").status == 401
    second.close()


def test_three_agent_threads_over_one_control_all_finish(control, admin, sleep_system):
    """Three agents over the REST edge and a thread that keeps replacing the
    admin's user row, so that remembered tokens keep going stale: no deadlock,
    and every job ends finished."""
    project = control.projects.create("threads", admin)
    experiment = control.experiments.create(
        project.id, sleep_system.id, "exp", parameters={"work_units": list(range(1, 13))})
    evaluation, jobs = control.evaluations.create(experiment.id)
    deployments = [control.deployments.register(sleep_system.id, f"node-{i}").id
                   for i in range(3)]
    fleet = AgentFleet(control, sleep_system.id, deployments, SleepAgent)
    done = lambda: control.evaluations.is_complete(evaluation.id)  # noqa: E731

    def agent(runner):
        while not done():
            runner.run_one()

    def replace_admin():
        while not done():
            control.database.update("users", admin.id, {"role": Role.ADMIN.value})
            time.sleep(0.001)

    threads = [threading.Thread(target=agent, args=(runner,), daemon=True)
               for runner in fleet.runners]
    threads.append(threading.Thread(target=replace_admin, daemon=True))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [job.status for job in control.evaluations.jobs(evaluation.id)] \
        == [JobStatus.FINISHED] * len(jobs)
