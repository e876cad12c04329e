"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.agents.mongodb_agent import register_mongodb_system
from repro.agents.testing import register_sleep_system
from repro.core.control import ChronosControl
from repro.rest.client import RestClient
from repro.util.clock import SimulatedClock


@pytest.fixture
def clock() -> SimulatedClock:
    """A simulated clock starting at t=0."""
    return SimulatedClock()


@pytest.fixture
def control(clock: SimulatedClock) -> ChronosControl:
    """An in-memory Chronos Control instance with the default admin user."""
    return ChronosControl(clock=clock, create_admin=True)


@pytest.fixture
def admin(control: ChronosControl):
    """The default admin user."""
    return control.users.get_by_username("admin")


@pytest.fixture
def admin_token(control: ChronosControl) -> str:
    """A valid session token for the admin user."""
    return control.users.login("admin", "admin")


@pytest.fixture
def client(control: ChronosControl, admin_token: str) -> RestClient:
    """An admin REST client that returns error responses instead of raising."""
    return RestClient(control.api, token=admin_token, raise_for_status=False)


@pytest.fixture
def mongodb_system(control: ChronosControl, admin):
    """The registered MongoDB SuE."""
    return register_mongodb_system(control, owner_id=admin.id)


@pytest.fixture
def sleep_system(control: ChronosControl, admin):
    """The trivial SuE used by scheduling/failure tests."""
    return register_sleep_system(control, owner_id=admin.id)


@pytest.fixture
def small_demo_parameters() -> dict:
    """Demo experiment parameters small enough for fast tests."""
    return {
        "storage_engine": ["wiredtiger", "mmapv1"],
        "threads": [1, 4],
        "record_count": 60,
        "operation_count": 120,
        "query_mix": "50:50",
        "distribution": "zipfian",
    }
