"""Tests for project, system and deployment management."""

from __future__ import annotations

import json

import pytest

from repro.core.enums import DiagramKind
from repro.core.parameters import checkbox, interval, value
from repro.core.systems import diagram_spec, result_config
from repro.errors import ConflictError, SchedulerError, StateError, ValidationError


class TestProjects:
    def test_create_and_get(self, control, admin):
        project = control.projects.create("demo", admin, description="d")
        fetched = control.projects.get(project.id)
        assert fetched.name == "demo"
        assert fetched.owner_id == admin.id
        assert admin.id in fetched.members

    def test_create_requires_name(self, control, admin):
        with pytest.raises(ValidationError):
            control.projects.create("   ", admin)

    def test_list_filters_by_visibility(self, control, admin):
        other = control.users.create_user("other", "pw")
        control.projects.create("mine", admin)
        control.projects.create("theirs", other)
        visible_to_other = control.projects.list(user=other)
        assert [project.name for project in visible_to_other] == ["theirs"]
        # admins see everything
        assert len(control.projects.list(user=admin)) == 2

    def test_membership_management(self, control, admin):
        member = control.users.create_user("member", "pw")
        project = control.projects.create("demo", admin)
        control.projects.add_member(project.id, member)
        assert member.id in control.projects.get(project.id).members
        control.projects.add_member(project.id, member)  # idempotent
        assert control.projects.get(project.id).members == [admin.id, member.id]

    def test_archive_makes_project_read_only(self, control, admin):
        project = control.projects.create("demo", admin)
        control.projects.archive(project.id)
        assert control.projects.get(project.id).archived
        with pytest.raises(StateError):
            control.projects.ensure_not_archived(project.id)

    def test_creation_recorded_on_timeline(self, control, admin):
        project = control.projects.create("demo", admin)
        events = control.events.timeline("project", project.id)
        assert events and events[0].event_type.value == "created"


class TestSystems:
    PARAMETERS = [checkbox("engine", ["a", "b"]), interval("threads"),
                  value("records", default=10)]

    def test_register_and_get(self, control, admin):
        system = control.systems.register("db", self.PARAMETERS,
                                          result_config(["throughput"]),
                                          owner_id=admin.id)
        assert control.systems.get(system.id).name == "db"
        assert control.systems.get_by_name("db").id == system.id
        assert control.systems.metrics(system.id) == ["throughput"]

    def test_duplicate_name_rejected(self, control):
        control.systems.register("db", self.PARAMETERS)
        with pytest.raises(ConflictError):
            control.systems.register("db", [])

    def test_parameter_definitions_round_trip(self, control):
        system = control.systems.register("db", self.PARAMETERS)
        definitions = control.systems.parameter_definitions(system.id)
        assert [d.name for d in definitions] == ["engine", "threads", "records"]
        assert definitions[0].options == ("a", "b")

    def test_diagram_specs(self, control):
        config = result_config(["tp"], [diagram_spec(DiagramKind.LINE, "t", "x", "y", "g")])
        system = control.systems.register("db", self.PARAMETERS, config)
        diagrams = control.systems.diagrams(system.id)
        assert diagrams[0]["kind"] == "line" and diagrams[0]["group_field"] == "g"

    def test_register_from_bundle(self, control, tmp_path):
        bundle = tmp_path / "my-system"
        bundle.mkdir()
        (bundle / "system.json").write_text(json.dumps({
            "name": "bundled",
            "description": "from disk",
            "parameters": [{"name": "size", "kind": "interval"}],
            "result_config": {"metrics": ["m"], "diagrams": []},
        }))
        system = control.systems.register_from_bundle(bundle)
        assert system.name == "bundled"
        assert control.systems.parameter_definitions(system.id)[0].name == "size"

    def test_register_from_bundle_missing_manifest(self, control, tmp_path):
        with pytest.raises(ValidationError):
            control.systems.register_from_bundle(tmp_path)


class TestDeployments:
    def test_register_and_list(self, control, sleep_system):
        first = control.deployments.register(sleep_system.id, "node-1",
                                             environment={"ram": 16}, version="1.0")
        control.deployments.register(sleep_system.id, "node-2")
        assert len(control.deployments.list(system_id=sleep_system.id)) == 2
        assert control.deployments.get(first.id).environment == {"ram": 16}

    def test_activation_toggling(self, control, sleep_system):
        deployment = control.deployments.register(sleep_system.id, "node-1")
        control.deployments.deactivate(deployment.id)
        assert len(control.deployments.list(system_id=sleep_system.id,
                                            active_only=True)) == 0
        with pytest.raises(SchedulerError, match="is not active"):
            control.claim_next_job(sleep_system.id, deployment.id)
        control.deployments.activate(deployment.id)
        assert len(control.deployments.list(system_id=sleep_system.id,
                                            active_only=True)) == 1
        assert control.claim_next_job(sleep_system.id, deployment.id) is None  # no work

    def test_name_required(self, control, sleep_system):
        with pytest.raises(ValidationError):
            control.deployments.register(sleep_system.id, "")
