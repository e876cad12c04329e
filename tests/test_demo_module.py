"""Tests for the demo helper module and the package entry points."""

from __future__ import annotations

import pytest

import repro
from repro.core.control import ChronosControl
from repro.demo import (
    DEFAULT_DEMO_PARAMETERS,
    build_demo_control,
    prepare_demo,
    run_demo,
)
from repro.util.clock import SimulatedClock


class TestPackageSurface:
    def test_version_exposed(self):
        assert repro.__version__
        assert repro.ChronosControl is ChronosControl

    def test_default_demo_parameters_cover_both_engines(self):
        assert DEFAULT_DEMO_PARAMETERS["storage_engine"] == ["wiredtiger", "mmapv1"]
        assert "query_mix" in DEFAULT_DEMO_PARAMETERS


class TestPrepareDemo:
    def test_build_demo_control_uses_simulated_clock(self):
        control = build_demo_control()
        assert isinstance(control.clock, SimulatedClock)

    def test_prepare_creates_all_entities(self):
        setup = prepare_demo(parameters={
            "storage_engine": ["wiredtiger"],
            "threads": [1, 2],
            "record_count": 40,
            "operation_count": 80,
            "query_mix": "90:10",
            "distribution": "uniform",
        })
        assert setup.system.name == "mongodb"
        assert setup.project.name == "MongoDB storage engines"
        assert len(setup.deployment_ids) == 1
        jobs = setup.control.evaluations.jobs(setup.evaluation.id)
        assert len(jobs) == 2

    def test_prepare_reuses_registered_system(self):
        control = build_demo_control()
        first = prepare_demo(control=control, parameters={
            "storage_engine": ["wiredtiger"], "threads": [1], "record_count": 30,
            "operation_count": 60, "query_mix": "90:10", "distribution": "uniform"})
        second = prepare_demo(control=control, parameters={
            "storage_engine": ["mmapv1"], "threads": [1], "record_count": 30,
            "operation_count": 60, "query_mix": "90:10", "distribution": "uniform"})
        assert first.system.id == second.system.id
        assert len(control.systems.list()) == 1

    def test_multiple_deployments_created_on_request(self):
        setup = prepare_demo(parameters={
            "storage_engine": ["wiredtiger"], "threads": [1], "record_count": 30,
            "operation_count": 60, "query_mix": "90:10", "distribution": "uniform"},
            deployments_per_engine_sweep=3)
        assert len(setup.deployment_ids) == 3


class TestRunDemo:
    @pytest.fixture(scope="class")
    def completed(self):
        return run_demo(prepare_demo(parameters={
            "storage_engine": ["wiredtiger", "mmapv1"],
            "threads": [1, 4],
            "record_count": 50,
            "operation_count": 100,
            "query_mix": "50:50",
            "distribution": "zipfian",
        }, deployments_per_engine_sweep=2))

    def test_all_jobs_finish(self, completed):
        assert completed.report.jobs_finished == 4
        assert completed.report.jobs_failed == 0

    def test_results_attached_to_setup(self, completed):
        assert len(completed.results) == 4
        engines = {result["parameters"]["storage_engine"] for result in completed.results}
        assert engines == {"wiredtiger", "mmapv1"}

    def test_run_demo_is_idempotent_per_evaluation(self, completed):
        # Driving the same evaluation again finds no more work.
        again = run_demo(completed)
        assert again.report.jobs_finished == 4
