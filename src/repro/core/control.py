"""The Chronos Control façade: one object wiring every service together.

:class:`ChronosControl` is what the original installation script produces:
a configured Chronos Control instance with its metadata database, user
management, REST API and all services.  Examples, agents and benchmarks only
ever need this class plus the agent library.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.core.access import AccessControl
from repro.core.archive import ArchiveService
from repro.core.deployments import DeploymentService
from repro.core.enums import Role
from repro.core.evaluations import EvaluationService
from repro.core.events import EventService
from repro.core.experiments import ExperimentService
from repro.core.failure import DEFAULT_HEARTBEAT_TIMEOUT, FailureHandler
from repro.core.jobs import JobService
from repro.core.logs import LogService
from repro.core.projects import ProjectService
from repro.core.results import ResultService
from repro.core.scheduler import Scheduler
from repro.core.schema import create_all_tables
from repro.core.systems import SystemService
from repro.core.users import UserService
from repro.storage.database import Database
from repro.util.clock import Clock, SystemClock
from repro.util.ids import IdGenerator

DEFAULT_ADMIN_USERNAME = "admin"
DEFAULT_ADMIN_PASSWORD = "admin"


class ChronosControl:
    """A fully wired Chronos Control instance.

    Args:
        data_directory: when given, the metadata store is made durable (WAL +
            snapshots) under this directory and result archives are written
            to ``<data_directory>/results``.  Without it everything stays in
            memory -- convenient for tests and simulations.
        clock: the clock used for timestamps, heartbeats and timeouts.
            Simulations pass a :class:`~repro.util.clock.SimulatedClock`.
        heartbeat_timeout: seconds of agent silence after which a running job
            is considered stalled.
        create_admin: create the default ``admin`` account (the original
            installation script does the same).
    """

    def __init__(
        self,
        data_directory: str | Path | None = None,
        clock: Clock | None = None,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        create_admin: bool = True,
    ):
        self.clock = clock or SystemClock()
        self.ids = IdGenerator()
        self.data_directory = Path(data_directory) if data_directory else None

        storage_dir = self.data_directory / "metadata" if self.data_directory else None
        results_dir = self.data_directory / "results" if self.data_directory else None

        self.database = Database(storage_dir)
        create_all_tables(self.database)
        if storage_dir is not None:
            self.database.recover()
            self._reseed_id_generator()

        # Services -------------------------------------------------------------------
        self.events = EventService(self.database, self.clock, self.ids)
        self.users = UserService(self.database, self.clock, self.ids)
        self.projects = ProjectService(self.database, self.clock, self.ids, self.events)
        self.systems = SystemService(self.database, self.clock, self.ids)
        self.deployments = DeploymentService(self.database, self.clock, self.ids)
        self.experiments = ExperimentService(
            self.database, self.clock, self.ids, self.systems, self.events
        )
        self.jobs = JobService(self.database, self.clock, self.ids, self.events)
        self.evaluations = EvaluationService(
            self.database, self.clock, self.ids, self.experiments, self.jobs, self.events
        )
        self.logs = LogService(self.database, self.clock, self.ids)
        self.results = ResultService(
            self.database, self.clock, self.ids, self.events, results_dir
        )
        self.scheduler = Scheduler(self.database, self.jobs, self.deployments,
                                   self.evaluations)
        self.failures = FailureHandler(self.jobs, heartbeat_timeout)
        self.archive = ArchiveService(
            self.projects, self.experiments, self.evaluations, self.jobs,
            self.results, self.logs,
        )
        self.access = AccessControl()

        if create_admin and not self.users.list_users():
            self.users.create_user(DEFAULT_ADMIN_USERNAME, DEFAULT_ADMIN_PASSWORD, Role.ADMIN)

        self._api = None

    # -- agent-facing workflow helpers ------------------------------------------------------
    # Each is one unit of work: one commit, or nothing if it raises.

    def claim_next_job(self, system_id: str, deployment_id: str):
        """Claim the next scheduled job for a deployment (agent polling)."""
        return self.scheduler.claim_next_job(system_id, deployment_id)

    def report_progress(self, job_id: str, progress: int, log: str | None = None):
        """Record agent-reported progress and optional log output."""
        with self.database.transaction():
            job = self.jobs.update_progress(job_id, progress)
            if log:
                self.logs.append(job_id, log)
            return job

    def report_success(self, job_id: str, data: dict[str, Any],
                       metrics: dict[str, float] | None = None,
                       extra_files: dict[str, str] | None = None):
        """Store the job's result and mark it finished."""
        with self.database.transaction():
            result = self.results.store(job_id, data, metrics, extra_files)
            job = self.scheduler.complete_job(job_id)
            return job, result

    def report_failure(self, job_id: str, error: str):
        """Record a job failure; the failure policy may re-schedule it."""
        with self.database.transaction():
            job = self.failures.handle_job_failure(job_id, error)
            self.evaluations.refresh_status(job.evaluation_id)
            return job

    def recover_stalled_jobs(self):
        """Run one failure-recovery pass (heartbeat timeouts, retries)."""
        with self.database.transaction():
            report = self.failures.recover()
            # Every job the pass moved may have moved its evaluation.
            moved = (report.stalled_jobs_recovered + report.failed_jobs_rescheduled
                     + report.permanently_failed)
            for evaluation_id in {self.jobs.get(job_id).evaluation_id for job_id in moved}:
                self.evaluations.refresh_status(evaluation_id)
            return report

    # -- REST API --------------------------------------------------------------------------------

    @property
    def api(self):
        """The versioned REST application exposing this instance."""
        if self._api is None:
            from repro.core.api.app import build_application

            self._api = build_application(self)
        return self._api

    # -- maintenance -----------------------------------------------------------------------------

    def _reseed_id_generator(self) -> None:
        """Advance id counters past every id recovered from disk."""
        for table_name in self.database.table_names():
            for row in self.database.table(table_name).all_rows():
                identifier = str(row.get("id", ""))
                prefix, _, suffix = identifier.rpartition("-")
                if prefix and suffix.isdigit():
                    self.ids.ensure_past(prefix, int(suffix))

    def checkpoint(self) -> None:
        """Persist a snapshot of the metadata store (no-op when in memory)."""
        self.database.checkpoint()

    def close(self) -> None:
        self.database.close()

    def statistics(self) -> dict[str, Any]:
        """Instance-wide statistics for monitoring dashboards."""
        snapshot = self.scheduler.snapshot()
        return {
            "projects": len(self.projects.list()),
            "systems": len(self.systems.list()),
            "deployments": len(self.deployments.list()),
            "experiments": len(self.experiments.list()),
            "evaluations": len(self.evaluations.list()),
            "jobs": {
                "scheduled": snapshot.scheduled,
                "running": snapshot.running,
                "finished": snapshot.finished,
                "failed": snapshot.failed,
                "aborted": snapshot.aborted,
            },
            "events": self.events.count(),
        }
