"""Version 2 of the Chronos Control REST API.

v2 demonstrates the smooth evolution of the API described in the paper: new
clients can use the newer endpoints (instance statistics, one-call evaluation
scheduling for build bots, failure recovery trigger) while v1 clients keep
working unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.entities import DEFAULT_MAX_ATTEMPTS
from repro.rest.http import Request, Response, json_response
from repro.rest.router import Router

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.control import ChronosControl


def register(router: Router, control: "ChronosControl") -> None:
    """Register every v2 route on ``router``."""

    def statistics(_: Request) -> Response:
        return json_response({"statistics": control.statistics()})

    def schedule(request: Request) -> Response:
        """One-call scheduling used by build bots after a successful build."""
        body = request.require_body()
        evaluation, jobs = control.evaluations.create(
            experiment_id=body.get("experiment_id", ""),
            name=body.get("name"),
            deployment_ids=body.get("deployment_ids", []),
            max_attempts=int(body.get("max_attempts", DEFAULT_MAX_ATTEMPTS)),
        )
        return json_response({
            "evaluation": evaluation.to_row(),
            "job_count": len(jobs),
            "triggered_by": body.get("triggered_by", "api"),
        }, status=201)

    def recover(_: Request) -> Response:
        report = control.recover_stalled_jobs()
        return json_response({
            "rescheduled": report.failed_jobs_rescheduled,
            "stalled_recovered": report.stalled_jobs_recovered,
            "permanently_failed": report.permanently_failed,
        })

    def scheduler_snapshot(_: Request) -> Response:
        snapshot = control.scheduler.snapshot()
        return json_response({
            "scheduled": snapshot.scheduled,
            "running": snapshot.running,
            "finished": snapshot.finished,
            "failed": snapshot.failed,
            "aborted": snapshot.aborted,
            "busy_deployments": snapshot.busy_deployments,
        })

    router.get("/statistics", statistics)
    router.post("/schedule", schedule)
    router.post("/recover", recover)
    router.get("/scheduler", scheduler_snapshot)
