"""The REST surface of Chronos Control: one row per route.

A row names a route's version, method and path template, the call that
serves it, the key its answer is wrapped in, the fields it reads with their
defaults (from the JSON body, from the query string on a GET; a field whose
default is an ``int`` is an integer, coerced with ``int()``), its status,
whether it is public (no token) and the keyword, if any, under which the call
gets the authenticated user.

A regular row's call is a dotted attribute of
:class:`~repro.core.control.ChronosControl` (``"jobs.get"``).  The routes
that compose calls or shape their answer call a plain function of this
module, with the control first.  Either way the path parameters are passed
in order and the fields by keyword.  An answer is an entity (sent as its
row), a list of them, a tuple of them (one key each) or plain JSON, sent as
it is when the row has no key.  :func:`register` resolves all of it once per
row, so a request only reads its fields and makes its call.
"""

from __future__ import annotations

from dataclasses import asdict
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from repro.core.access import AccessControl
from repro.core.entities import DEFAULT_MAX_ATTEMPTS, Entity
from repro.core.parameters import ParameterDefinition
from repro.rest.application import RestApplication
from repro.rest.http import Request, Response, json_response
from repro.rest.router import Handler
from repro.version import __version__

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.control import ChronosControl


class Row(NamedTuple):
    """One route of the table."""

    version: str
    method: str
    path: str
    call: str | Callable[..., Any]
    key: str | tuple[str, ...] | None = None
    fields: dict[str, Any] = {}  # read, never written
    status: int = 200
    public: bool = False
    user: str | None = None


# -- the routes that compose calls or shape their answer ----------------------------


def info(control: "ChronosControl") -> dict[str, Any]:
    return {"name": "Chronos Control", "version": __version__,
            "api_versions": sorted({row.version for row in ROUTES})}


def get_project(control: "ChronosControl", project_id: str, user):
    project = control.projects.get(project_id)
    AccessControl.require_view(user, project)
    return project


def archive_project(control: "ChronosControl", project_id: str, user):
    AccessControl.require_administer(user, control.projects.get(project_id))
    return control.projects.archive(project_id)


def add_member(control: "ChronosControl", project_id: str, username: str, user):
    AccessControl.require_administer(user, control.projects.get(project_id))
    return control.projects.add_member(project_id, control.users.get_by_username(username))


def create_experiment(control: "ChronosControl", project_id: str, user, **fields):
    project = control.projects.ensure_not_archived(project_id)
    AccessControl.require_modify(user, project)
    return control.experiments.create(project.id, **fields)


def create_system(control: "ChronosControl", parameters: list, result_config, user, **fields):
    definitions = [ParameterDefinition.from_dict(item) for item in parameters]
    return control.systems.register(parameters=definitions, result_configuration=result_config,
                                    owner_id=user.id, **fields)


def experiment_space(control: "ChronosControl", experiment_id: str) -> dict[str, Any]:
    return {"experiment_id": experiment_id,
            "jobs": control.experiments.space_size(experiment_id),
            "parameter_sets": control.experiments.job_parameter_sets(experiment_id)}


def evaluation_results(control: "ChronosControl", evaluation_id: str):
    return control.results.for_jobs([job.id for job in control.evaluations.jobs(evaluation_id)])


def abort_job(control: "ChronosControl", job_id: str):
    job = control.jobs.abort(job_id)
    control.evaluations.refresh_status(job.evaluation_id)
    return job


def reschedule_job(control: "ChronosControl", job_id: str):
    job = control.jobs.reschedule(job_id)
    control.evaluations.refresh_status(job.evaluation_id)
    return job


def job_timeline(control: "ChronosControl", job_id: str):
    return control.events.timeline("job", job_id)


def job_log(control: "ChronosControl", job_id: str) -> dict[str, Any]:
    return {"job_id": job_id, "log": control.logs.full_text(job_id)}


def schedule(control: "ChronosControl", triggered_by: str, **fields) -> dict[str, Any]:
    """One-call scheduling, for a build bot after a successful build."""
    evaluation, jobs = control.evaluations.create(**fields)
    return {"evaluation": evaluation.to_row(), "job_count": len(jobs), "triggered_by": triggered_by}


def recover(control: "ChronosControl") -> dict[str, Any]:
    report = control.recover_stalled_jobs()
    return {"rescheduled": report.failed_jobs_rescheduled,
            "stalled_recovered": report.stalled_jobs_recovered,
            "permanently_failed": report.permanently_failed}


def scheduler(control: "ChronosControl") -> dict[str, Any]:
    return asdict(control.scheduler.snapshot())


# -- the table ------------------------------------------------------------------------

_EVALUATION = {"experiment_id": "", "name": None, "deployment_ids": [],
               "max_attempts": DEFAULT_MAX_ATTEMPTS}

ROUTES: tuple[Row, ...] = (
    Row("v1", "GET", "/info", info, public=True),
    Row("v1", "POST", "/login", "users.login", "token", {"username": "", "password": ""},
        public=True),
    Row("v1", "GET", "/projects", "projects.list", "projects", user="user"),
    Row("v1", "POST", "/projects", "projects.create", "project",
        {"name": "", "description": ""}, 201, user="owner"),
    Row("v1", "GET", "/projects/{project_id}", get_project, "project", user="user"),
    Row("v1", "POST", "/projects/{project_id}/archive", archive_project, "project", user="user"),
    Row("v1", "POST", "/projects/{project_id}/members", add_member, "project",
        {"username": ""}, user="user"),
    Row("v1", "GET", "/systems", "systems.list", "systems"),
    Row("v1", "GET", "/systems/{system_id}", "systems.get", "system"),
    Row("v1", "POST", "/systems", create_system, "system", {
        "name": "", "parameters": [], "result_config": None, "description": ""}, 201,
        user="user"),
    Row("v1", "GET", "/deployments", "deployments.list", "deployments", {"system_id": None}),
    Row("v1", "POST", "/deployments", "deployments.register", "deployment", {
        "system_id": "", "name": "", "environment": {}, "version": ""}, 201),
    Row("v1", "GET", "/deployments/{deployment_id}", "deployments.get", "deployment"),
    Row("v1", "POST", "/experiments", create_experiment, "experiment", {
        "project_id": "", "system_id": "", "name": "", "parameters": {}, "description": ""},
        201, user="user"),
    Row("v1", "GET", "/experiments", "experiments.list", "experiments", {"project_id": None}),
    Row("v1", "GET", "/experiments/{experiment_id}", "experiments.get", "experiment"),
    Row("v1", "GET", "/experiments/{experiment_id}/space", experiment_space),
    Row("v1", "POST", "/evaluations", "evaluations.create", ("evaluation", "jobs"),
        _EVALUATION, 201),
    Row("v1", "GET", "/evaluations/{evaluation_id}", "evaluations.get", "evaluation"),
    Row("v1", "GET", "/evaluations/{evaluation_id}/progress", "evaluations.progress"),
    Row("v1", "GET", "/evaluations/{evaluation_id}/jobs", "evaluations.jobs", "jobs"),
    Row("v1", "GET", "/evaluations/{evaluation_id}/results", evaluation_results, "results"),
    Row("v1", "POST", "/evaluations/{evaluation_id}/abort", "evaluations.abort", "evaluation"),
    Row("v1", "GET", "/jobs/{job_id}", "jobs.get", "job"),
    Row("v1", "POST", "/jobs/{job_id}/abort", abort_job, "job"),
    Row("v1", "POST", "/jobs/{job_id}/reschedule", reschedule_job, "job"),
    Row("v1", "GET", "/jobs/{job_id}/timeline", job_timeline, "events"),
    Row("v1", "GET", "/jobs/{job_id}/logs", job_log),
    Row("v1", "GET", "/jobs/{job_id}/result", "results.for_job", "result"),
    Row("v1", "POST", "/agents/next-job", "claim_next_job", "job",
        {"system_id": "", "deployment_id": ""}),
    Row("v1", "PATCH", "/jobs/{job_id}/progress", "report_progress", "job",
        {"progress": 0, "log": None}),
    Row("v1", "POST", "/jobs/{job_id}/logs", "logs.append", "log_entry", {"content": ""}, 201),
    Row("v1", "POST", "/jobs/{job_id}/result", "report_success", ("job", "result"),
        {"data": {}, "metrics": {}, "extra_files": None}, 201),
    Row("v1", "POST", "/jobs/{job_id}/failure", "report_failure", "job",
        {"error": "unknown error"}),
    Row("v2", "GET", "/statistics", "statistics", "statistics"),
    Row("v2", "POST", "/schedule", schedule, None, {**_EVALUATION, "triggered_by": "api"}, 201),
    Row("v2", "POST", "/recover", recover),
    Row("v2", "GET", "/scheduler", scheduler),
)


def register(application: RestApplication, control: "ChronosControl") -> None:
    """Register every row of :data:`ROUTES` on ``application``."""
    for row in ROUTES:
        application.version(row.version).add(row.method, row.path, _handler(row, control),
                                             public=row.public)


def _handler(row: Row, control: "ChronosControl") -> Handler:
    """The handler of ``row``, with everything it needs resolved."""
    call = partial(row.call, control) if callable(row.call) else attrgetter(row.call)(control)
    fields = tuple((name, default, type(default) is int) for name, default in row.fields.items())
    from_query, key, status, user = row.method == "GET", row.key, row.status, row.user

    def handler(request: Request) -> Response:
        arguments = {}
        if fields:
            source = request.query if from_query else request.require_body()
            for name, default, integer in fields:
                value = source.get(name, default)
                arguments[name] = int(value) if integer else value
        if user:
            arguments[user] = request.context["auth"]["user"]
        answer = call(*request.path_params.values(), **arguments)
        if key is None:
            return json_response(_json(answer), status)
        if isinstance(key, tuple):
            return json_response(dict(zip(key, map(_json, answer))), status)
        return json_response({key: _json(answer)}, status)
    return handler


def _json(answer: Any) -> Any:
    """An answer as JSON: an entity as its row, a list item by item."""
    if isinstance(answer, Entity):
        return answer.to_row()
    if isinstance(answer, list):
        return [_json(item) for item in answer]
    return answer
