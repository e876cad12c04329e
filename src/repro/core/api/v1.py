"""Version 1 of the Chronos Control REST API.

v1 covers the complete evaluation workflow: authentication, project /
system / deployment / experiment management, evaluation creation, the
agent-facing job endpoints (claim, progress, logs, result upload, failure
reporting) and result retrieval.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.access import AccessControl
from repro.core.entities import DEFAULT_MAX_ATTEMPTS
from repro.errors import ApiError
from repro.rest.http import Request, Response, json_response
from repro.rest.router import Router
from repro.version import __version__

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.control import ChronosControl


def register(router: Router, control: "ChronosControl") -> None:
    """Register every v1 route on ``router``."""
    _register_public(router, control)
    _register_projects(router, control)
    _register_systems(router, control)
    _register_deployments(router, control)
    _register_experiments(router, control)
    _register_evaluations(router, control)
    _register_jobs(router, control)
    _register_agent_endpoints(router, control)


def _auth_user(request: Request):
    auth = request.context.get("auth") or {}
    user = auth.get("user")
    if user is None:
        raise ApiError("request is not authenticated", status=401)
    return user


# -- public endpoints -------------------------------------------------------------


def _register_public(router: Router, control: "ChronosControl") -> None:
    def info(_: Request) -> Response:
        return json_response({
            "name": "Chronos Control",
            "version": __version__,
            "api_versions": ["v1", "v2"],
        })

    def login(request: Request) -> Response:
        body = request.require_body()
        token = control.users.login(body.get("username", ""), body.get("password", ""))
        return json_response({"token": token}, status=200)

    router.get("/info", info)
    router.post("/login", login)


# -- projects -----------------------------------------------------------------------


def _register_projects(router: Router, control: "ChronosControl") -> None:
    def list_projects(request: Request) -> Response:
        user = _auth_user(request)
        projects = control.projects.list(user=user)
        return json_response({"projects": [project.to_row() for project in projects]})

    def create_project(request: Request) -> Response:
        user = _auth_user(request)
        body = request.require_body()
        project = control.projects.create(
            body.get("name", ""), user, description=body.get("description", "")
        )
        return json_response({"project": project.to_row()}, status=201)

    def get_project(request: Request) -> Response:
        user = _auth_user(request)
        project = control.projects.get(request.path_params["project_id"])
        AccessControl.require_view(user, project)
        return json_response({"project": project.to_row()})

    def archive_project(request: Request) -> Response:
        user = _auth_user(request)
        project = control.projects.get(request.path_params["project_id"])
        AccessControl.require_administer(user, project)
        archived = control.projects.archive(project.id)
        return json_response({"project": archived.to_row()})

    def add_member(request: Request) -> Response:
        user = _auth_user(request)
        project = control.projects.get(request.path_params["project_id"])
        AccessControl.require_administer(user, project)
        body = request.require_body()
        member = control.users.get_by_username(body.get("username", ""))
        updated = control.projects.add_member(project.id, member)
        return json_response({"project": updated.to_row()})

    router.get("/projects", list_projects)
    router.post("/projects", create_project)
    router.get("/projects/{project_id}", get_project)
    router.post("/projects/{project_id}/archive", archive_project)
    router.post("/projects/{project_id}/members", add_member)


# -- systems -------------------------------------------------------------------------


def _register_systems(router: Router, control: "ChronosControl") -> None:
    def list_systems(_: Request) -> Response:
        return json_response({"systems": [system.to_row() for system in control.systems.list()]})

    def get_system(request: Request) -> Response:
        system = control.systems.get(request.path_params["system_id"])
        return json_response({"system": system.to_row()})

    def create_system(request: Request) -> Response:
        from repro.core.parameters import ParameterDefinition

        user = _auth_user(request)
        body = request.require_body()
        definitions = [ParameterDefinition.from_dict(item)
                       for item in body.get("parameters", [])]
        system = control.systems.register(
            name=body.get("name", ""),
            parameters=definitions,
            result_configuration=body.get("result_config"),
            description=body.get("description", ""),
            owner_id=user.id,
        )
        return json_response({"system": system.to_row()}, status=201)

    router.get("/systems", list_systems)
    router.get("/systems/{system_id}", get_system)
    router.post("/systems", create_system)


# -- deployments ------------------------------------------------------------------------


def _register_deployments(router: Router, control: "ChronosControl") -> None:
    def list_deployments(request: Request) -> Response:
        system_id = request.query.get("system_id")
        deployments = control.deployments.list(system_id=system_id)
        return json_response({"deployments": [d.to_row() for d in deployments]})

    def create_deployment(request: Request) -> Response:
        body = request.require_body()
        deployment = control.deployments.register(
            system_id=body.get("system_id", ""),
            name=body.get("name", ""),
            environment=body.get("environment", {}),
            version=body.get("version", ""),
        )
        return json_response({"deployment": deployment.to_row()}, status=201)

    def get_deployment(request: Request) -> Response:
        deployment = control.deployments.get(request.path_params["deployment_id"])
        return json_response({"deployment": deployment.to_row()})

    router.get("/deployments", list_deployments)
    router.post("/deployments", create_deployment)
    router.get("/deployments/{deployment_id}", get_deployment)


# -- experiments -------------------------------------------------------------------------


def _register_experiments(router: Router, control: "ChronosControl") -> None:
    def create_experiment(request: Request) -> Response:
        user = _auth_user(request)
        body = request.require_body()
        project = control.projects.ensure_not_archived(body.get("project_id", ""))
        AccessControl.require_modify(user, project)
        experiment = control.experiments.create(
            project_id=project.id,
            system_id=body.get("system_id", ""),
            name=body.get("name", ""),
            parameters=body.get("parameters", {}),
            description=body.get("description", ""),
        )
        return json_response({"experiment": experiment.to_row()}, status=201)

    def list_experiments(request: Request) -> Response:
        project_id = request.query.get("project_id")
        experiments = control.experiments.list(project_id=project_id)
        return json_response({"experiments": [e.to_row() for e in experiments]})

    def get_experiment(request: Request) -> Response:
        experiment = control.experiments.get(request.path_params["experiment_id"])
        return json_response({"experiment": experiment.to_row()})

    def experiment_space(request: Request) -> Response:
        experiment_id = request.path_params["experiment_id"]
        return json_response({
            "experiment_id": experiment_id,
            "jobs": control.experiments.space_size(experiment_id),
            "parameter_sets": control.experiments.job_parameter_sets(experiment_id),
        })

    router.post("/experiments", create_experiment)
    router.get("/experiments", list_experiments)
    router.get("/experiments/{experiment_id}", get_experiment)
    router.get("/experiments/{experiment_id}/space", experiment_space)


# -- evaluations ---------------------------------------------------------------------------


def _register_evaluations(router: Router, control: "ChronosControl") -> None:
    def create_evaluation(request: Request) -> Response:
        body = request.require_body()
        evaluation, jobs = control.evaluations.create(
            experiment_id=body.get("experiment_id", ""),
            name=body.get("name"),
            deployment_ids=body.get("deployment_ids", []),
            max_attempts=int(body.get("max_attempts", DEFAULT_MAX_ATTEMPTS)),
        )
        return json_response({
            "evaluation": evaluation.to_row(),
            "jobs": [job.to_row() for job in jobs],
        }, status=201)

    def get_evaluation(request: Request) -> Response:
        evaluation = control.evaluations.get(request.path_params["evaluation_id"])
        return json_response({"evaluation": evaluation.to_row()})

    def evaluation_progress(request: Request) -> Response:
        return json_response(
            control.evaluations.progress(request.path_params["evaluation_id"])
        )

    def evaluation_jobs(request: Request) -> Response:
        jobs = control.evaluations.jobs(request.path_params["evaluation_id"])
        return json_response({"jobs": [job.to_row() for job in jobs]})

    def abort_evaluation(request: Request) -> Response:
        evaluation = control.evaluations.abort(request.path_params["evaluation_id"])
        return json_response({"evaluation": evaluation.to_row()})

    def evaluation_results(request: Request) -> Response:
        evaluation_id = request.path_params["evaluation_id"]
        jobs = control.evaluations.jobs(evaluation_id)
        results = control.results.for_jobs([job.id for job in jobs])
        return json_response({"results": [result.to_row() for result in results]})

    router.post("/evaluations", create_evaluation)
    router.get("/evaluations/{evaluation_id}", get_evaluation)
    router.get("/evaluations/{evaluation_id}/progress", evaluation_progress)
    router.get("/evaluations/{evaluation_id}/jobs", evaluation_jobs)
    router.get("/evaluations/{evaluation_id}/results", evaluation_results)
    router.post("/evaluations/{evaluation_id}/abort", abort_evaluation)


# -- jobs ------------------------------------------------------------------------------------


def _register_jobs(router: Router, control: "ChronosControl") -> None:
    def get_job(request: Request) -> Response:
        job = control.jobs.get(request.path_params["job_id"])
        return json_response({"job": job.to_row()})

    def abort_job(request: Request) -> Response:
        job = control.jobs.abort(request.path_params["job_id"])
        control.evaluations.refresh_status(job.evaluation_id)
        return json_response({"job": job.to_row()})

    def reschedule_job(request: Request) -> Response:
        job = control.jobs.reschedule(request.path_params["job_id"])
        control.evaluations.refresh_status(job.evaluation_id)
        return json_response({"job": job.to_row()})

    def job_timeline(request: Request) -> Response:
        events = control.events.timeline("job", request.path_params["job_id"])
        return json_response({"events": [event.to_row() for event in events]})

    def job_logs(request: Request) -> Response:
        job_id = request.path_params["job_id"]
        return json_response({"job_id": job_id, "log": control.logs.full_text(job_id)})

    def job_result(request: Request) -> Response:
        result = control.results.for_job(request.path_params["job_id"])
        return json_response({"result": result.to_row()})

    router.get("/jobs/{job_id}", get_job)
    router.post("/jobs/{job_id}/abort", abort_job)
    router.post("/jobs/{job_id}/reschedule", reschedule_job)
    router.get("/jobs/{job_id}/timeline", job_timeline)
    router.get("/jobs/{job_id}/logs", job_logs)
    router.get("/jobs/{job_id}/result", job_result)


# -- agent-facing endpoints --------------------------------------------------------------------


def _register_agent_endpoints(router: Router, control: "ChronosControl") -> None:
    def claim_next_job(request: Request) -> Response:
        body = request.require_body()
        job = control.claim_next_job(body.get("system_id", ""), body.get("deployment_id", ""))
        if job is None:
            return json_response({"job": None}, status=200)
        return json_response({"job": job.to_row()}, status=200)

    def report_progress(request: Request) -> Response:
        body = request.require_body()
        job = control.report_progress(
            request.path_params["job_id"],
            int(body.get("progress", 0)),
            log_output=body.get("log"),
        )
        return json_response({"job": job.to_row()})

    def append_log(request: Request) -> Response:
        body = request.require_body()
        entry = control.logs.append(request.path_params["job_id"], body.get("content", ""))
        return json_response({"log_entry": entry.to_row()}, status=201)

    def upload_result(request: Request) -> Response:
        body = request.require_body()
        job, result = control.report_success(
            request.path_params["job_id"],
            data=body.get("data", {}),
            metrics=body.get("metrics", {}),
            extra_files=body.get("extra_files"),
        )
        return json_response({"job": job.to_row(), "result": result.to_row()}, status=201)

    def report_failure(request: Request) -> Response:
        body = request.require_body()
        job = control.report_failure(
            request.path_params["job_id"], body.get("error", "unknown error")
        )
        return json_response({"job": job.to_row()})

    router.post("/agents/next-job", claim_next_job)
    router.patch("/jobs/{job_id}/progress", report_progress)
    router.post("/jobs/{job_id}/logs", append_log)
    router.post("/jobs/{job_id}/result", upload_result)
    router.post("/jobs/{job_id}/failure", report_failure)
