"""Tests for the HTTP primitives and the router."""

from __future__ import annotations

import pytest

from repro.core.control import ChronosControl
from repro.rest.http import SUPPORTED_METHODS, Request, Response, error_response, json_response
from repro.rest.router import Router
from repro.util.clock import SimulatedClock


def ok_handler(request: Request) -> Response:
    return json_response({"path_params": request.path_params})


class TestRequestResponse:
    def test_header_lookup_is_case_insensitive(self):
        request = Request("GET", "/x", headers={"Authorization": "Bearer t"})
        assert request.header("authorization") == "Bearer t"
        assert request.header("missing", "default") == "default"

    def test_require_body_raises_on_missing(self):
        from repro.errors import ApiError

        with pytest.raises(ApiError):
            Request("POST", "/x").require_body()
        assert Request("POST", "/x", body={"a": 1}).require_body() == {"a": 1}

    def test_response_ok(self):
        assert Response(200).ok
        assert not Response(404).ok

    def test_json_and_error_responses(self):
        response = json_response({"a": 1}, status=201)
        assert response.status == 201 and response.json() == {"a": 1}
        response = error_response("nope", 403)
        assert response.body["error"]["message"] == "nope"


class TestRouter:
    def test_static_route_resolution(self):
        router = Router(prefix="/api/v1")
        router.get("/projects", ok_handler)
        handler, params, status = router.resolve("GET", "/api/v1/projects")
        assert handler is ok_handler and params == {} and status == 200

    def test_path_parameters_extracted(self):
        router = Router(prefix="/api/v1")
        router.get("/jobs/{job_id}/logs", ok_handler)
        handler, params, _ = router.resolve("GET", "/api/v1/jobs/job-7/logs")
        assert params == {"job_id": "job-7"}

    def test_unknown_path_is_404(self):
        router = Router()
        router.get("/a", ok_handler)
        _, __, status = router.resolve("GET", "/b")
        assert status == 404

    def test_wrong_method_is_405(self):
        router = Router()
        router.get("/a", ok_handler)
        handler, __, status = router.resolve("POST", "/a")
        assert handler is None and status == 405

    def test_all_verbs_registerable(self):
        router = Router()
        for method in ("get", "post", "put", "patch", "delete"):
            getattr(router, method)("/thing/{id}", ok_handler)
        assert len(router.routes()) == 5

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            Router().add("OPTIONS", "/x", ok_handler)

    def test_trailing_slashes_normalised(self):
        router = Router(prefix="/api/v1/")
        router.get("projects/", ok_handler)
        handler, __, status = router.resolve("GET", "/api/v1/projects")
        assert handler is ok_handler and status == 200

    def test_length_mismatch_does_not_match(self):
        router = Router()
        router.get("/a/{x}", ok_handler)
        assert router.resolve("GET", "/a")[2] == 404
        assert router.resolve("GET", "/a/1/2")[2] == 404


def linear_resolve(routes, method: str, path: str):
    """The router before it indexed its routes by method: every registered
    ``(method, template, handler)`` of every version, in registration order,
    tried against the path; the reference the index is checked against."""
    parts = [part for part in path.split("/") if part]
    path_exists = False
    for route_method, template, handler in routes:
        segments = [segment for segment in template.split("/") if segment]
        if len(segments) != len(parts):
            continue
        params = {}
        for segment, part in zip(segments, parts):
            if segment.startswith("{") and segment.endswith("}"):
                params[segment[1:-1]] = part
            elif segment != part:
                break
        else:
            if route_method == method:
                return handler, params, 200
            path_exists = True
    return None, {}, 405 if path_exists else 404


class TestIndexedResolution:
    @pytest.fixture
    def api(self, monkeypatch):
        """``ChronosControl.api`` and every route registered on it."""
        registered = []
        add = Router.add

        def recording_add(self, method, template, handler):
            registered.append((method, self.prefix + "/" + template.strip("/"), handler))
            add(self, method, template, handler)

        monkeypatch.setattr(Router, "add", recording_add)
        application = ChronosControl(clock=SimulatedClock()).api
        monkeypatch.undo()
        return application, registered

    def test_the_index_answers_what_the_linear_scan_answers(self, api):
        application, registered = api
        paths = set()
        for _, template, _ in registered:
            segments = [segment for segment in template.split("/") if segment]
            filled = [f"{segment[1:-1]}-7" if segment.startswith("{") else segment
                      for segment in segments]
            paths.add("/" + "/".join(filled))
            paths.add("/" + "/".join(filled + ["extra"]))
            paths.add("/" + "/".join(filled[:-1]))
            for position, segment in enumerate(segments):
                if not segment.startswith("{"):
                    paths.add("/" + "/".join(filled[:position] + ["unknown"]
                                             + filled[position + 1:]))
        statuses = set()
        for path in sorted(paths):
            for method in SUPPORTED_METHODS:
                expected = linear_resolve(registered, method, path)
                assert application._resolve(Request(method, path)) == expected, (method, path)
                statuses.add(expected[2])
        assert statuses == {200, 404, 405}
        assert len(registered) == len(application.version("v1").routes()) \
            + len(application.version("v2").routes())

    def test_a_middleware_added_after_routing_wraps_every_route(self, api):
        application, registered = api
        token = application.request("POST", "/api/v1/login",
                                    body={"username": "admin", "password": "admin"}
                                    ).json()["token"]
        for method, template, _ in registered:  # every chain composed without it
            application.request(method, template)
        application.add_middleware(
            lambda request, handler: json_response({"wrapped": request.path}))
        for method, template, _ in registered:
            response = application.request(method, template,
                                            headers={"Authorization": f"Bearer {token}"})
            assert response.json() == {"wrapped": template}, (method, template)
