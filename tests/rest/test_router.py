"""Tests for the HTTP primitives and the router."""

from __future__ import annotations

import pytest

from repro.core.api.routes import ROUTES
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
        router.add("GET", "/projects", ok_handler)
        route, params, status = router.resolve("GET", "/api/v1/projects")
        assert route.handler is ok_handler and params == {} and status == 200

    def test_path_parameters_extracted(self):
        router = Router(prefix="/api/v1")
        router.add("GET", "/jobs/{job_id}/logs", ok_handler)
        _, params, _ = router.resolve("GET", "/api/v1/jobs/job-7/logs")
        assert params == {"job_id": "job-7"}

    def test_unknown_path_is_404(self):
        router = Router()
        router.add("GET", "/a", ok_handler)
        _, __, status = router.resolve("GET", "/b")
        assert status == 404

    def test_wrong_method_is_405(self):
        router = Router()
        router.add("GET", "/a", ok_handler)
        route, __, status = router.resolve("POST", "/a")
        assert route is None and status == 405

    def test_all_verbs_registerable(self):
        router = Router()
        for method in SUPPORTED_METHODS:
            router.add(method, "/thing/{id}", ok_handler)
        for method in SUPPORTED_METHODS:
            assert router.resolve(method, "/thing/7")[0].method == method

    def test_a_route_is_private_unless_added_public(self):
        router = Router()
        router.add("GET", "/private", ok_handler)
        router.add("GET", "/open", ok_handler, public=True)
        assert not router.resolve("GET", "/private")[0].public
        assert router.resolve("GET", "/open")[0].public

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            Router().add("OPTIONS", "/x", ok_handler)

    def test_trailing_slashes_normalised(self):
        router = Router(prefix="/api/v1/")
        router.add("GET", "projects/", ok_handler)
        route, __, status = router.resolve("GET", "/api/v1/projects")
        assert route.handler is ok_handler and status == 200

    def test_length_mismatch_does_not_match(self):
        router = Router()
        router.add("GET", "/a/{x}", ok_handler)
        assert router.resolve("GET", "/a")[2] == 404
        assert router.resolve("GET", "/a/1/2")[2] == 404


def linear_resolve(routes, method: str, path: str):
    """The router before it indexed its routes by method: every ``(method,
    template)`` of every version, in table order, tried against the path; the
    reference the index is checked against.  It answers with the template."""
    parts = [part for part in path.split("/") if part]
    path_exists = False
    for route_method, template in routes:
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
                return template, params, 200
            path_exists = True
    return None, {}, 405 if path_exists else 404


class TestIndexedResolution:
    @pytest.fixture
    def api(self):
        """``ChronosControl.api`` and the ``(method, path template)`` of every
        row of the route table."""
        application = ChronosControl(clock=SimulatedClock()).api
        return application, [(row.method, f"/api/{row.version}{row.path}") for row in ROUTES]

    def test_every_row_resolves_to_its_route(self, api):
        application, _ = api
        for row in ROUTES:
            template = f"/api/{row.version}{row.path}"
            route, _, status = application._resolve(Request(row.method, template))
            assert (status, route.template, route.public) == (200, template, row.public)

    def test_the_index_answers_what_the_linear_scan_answers(self, api):
        application, registered = api
        paths = set()
        for _, template in registered:
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
                route, params, status = application._resolve(Request(method, path))
                assert (route and route.template, params, status) == expected, (method, path)
                statuses.add(expected[2])
        assert statuses == {200, 404, 405}

    def test_a_middleware_added_after_routing_wraps_every_route(self, api):
        application, registered = api
        token = application.request("POST", "/api/v1/login",
                                    body={"username": "admin", "password": "admin"}
                                    ).json()["token"]
        for method, template in registered:  # every chain composed without it
            application.request(method, template)
        application.add_middleware(
            lambda request, handler: json_response({"wrapped": request.path}))
        for method, template in registered:
            response = application.request(method, template,
                                            headers={"Authorization": f"Bearer {token}"})
            assert response.json() == {"wrapped": template}, (method, template)
