"""Tests for the HTTP primitives and the router."""

from __future__ import annotations

import pytest

from repro.rest.http import Request, Response, error_response, json_response
from repro.rest.router import Router


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
