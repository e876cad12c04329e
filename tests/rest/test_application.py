"""Tests for the REST application: versioning, middleware, error mapping, client."""

from __future__ import annotations

import pytest

from repro.errors import (
    ApiError,
    AuthenticationError,
    ConflictError,
    NotFoundError,
    PermissionDeniedError,
    ValidationError,
)
from repro.rest.application import RestApplication
from repro.rest.auth import TokenAuthMiddleware
from repro.rest.client import RestClient
from repro.rest.http import Request, json_response


@pytest.fixture
def application() -> RestApplication:
    app = RestApplication()

    def echo(request: Request):
        return json_response({"body": request.body, "query": request.query})

    def fail(request: Request):
        kind = request.path_params["kind"]
        errors = {
            "not-found": NotFoundError("missing"),
            "conflict": ConflictError("duplicate"),
            "validation": ValidationError("bad input"),
            "auth": AuthenticationError("who are you"),
            "forbidden": PermissionDeniedError("not yours"),
            "api": ApiError("teapot", status=418),
            "crash": RuntimeError("boom"),
        }
        raise errors[kind]

    v1 = app.version("v1")
    v1.add("POST", "/echo", echo)
    v1.add("GET", "/fail/{kind}", fail)
    v2 = app.version("v2")
    v2.add("GET", "/new-feature", lambda request: json_response({"version": 2}))
    return app


class TestVersioning:
    def test_both_versions_served(self, application):
        assert application.request("POST", "/api/v1/echo", body={"a": 1}).ok
        assert application.request("GET", "/api/v2/new-feature").json() == {"version": 2}

    def test_v1_route_not_available_under_v2(self, application):
        assert application.request("POST", "/api/v2/echo", body={}).status == 404

    def test_a_version_is_one_router(self, application):
        assert application.version("v1") is application.version("v1")
        assert application.version("v1") is not application.version("v2")


class TestErrorMapping:
    @pytest.mark.parametrize("kind,status", [
        ("not-found", 404), ("conflict", 409), ("validation", 400),
        ("auth", 401), ("forbidden", 403), ("api", 418), ("crash", 500),
    ])
    def test_exceptions_map_to_status_codes(self, application, kind, status):
        response = application.request("GET", f"/api/v1/fail/{kind}")
        assert response.status == status
        assert "message" in response.body["error"]

    def test_unknown_route_404(self, application):
        assert application.request("GET", "/api/v1/nope").status == 404

    def test_wrong_method_405(self, application):
        assert application.request("GET", "/api/v1/echo").status == 405


class TestMiddleware:
    def test_middleware_wraps_handlers(self, application):
        calls = []

        def middleware(request, handler):
            calls.append(request.path)
            response = handler(request)
            response.headers["X-Middleware"] = "yes"
            return response

        application.add_middleware(middleware)
        response = application.request("POST", "/api/v1/echo", body={})
        assert response.headers["X-Middleware"] == "yes"
        assert calls == ["/api/v1/echo"]

    def test_token_auth_middleware(self):
        app = RestApplication()
        app.version("v1").add("GET", "/private",
                              lambda r: json_response({"user": r.context["auth"]["name"]}))
        app.version("v1").add("GET", "/private/{name}", lambda r: json_response({"ok": True}))
        app.version("v1").add("GET", "/public/info", lambda r: json_response({"ok": True}),
                              public=True)

        def validator(token: str):
            if token != "secret":
                raise AuthenticationError("bad token")
            return {"name": "alice"}

        app.add_middleware(TokenAuthMiddleware(validator))
        assert app.request("GET", "/api/v1/public/info").ok
        assert app.request("GET", "/api/v1/private").status == 401
        assert app.request("GET", "/api/v1/private/info").status == 401  # the route decides
        ok = app.request("GET", "/api/v1/private",
                         headers={"Authorization": "Bearer secret"})
        assert ok.json() == {"user": "alice"}

    def test_token_via_query_parameter(self):
        app = RestApplication()
        app.version("v1").add("GET", "/private", lambda r: json_response({"ok": True}))
        app.add_middleware(TokenAuthMiddleware(lambda token: {"token": token}))
        assert app.request("GET", "/api/v1/private", query={"token": "x"}).ok


class TestRestClient:
    def test_verbs_and_token_header(self, application):
        client = RestClient(application, token="secret")
        response = client.post("/api/v1/echo", {"a": 1})
        assert response.json()["body"] == {"a": 1}
        assert client.requests_sent == 1

    def test_raise_for_status(self, application):
        client = RestClient(application)
        with pytest.raises(ApiError):
            client.get("/api/v1/fail/not-found")

    def test_raise_for_status_disabled(self, application):
        client = RestClient(application, raise_for_status=False)
        assert client.get("/api/v1/fail/not-found").status == 404

    def test_query_parameters_forwarded(self, application):
        client = RestClient(application)
        response = client.post("/api/v1/echo", None)
        assert response.ok
