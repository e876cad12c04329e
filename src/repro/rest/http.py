"""Request and response primitives for the REST layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

SUPPORTED_METHODS = ("GET", "POST", "PUT", "PATCH", "DELETE")


@dataclass
class Request:
    """An HTTP-style request.

    Attributes:
        method: one of :data:`SUPPORTED_METHODS`.
        path: the request path, e.g. ``/api/v1/jobs/job-000001``.
        body: parsed JSON body (dictionaries/lists/scalars) or ``None``.
        query: query-string parameters.
        headers: request headers (case-insensitive access via :meth:`header`).
        path_params: filled in by the router when the route matches.
        public: whether the matched route is served without authentication,
            filled in with ``path_params``.
    """

    method: str
    path: str
    body: Any = None
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    path_params: dict[str, str] = field(default_factory=dict)
    public: bool = False
    context: dict[str, Any] = field(default_factory=dict)

    def header(self, name: str, default: str | None = None) -> str | None:
        """Case-insensitive header lookup."""
        for key, value in self.headers.items():
            if key.lower() == name.lower():
                return value
        return default

    def require_body(self) -> dict[str, Any]:
        """Return the JSON body, raising a 400-mapped error when absent."""
        from repro.errors import ApiError

        if not isinstance(self.body, dict):
            raise ApiError("request body must be a JSON object", status=400)
        return self.body


@dataclass
class Response:
    """An HTTP-style response with a JSON body."""

    status: int = 200
    body: Any = None
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def json(self) -> Any:
        """Return the response body (already parsed JSON)."""
        return self.body


def json_response(body: Any, status: int = 200) -> Response:
    """Build a JSON response."""
    return Response(status=status, body=body, headers={"Content-Type": "application/json"})


def error_response(message: str, status: int) -> Response:
    """Build an error response with the standard error envelope."""
    return json_response({"error": {"message": message, "status": status}}, status=status)
