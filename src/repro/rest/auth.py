"""Token-based authentication middleware for the REST application."""

from __future__ import annotations

from typing import Callable

from repro.errors import AuthenticationError
from repro.rest.http import Request, Response
from repro.rest.router import Handler

TokenValidator = Callable[[str], dict]


class TokenAuthMiddleware:
    """Checks the ``Authorization: Bearer <token>`` header on protected paths.

    The validator callback maps a token to an authentication context (e.g.
    the user row and role); the context is stored in ``request.context`` under
    ``"auth"`` so handlers can enforce project-level permissions.
    A request whose route is public (``request.public``, such as the login
    endpoint and the API index) bypasses authentication.
    """

    def __init__(self, validator: TokenValidator):
        self._validator = validator

    def __call__(self, request: Request, handler: Handler) -> Response:
        if not request.public:
            request.context["auth"] = self._validator(self._extract_token(request))
        return handler(request)

    @staticmethod
    def _extract_token(request: Request) -> str:
        header = request.header("Authorization")
        if header and header.startswith("Bearer "):
            return header[len("Bearer "):]
        token = request.query.get("token")
        if token:
            return token
        raise AuthenticationError("missing authentication token")
