"""Assembles the REST application for a Chronos Control instance."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.api import v1, v2
from repro.rest.application import RestApplication
from repro.rest.auth import TokenAuthMiddleware
from repro.rest.http import Request, Response
from repro.rest.router import Handler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.control import ChronosControl

PUBLIC_PATHS = ("/login", "/info")


def build_application(control: "ChronosControl") -> RestApplication:
    """Build the versioned REST application for ``control``."""
    application = RestApplication(base_path="/api")

    def unit_of_work(request: Request, handler: Handler) -> Response:
        """A request is one commit (reads included: ``/progress`` writes)."""
        with control.database.transaction():
            return handler(request)

    def validate(token: str) -> dict:
        user = control.users.validate_token(token)
        return {"user": user}

    application.add_middleware(unit_of_work)
    application.add_middleware(TokenAuthMiddleware(validate, public_paths=PUBLIC_PATHS))

    v1.register(application.version("v1"), control)
    v2.register(application.version("v2"), control)
    return application
