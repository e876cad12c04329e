"""Assembles the REST application for a Chronos Control instance."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.api import routes
from repro.rest.application import RestApplication
from repro.rest.auth import TokenAuthMiddleware
from repro.rest.http import Request, Response
from repro.rest.router import Handler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.control import ChronosControl


def build_application(control: "ChronosControl") -> RestApplication:
    """Build the versioned REST application for ``control``."""
    application = RestApplication(base_path="/api")

    def unit_of_work(request: Request, handler: Handler) -> Response:
        """A request is one commit (reads included: ``/progress`` writes)."""
        with control.database.transaction():
            return handler(request)

    def validate(token: str) -> dict:
        return {"user": control.users.validate_token(token)}

    application.add_middleware(unit_of_work)
    application.add_middleware(TokenAuthMiddleware(validate))
    routes.register(application, control)
    return application
