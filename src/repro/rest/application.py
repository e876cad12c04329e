"""The REST application: versioned routers, middleware and error mapping."""

from __future__ import annotations

import traceback
from functools import partial
from typing import Callable

from repro.errors import (
    ApiError,
    AuthenticationError,
    ChronosError,
    ConflictError,
    NotFoundError,
    PermissionDeniedError,
    StateError,
    ValidationError,
)
from repro.rest.http import Request, Response, error_response
from repro.rest.router import Handler, Route, Router

#: called as ``middleware(request, handler=inner)``; it returns the response
Middleware = Callable[[Request, Handler], Response]


class RestApplication:
    """Dispatches requests to versioned routers through a middleware chain.

    Chronos versions its REST API so old agents keep working while new
    clients use newer endpoints; the application therefore owns one router
    per version mounted under ``/api/<version>``.
    """

    def __init__(self, base_path: str = "/api"):
        self.base_path = base_path.rstrip("/")
        self._versions: dict[str, Router] = {}
        self._middleware: list[Middleware] = []
        #: per handler dispatched, the handler behind every middleware
        self._chains: dict[Handler, Handler] = {}

    # -- configuration ----------------------------------------------------------

    def version(self, name: str) -> Router:
        """Return (creating if needed) the router for API version ``name``."""
        if name not in self._versions:
            self._versions[name] = Router(prefix=f"{self.base_path}/{name}")
        return self._versions[name]

    def add_middleware(self, middleware: Middleware) -> None:
        """Append ``middleware`` to the chain (outermost first)."""
        self._middleware.append(middleware)
        self._chains = {}  # every chain is composed again, with it

    # -- dispatch -------------------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Dispatch ``request`` and convert exceptions to error responses."""
        try:
            return self._dispatch(request)
        except ApiError as exc:
            return error_response(str(exc), exc.status)
        except AuthenticationError as exc:
            return error_response(str(exc), 401)
        except PermissionDeniedError as exc:
            return error_response(str(exc), 403)
        except NotFoundError as exc:
            return error_response(str(exc), 404)
        except ConflictError as exc:
            return error_response(str(exc), 409)
        except (ValidationError, StateError) as exc:
            return error_response(str(exc), 400)
        except ChronosError as exc:
            return error_response(str(exc), 500)
        except Exception:  # pragma: no cover - defensive: unexpected bugs
            return error_response(
                "internal error: " + traceback.format_exc(limit=1).strip(), 500
            )

    def _dispatch(self, request: Request) -> Response:
        route, params, status = self._resolve(request)
        if route is None:
            if status == 405:
                return error_response("method not allowed", 405)
            return error_response(f"no route for {request.method} {request.path}", 404)
        request.path_params = params
        request.public = route.public
        handler = route.handler
        chains = self._chains
        chain = chains.get(handler)
        if chain is None:
            chain = handler
            for middleware in reversed(self._middleware):
                chain = partial(middleware, handler=chain)
            chains[handler] = chain
        return chain(request)

    def _resolve(self, request: Request) -> tuple[Route | None, dict[str, str], int]:
        best_status = 404
        for router in self._versions.values():
            route, params, status = router.resolve(request.method, request.path)
            if route is not None:
                return route, params, 200
            best_status = max(best_status, status)
        return None, {}, best_status

    # -- convenience for tests / clients -----------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body=None,
        query: dict[str, str] | None = None,
        headers: dict[str, str] | None = None,
    ) -> Response:
        """Build a request and dispatch it."""
        return self.handle(
            Request(method=method, path=path, body=body, query=query or {}, headers=headers or {})
        )
