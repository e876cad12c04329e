"""Path routing with parameters and API versioning."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.rest.http import SUPPORTED_METHODS, Request, Response

Handler = Callable[[Request], Response]


def _split(path: str) -> list[str]:
    return [part for part in path.split("/") if part]


@dataclass(frozen=True)
class Route:
    """One registered route: method + path template + handler.

    The template's segments are kept as what a request path must equal
    (``literals``) and what it binds (``params``), each with its position.
    A ``public`` route is served without authentication.
    """

    method: str
    template: str
    handler: Handler
    literals: tuple[tuple[int, str], ...]
    params: tuple[tuple[int, str], ...]
    public: bool

    def match_path(self, parts: list[str]) -> dict[str, str] | None:
        """Path parameters when the split path ``parts`` (as many segments as
        the template's) matches, else ``None``; the method is not looked at."""
        for position, literal in self.literals:
            if parts[position] != literal:
                return None
        return {name: parts[position] for position, name in self.params}


class Router:
    """Maps (method, path) pairs to handlers.

    Routes are registered with templates such as ``/jobs/{job_id}/logs``.
    The router distinguishes "no such path" (404) from "path exists but not
    for this method" (405) the way a well-behaved HTTP API does.
    """

    def __init__(self, prefix: str = ""):
        self.prefix = prefix.rstrip("/")
        #: the routes by (segment count, method): all a request needs to look
        #: at, unless it is a 405 or a 404
        self._by_shape: dict[tuple[int, str], list[Route]] = {}

    def add(self, method: str, template: str, handler: Handler, public: bool = False) -> None:
        """Register ``handler`` for ``method`` on ``template``."""
        if method not in SUPPORTED_METHODS:
            raise ValueError(f"unsupported HTTP method {method!r}")
        full = self.prefix + "/" + template.strip("/")
        segments = list(enumerate(_split(full)))
        params = tuple((position, segment[1:-1]) for position, segment in segments
                       if segment.startswith("{") and segment.endswith("}"))
        bound = {position for position, _ in params}
        literals = tuple(item for item in segments if item[0] not in bound)
        route = Route(method, full, handler, literals, params, public)
        self._by_shape.setdefault((len(segments), method), []).append(route)

    def resolve(self, method: str, path: str) -> tuple[Route | None, dict[str, str], int]:
        """Find the route for ``method path``.

        Returns ``(route, path_params, status)`` where status is 200 when a
        route was found, 405 when the path exists under another method and
        404 otherwise.
        """
        parts = _split(path)
        for route in self._by_shape.get((len(parts), method), ()):
            params = route.match_path(parts)
            if params is not None:
                return route, params, 200
        for other in SUPPORTED_METHODS:
            for route in self._by_shape.get((len(parts), other), ()):
                if route.match_path(parts) is not None:
                    return None, {}, 405
        return None, {}, 404
