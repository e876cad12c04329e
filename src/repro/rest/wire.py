"""Serving the REST application over real HTTP sockets.

The in-process transport is what tests and simulations use, but the original
Chronos Control is reached over HTTP.  :class:`HttpServerAdapter` bridges the
two: it serves a :class:`~repro.rest.application.RestApplication` with the
standard-library HTTP server so external tools (curl, browsers, real agents)
can talk to a running Chronos Control instance, and
:class:`HttpRestClient` is the matching client so the same agent code works
across the wire.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ApiError
from repro.rest.application import RestApplication
from repro.rest.http import Request, Response

#: Seconds between the serving thread's checks for a shutdown request: what
#: :meth:`HttpServerAdapter.stop` waits, at most, for the thread to notice.
_POLL_INTERVAL = 0.05


class HttpServerAdapter:
    """Serves a REST application on ``127.0.0.1:<port>`` in a background thread."""

    def __init__(self, application: RestApplication, port: int = 0):
        self._application = application
        handler = _make_handler(application)
        self._server = ThreadingHTTPServer(("127.0.0.1", port), handler)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with ``port=0``)."""
        return self._server.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def start(self) -> "HttpServerAdapter":
        """Start serving requests in a daemon thread."""
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        args=(_POLL_INTERVAL,), daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the server and wait for the serving thread to exit."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "HttpServerAdapter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class HttpRestClient:
    """An HTTP counterpart of :class:`~repro.rest.client.RestClient`.

    It exposes the same verb methods and returns the same
    :class:`~repro.rest.http.Response` objects, so Chronos Agents can switch
    between the in-process and the wire transport without code changes.
    """

    def __init__(self, base_url: str, token: str | None = None,
                 raise_for_status: bool = True, timeout: float = 10.0):
        self._base_url = base_url.rstrip("/")
        self._token = token
        self._raise_for_status = raise_for_status
        self._timeout = timeout
        self.requests_sent = 0

    def set_token(self, token: str | None) -> None:
        self._token = token

    def get(self, path: str, query: dict[str, str] | None = None) -> Response:
        return self._send("GET", path, None, query)

    def post(self, path: str, body=None) -> Response:
        return self._send("POST", path, body, None)

    def put(self, path: str, body=None) -> Response:
        return self._send("PUT", path, body, None)

    def patch(self, path: str, body=None) -> Response:
        return self._send("PATCH", path, body, None)

    def delete(self, path: str) -> Response:
        return self._send("DELETE", path, None, None)

    def _send(self, method: str, path: str, body, query: dict[str, str] | None) -> Response:
        url = self._base_url + path
        if query:
            url += "?" + urllib.parse.urlencode(query)
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(url, data=data, method=method)
        request.add_header("Content-Type", "application/json")
        if self._token:
            request.add_header("Authorization", f"Bearer {self._token}")
        self.requests_sent += 1
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as raw:
                payload = raw.read().decode("utf-8")
                response = Response(status=raw.status,
                                    body=json.loads(payload) if payload else None)
        except urllib.error.HTTPError as exc:
            payload = exc.read().decode("utf-8")
            response = Response(status=exc.code,
                                body=json.loads(payload) if payload else None)
        if self._raise_for_status and not response.ok:
            message = "request failed"
            if isinstance(response.body, dict):
                message = response.body.get("error", {}).get("message", message)
            raise ApiError(f"{method} {path}: {message}", status=response.status)
        return response


def _make_handler(application: RestApplication):
    class Handler(BaseHTTPRequestHandler):
        # Silence per-request logging; tests and examples don't want the noise.
        def log_message(self, format, *args):  # noqa: A002 - signature fixed by base
            return

        def _dispatch(self, method: str) -> None:
            parsed = urllib.parse.urlparse(self.path)
            query = {key: values[0] for key, values in
                     urllib.parse.parse_qs(parsed.query).items()}
            length = int(self.headers.get("Content-Length") or 0)
            raw_body = self.rfile.read(length) if length else b""
            body = json.loads(raw_body.decode("utf-8")) if raw_body else None
            request = Request(method=method, path=parsed.path, body=body, query=query,
                              headers=dict(self.headers.items()))
            response = application.handle(request)
            payload = json.dumps(response.body).encode("utf-8")
            self.send_response(response.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self):  # noqa: N802 - names fixed by BaseHTTPRequestHandler
            self._dispatch("GET")

        def do_POST(self):  # noqa: N802
            self._dispatch("POST")

        def do_PUT(self):  # noqa: N802
            self._dispatch("PUT")

        def do_PATCH(self):  # noqa: N802
            self._dispatch("PATCH")

        def do_DELETE(self):  # noqa: N802
            self._dispatch("DELETE")

    return Handler
