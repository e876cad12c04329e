"""Agent-side wrapper around the Chronos Control REST API.

The connection hides every HTTP detail from agent implementations: it logs
in, claims jobs, sends progress/log updates and uploads results.  It talks to
the API exclusively through a :class:`~repro.rest.client.RestClient`, so it
works identically against the in-process application and would work against
a real HTTP transport.
"""

from __future__ import annotations

from typing import Any

from repro.rest.client import RestClient


class AgentConnection:
    """REST connection of one agent to Chronos Control."""

    def __init__(self, client: RestClient, api_version: str = "v1"):
        self._client = client
        self._base = f"/api/{api_version}"

    # -- authentication ------------------------------------------------------------

    def login(self, username: str, password: str) -> str:
        """Log in and remember the session token for subsequent requests."""
        response = self._client.post(
            f"{self._base}/login", {"username": username, "password": password}
        )
        token = response.json()["token"]
        self._client.set_token(token)
        return token

    # -- job acquisition ----------------------------------------------------------------

    def claim_next_job(self, system_id: str, deployment_id: str) -> dict[str, Any] | None:
        """Ask Chronos Control for the next job of ``system_id`` on this deployment."""
        response = self._client.post(
            f"{self._base}/agents/next-job",
            {"system_id": system_id, "deployment_id": deployment_id},
        )
        return response.json().get("job")

    # -- progress, logs, results -----------------------------------------------------------

    def report_progress(self, job_id: str, progress: int, log: str | None = None) -> None:
        body: dict[str, Any] = {"progress": progress}
        if log is not None:
            body["log"] = log
        self._client.patch(f"{self._base}/jobs/{job_id}/progress", body)

    def append_log(self, job_id: str, content: str) -> None:
        self._client.post(f"{self._base}/jobs/{job_id}/logs", {"content": content})

    def upload_result(self, job_id: str, data: dict[str, Any],
                      metrics: dict[str, float] | None = None,
                      extra_files: dict[str, str] | None = None) -> dict[str, Any]:
        response = self._client.post(
            f"{self._base}/jobs/{job_id}/result",
            {"data": data, "metrics": metrics or {}, "extra_files": extra_files},
        )
        return response.json()

    def report_failure(self, job_id: str, error: str) -> dict[str, Any]:
        response = self._client.post(
            f"{self._base}/jobs/{job_id}/failure", {"error": error}
        )
        return response.json()

    @property
    def requests_sent(self) -> int:
        """Number of REST requests issued so far (used by the API benchmark)."""
        return self._client.requests_sent
