"""Result storage and archiving.

"A result belongs to a job and consists of a JSON and a zip file.  Every data
item which is required for the analysis within Chronos Control is stored in
the JSON file.  Additional results can be stored in the zip file."
(Section 2.1).  Results are stored in the metadata database (JSON part) and,
when an archive directory is configured, the zip file is written next to it,
mirroring the HTTP/FTP upload targets of the original.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path
from typing import Any

from repro.core.entities import Result
from repro.core.enums import EventType
from repro.core.events import EventService
from repro.core.repository import Repository
from repro.errors import NotFoundError, ValidationError
from repro.storage.database import Database
from repro.storage.query import eq
from repro.util.clock import Clock
from repro.util.ids import IdGenerator


class ResultService:
    """Stores job results (JSON + optional zip archive) and retrieves them."""

    def __init__(self, database: Database, clock: Clock, ids: IdGenerator,
                 events: EventService, archive_directory: str | Path | None = None):
        self._clock = clock
        self._ids = ids
        self._events = events
        self._archive_directory = Path(archive_directory) if archive_directory else None
        self._results = Repository(database, Result)

    # -- storing ---------------------------------------------------------------------

    def store(self, job_id: str, data: dict[str, Any],
              metrics: dict[str, float] | None = None,
              extra_files: dict[str, str] | None = None) -> Result:
        """Store the result of ``job_id``.

        Args:
            data: the JSON document with everything Chronos needs for analysis.
            metrics: flat numeric metrics extracted for quick aggregation.
            extra_files: optional mapping of file name to text content, packed
                into the result's zip archive for analysis outside of Chronos.
        """
        if not isinstance(data, dict):
            raise ValidationError("result data must be a JSON object")
        archive_path = None
        if extra_files:
            archive_path = self._write_archive(job_id, data, extra_files)
        result = Result(
            id=self._ids.next("result"),
            job_id=job_id,
            data=dict(data),
            metrics=dict(metrics or {}),
            archive_path=archive_path,
            uploaded_at=self._clock.now(),
        )
        self._results.add(result)
        self._events.record("job", job_id, EventType.RESULT_UPLOADED,
                            f"result {result.id} uploaded")
        return result

    # -- retrieval ----------------------------------------------------------------------

    def for_job(self, job_id: str) -> Result:
        """The (latest) result of ``job_id``."""
        results = self._results.find(eq("job_id", job_id), order_by="uploaded_at")
        if not results:
            raise NotFoundError(f"job {job_id!r} has no result")
        return results[-1]

    def for_job_or_none(self, job_id: str) -> Result | None:
        results = self._results.find(eq("job_id", job_id), order_by="uploaded_at")
        return results[-1] if results else None

    def for_jobs(self, job_ids: list[str]) -> list[Result]:
        """Latest result per job, skipping jobs without results."""
        found = []
        for job_id in job_ids:
            result = self.for_job_or_none(job_id)
            if result is not None:
                found.append(result)
        return found

    # -- archive handling ----------------------------------------------------------------

    def _write_archive(self, job_id: str, data: dict[str, Any],
                       extra_files: dict[str, str]) -> str | None:
        if self._archive_directory is None:
            # Without an archive directory the zip is still produced in memory
            # so its contents are validated, but nothing is persisted.
            buffer = io.BytesIO()
            with zipfile.ZipFile(buffer, "w") as archive:
                for name, content in extra_files.items():
                    archive.writestr(name, content)
            return None
        self._archive_directory.mkdir(parents=True, exist_ok=True)
        path = self._archive_directory / f"{job_id}-result.zip"
        with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("result.json", json.dumps(data, sort_keys=True, indent=2))
            for name, content in extra_files.items():
                archive.writestr(name, content)
        return str(path)
