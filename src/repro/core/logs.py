"""Job log storage.

During its run, a Chronos Agent "periodically sends the output of the logger
to Chronos Control" (Section 2.2); the log output is stored with the job and
shown on the job page (Fig. 3c).
"""

from __future__ import annotations

from repro.core.entities import LogEntry
from repro.core.repository import Repository
from repro.storage.database import Database
from repro.storage.query import eq
from repro.util.clock import Clock
from repro.util.ids import IdGenerator


class LogService:
    """Appends and retrieves the log output of jobs."""

    def __init__(self, database: Database, clock: Clock, ids: IdGenerator):
        self._clock = clock
        self._ids = ids
        self._logs = Repository(database, LogEntry)

    def append(self, job_id: str, content: str) -> LogEntry:
        """Store one chunk of log output for ``job_id``."""
        entry = LogEntry(
            id=self._ids.next("log"),
            job_id=job_id,
            # Entries are never removed, so the next number is the count + 1:
            # one look at the index bucket, nothing to rebuild after recovery.
            sequence=self._logs.count(eq("job_id", job_id)) + 1,
            content=content,
            timestamp=self._clock.now(),
        )
        return self._logs.add(entry)

    def entries(self, job_id: str) -> list[LogEntry]:
        """All log entries of a job in upload order."""
        return self._logs.find(eq("job_id", job_id), order_by="sequence")

    def full_text(self, job_id: str) -> str:
        """The concatenated log output of a job."""
        return "\n".join(entry.content for entry in self.entries(job_id))
