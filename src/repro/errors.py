"""Exception hierarchy shared by all Chronos reproduction subsystems.

Every subpackage raises exceptions derived from :class:`ChronosError` so that
callers can catch toolkit errors without catching unrelated built-in ones.
"""

from __future__ import annotations


class ChronosError(Exception):
    """Base class for all errors raised by the toolkit."""


class ValidationError(ChronosError):
    """A value supplied by the caller failed validation."""


class NotFoundError(ChronosError):
    """A referenced entity does not exist."""


class ConflictError(ChronosError):
    """An operation conflicts with the current state (e.g. duplicate key)."""


class PermissionDeniedError(ChronosError):
    """The authenticated user is not allowed to perform the operation."""


class AuthenticationError(ChronosError):
    """Authentication failed (unknown user, wrong password, invalid token)."""


class StateError(ChronosError):
    """An operation is not valid in the entity's current state."""


class StorageError(ChronosError):
    """The embedded relational store rejected an operation."""


class DocumentStoreError(ChronosError):
    """The document store (SuE) rejected an operation."""


class DuplicateKeyError(DocumentStoreError):
    """A unique index constraint was violated in the document store."""


class ReplicationError(DocumentStoreError):
    """A replica-set operation could not be performed."""


class NoPrimaryError(ReplicationError):
    """No primary exists and none can be elected (majority unavailable)."""


class WriteConcernError(ReplicationError):
    """A write could not be acknowledged by enough replica-set members."""


class AgentError(ChronosError):
    """A Chronos agent failed while executing a job."""


class SchedulerError(ChronosError):
    """The job scheduler could not schedule or dispatch work."""


class ApiError(ChronosError):
    """An error that maps onto an HTTP error response.

    Attributes:
        status: HTTP status code the REST layer should return.
    """

    status = 500

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        if status is not None:
            self.status = status
