"""User management, password hashing and session handling.

The original Chronos Control ships "an advanced session and role-based user
management to support the deployment in a multi-user environment"
(Section 2.2).  This module provides users with roles, salted password
hashing, login with expiring session tokens, and token validation used by the
REST authentication middleware.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets

from repro.core.entities import Session, User
from repro.core.enums import Role
from repro.core.repository import Repository
from repro.errors import AuthenticationError, ConflictError, NotFoundError
from repro.storage.database import Database
from repro.storage.query import eq
from repro.util.clock import Clock
from repro.util.ids import IdGenerator, new_token
from repro.util.validation import ensure_non_empty

DEFAULT_SESSION_LIFETIME = 8 * 3600.0
_HASH_ITERATIONS = 2000


def hash_password(password: str, salt: str | None = None) -> str:
    """Hash ``password`` with PBKDF2 and a random salt."""
    salt = salt or secrets.token_hex(8)
    digest = hashlib.pbkdf2_hmac(
        "sha256", password.encode("utf-8"), salt.encode("utf-8"), _HASH_ITERATIONS
    ).hex()
    return f"{salt}${digest}"


def verify_password(password: str, stored_hash: str) -> bool:
    """Check ``password`` against a stored salted hash."""
    salt, _, expected = stored_hash.partition("$")
    if not expected:
        return False
    candidate = hash_password(password, salt).partition("$")[2]
    return hmac.compare_digest(candidate, expected)


class UserService:
    """Registers users, authenticates them and manages sessions."""

    def __init__(self, database: Database, clock: Clock, ids: IdGenerator,
                 session_lifetime: float = DEFAULT_SESSION_LIFETIME):
        self._clock = clock
        self._ids = ids
        self._session_lifetime = session_lifetime
        self._database = database
        self._users = Repository(database, User)
        self._sessions = Repository(database, Session)
        #: per token validated: its session's id, version and expiry, its
        #: user and the user's version (see :meth:`validate_token`); each
        #: entry is read under one lock, so a thread may replace another's
        self._validated: dict[str, tuple[str, object, float, User, object]] = {}

    # -- user management -----------------------------------------------------------

    def create_user(self, username: str, password: str, role: Role = Role.USER) -> User:
        """Register a new user with ``role``."""
        ensure_non_empty(username, "username")
        ensure_non_empty(password, "password")
        if self._users.find_one(eq("username", username)) is not None:
            raise ConflictError(f"username {username!r} is already taken")
        user = User(
            id=self._ids.next("user"),
            username=username,
            password_hash=hash_password(password),
            role=role,
            created_at=self._clock.now(),
        )
        return self._users.add(user)

    def get_by_username(self, username: str) -> User:
        user = self._users.find_one(eq("username", username))
        if user is None:
            raise NotFoundError(f"user {username!r} does not exist")
        return user

    def list_users(self) -> list[User]:
        return self._users.find(None, order_by="username")

    # -- sessions -----------------------------------------------------------------------

    def login(self, username: str, password: str) -> str:
        """Authenticate and return a session token."""
        try:
            user = self.get_by_username(username)
        except NotFoundError:
            raise AuthenticationError("unknown username or wrong password") from None
        if not verify_password(password, user.password_hash):
            raise AuthenticationError("unknown username or wrong password")
        token = new_token()
        now = self._clock.now()
        self._sessions.add(Session(
            id=self._ids.next("session"),
            user_id=user.id,
            token=token,
            created_at=now,
            expires_at=now + self._session_lifetime,
        ))
        return token

    def validate_token(self, token: str) -> User:
        """Return the user owning ``token``; raise if unknown or expired.

        A token once validated is remembered with the stored session and user
        rows it was read from.  While :meth:`Database.row_version` says both
        are still stored, the rows are what a fresh read would return, so only
        the expiry is checked again; otherwise the token is read afresh.  The
        user returned is shared by every such request: read it, never change it.
        """
        remembered = self._validated.get(token)
        if remembered is not None:
            session_id, session_version, expires_at, user, user_version = remembered
            version = self._database.row_version
            if version(Session.table, session_id) is session_version \
                    and version(User.table, user.id) is user_version:
                if expires_at < self._clock.now():
                    raise AuthenticationError("session token has expired")
                return user
        return self._read_token(token)

    def _read_token(self, token: str) -> User:
        """Validate ``token`` from the stored rows and remember them for it."""
        self._validated.pop(token, None)
        version = self._database.row_version
        with self._database.transaction():  # the rows and their versions of one state
            session = self._sessions.find_one(eq("token", token))
            if session is None:
                raise AuthenticationError("invalid session token")
            if session.expires_at < self._clock.now():
                raise AuthenticationError("session token has expired")
            user = self._users.get(session.user_id)
            self._validated[token] = (session.id, version(Session.table, session.id),
                                      session.expires_at, user, version(User.table, user.id))
        return user
