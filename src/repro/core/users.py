"""User management, password hashing and session handling.

The original Chronos Control ships "an advanced session and role-based user
management to support the deployment in a multi-user environment"
(Section 2.2).  This module provides users with roles, salted password
hashing, login/logout with expiring session tokens, and token validation used
by the REST authentication middleware.
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
        self._users = Repository(database, User)
        self._sessions = Repository(database, Session)

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

    def get_user(self, user_id: str) -> User:
        return self._users.get(user_id)

    def get_by_username(self, username: str) -> User:
        user = self._users.find_one(eq("username", username))
        if user is None:
            raise NotFoundError(f"user {username!r} does not exist")
        return user

    def list_users(self) -> list[User]:
        return self._users.find(None, order_by="username")

    def change_role(self, user_id: str, role: Role) -> User:
        return self._users.update(user_id, {"role": role.value})

    def change_password(self, user_id: str, new_password: str) -> User:
        ensure_non_empty(new_password, "password")
        return self._users.update(user_id, {"password_hash": hash_password(new_password)})

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

    def logout(self, token: str) -> None:
        """Invalidate a session token (idempotent)."""
        for session in self._sessions.find(eq("token", token)):
            self._sessions.delete(session.id)

    def validate_token(self, token: str) -> User:
        """Return the user owning ``token``; raise if unknown or expired."""
        session = self._sessions.find_one(eq("token", token))
        if session is None:
            raise AuthenticationError("invalid session token")
        if session.expires_at < self._clock.now():
            raise AuthenticationError("session token has expired")
        return self._users.get(session.user_id)

    def active_sessions(self, user_id: str | None = None) -> int:
        """Number of unexpired sessions, optionally for one user."""
        now = self._clock.now()
        return sum(
            1
            for session in self._sessions.find()
            if session.expires_at >= now and (user_id is None or session.user_id == user_id)
        )
