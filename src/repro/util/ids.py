"""Identifier and token generation.

Chronos Control assigns every entity a short, unique, prefixed identifier
(e.g. ``job-000017``) and issues opaque session tokens.  Identifiers are
sequential per prefix within a single :class:`IdGenerator` so that test runs
are deterministic, while :func:`new_token` produces unpredictable secrets.
"""

from __future__ import annotations

import itertools
import secrets
import threading


class IdGenerator:
    """Generates deterministic, prefixed, sequential identifiers.

    A single generator is thread-safe; each prefix has its own counter so a
    store can hand out ``project-000001``, ``job-000001`` etc. independently.
    """

    def __init__(self, width: int = 6):
        self._width = width
        self._counters: dict[str, itertools.count] = {}
        self._lock = threading.Lock()

    def next(self, prefix: str) -> str:
        """Return the next identifier for ``prefix``."""
        with self._lock:
            counter = self._counters.setdefault(prefix, itertools.count(1))
            value = next(counter)
        return f"{prefix}-{value:0{self._width}d}"

    def ensure_past(self, prefix: str, used: int) -> None:
        """Make sure the next id for ``prefix`` is greater than ``used``.

        Called after recovering a persisted store so freshly generated ids
        never collide with ids already present on disk.
        """
        with self._lock:
            counter = self._counters.get(prefix)
            current = next(counter) - 1 if counter is not None else 0
            start = max(current, used)
            self._counters[prefix] = itertools.count(start + 1)


def new_token(nbytes: int = 24) -> str:
    """Return an unpredictable URL-safe token for sessions and API keys."""
    return secrets.token_urlsafe(nbytes)
