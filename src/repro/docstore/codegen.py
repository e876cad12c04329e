"""The one bounded memo and the one source compiler of the read path.

* :class:`BoundedMemo` -- a ``dict`` of answers computed once per shape: the
  profiler's rendered query shapes, the compiled filter shapes, the ``$group``
  kernels and every planner's plan cache.  A hit is the ``dict``'s own
  ``get`` (no Python frame); a miss computes its answer and hands it to
  :meth:`BoundedMemo.store`, which clears the memo wholesale when it is
  full.  Nothing is evicted one entry at a time: a full memo has seen more
  shapes than a workload has, and it refills with the ones still asked for.
* :func:`define` -- Python source text in, the names it defines out, under
  one filename convention (``<generated ...>``), so a traceback or a profile
  names generated code as such.  Nothing else in ``src/`` calls ``exec``.
"""

from __future__ import annotations

import threading
from typing import Any

#: Entries a process-wide shape memo holds before it is cleared.
SHAPES_LIMIT = 512


class BoundedMemo(dict):
    """A ``dict`` that holds at most ``limit`` entries.

    Read it with ``get``; write it only with :meth:`store`, which takes the
    memo's lock, so concurrent stores never leave it over its limit.  A read
    takes no lock: one ``dict`` operation is atomic.
    """

    __slots__ = ("limit", "_lock")

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit
        self._lock = threading.Lock()

    def store(self, key: Any, value: Any) -> Any:
        """Store ``value`` under ``key`` -- after clearing the memo if it is
        full -- and return it."""
        with self._lock:
            if len(self) >= self.limit:
                self.clear()
            self[key] = value
        return value


def define(source: str, where: str, namespace: dict[str, Any]) -> dict[str, Any]:
    """The names ``source`` defines, its globals ``namespace``.  ``where``
    names the code in its filename, ``<generated {where}>``."""
    defined: dict[str, Any] = {}
    exec(compile(source, f"<generated {where}>", "exec"), namespace, defined)
    return defined
