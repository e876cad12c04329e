"""Versioned REST API of Chronos Control.

The API serves two kinds of clients (Section 2.2): Chronos Agents requesting
job descriptions and submitting results, and external tools integrating
Chronos into existing evaluation workflows (e.g. a build bot scheduling an
evaluation after a successful build).  The API is versioned (``v1``, ``v2``)
so that new clients can use new features while old clients keep working.

The whole surface is one table, :data:`repro.core.api.routes.ROUTES`: a row
per route names its version, method, path, the control-plane call behind it,
the fields it reads, the key of its answer, its status and whether it is
public.  A new route is one row; :func:`build_application` registers every
row behind the unit-of-work and token middleware.
"""

from repro.core.api.app import build_application

__all__ = ["build_application"]
