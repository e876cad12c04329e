"""The docstore suites' shared fixture: ``deployment``, each matrix entry."""

from tests.docstore.deployments import deployment  # noqa: F401
