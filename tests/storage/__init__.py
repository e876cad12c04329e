"""The embedded relational store's tests, as a package, so they share
:mod:`tests.storage.schemas`."""
