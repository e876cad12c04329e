"""The document-store tests, as a package: their module names (``test_clock``)
may then repeat those of tests elsewhere."""
