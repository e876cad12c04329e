"""Tests for the validation helper."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.util.validation import ensure_non_empty


class TestEnsureHelpers:
    def test_non_empty_accepts_strings(self):
        assert ensure_non_empty("hello", "x") == "hello"

    @pytest.mark.parametrize("value", ["", "   ", None, 5])
    def test_non_empty_rejects(self, value):
        with pytest.raises(ValidationError):
            ensure_non_empty(value, "x")
