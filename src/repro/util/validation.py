"""Small validation helpers used across the public API surface."""

from __future__ import annotations

from repro.errors import ValidationError


def ensure_non_empty(value: str, name: str) -> str:
    """Return ``value`` if it is a non-empty string, else raise."""
    if not isinstance(value, str) or not value.strip():
        raise ValidationError(f"{name} must be a non-empty string, got {value!r}")
    return value
