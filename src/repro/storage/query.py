"""Predicate objects for selecting rows in the embedded relational store.

Predicates are small composable objects (``eq``, ``in_``, ``and_`` ...) instead
of SQL strings: Chronos Control only ever issues point and range lookups over
its metadata tables, and explicit objects keep the store trivially safe from
injection while remaining easy to index-optimise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable


class Predicate:
    """Base class of all predicates."""

    def matches(self, row: dict[str, Any]) -> bool:
        raise NotImplementedError

    def __and__(self, other: "Predicate") -> "Predicate":
        return And([self, other])

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or([self, other])


@dataclass(frozen=True)
class Comparison(Predicate):
    """Compare a single column against a constant."""

    column: str
    op: str
    value: Any

    def matches(self, row: dict[str, Any]) -> bool:
        actual = row.get(self.column)
        if self.op == "in":
            return actual in self.value
        if actual is None:
            # NULL never satisfies a comparison except equality with None.
            return self.op == "eq" and self.value is None
        if self.op == "eq":
            return actual == self.value
        if self.op == "ne":
            return actual != self.value
        if self.op == "gt":
            return actual > self.value
        if self.op == "gte":
            return actual >= self.value
        if self.op == "lt":
            return actual < self.value
        if self.op == "lte":
            return actual <= self.value
        raise ValueError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class And(Predicate):
    parts: tuple[Predicate, ...]

    def __init__(self, parts: Iterable[Predicate]):
        object.__setattr__(self, "parts", tuple(parts))

    def matches(self, row: dict[str, Any]) -> bool:
        return all(part.matches(row) for part in self.parts)


@dataclass(frozen=True)
class Or(Predicate):
    parts: tuple[Predicate, ...]

    def __init__(self, parts: Iterable[Predicate]):
        object.__setattr__(self, "parts", tuple(parts))

    def matches(self, row: dict[str, Any]) -> bool:
        return any(part.matches(row) for part in self.parts)


def eq(column: str, value: Any) -> Comparison:
    """Column equals value."""
    return Comparison(column, "eq", value)


def in_(column: str, values: Iterable[Any]) -> Comparison:
    """Column is one of ``values``."""
    return Comparison(column, "in", tuple(values))


def and_(*parts: Predicate) -> Predicate:
    """All of ``parts`` must match."""
    return And(parts)


def equality_columns(predicate: Predicate | None) -> tuple[dict[str, Any], bool]:
    """Extract top-level ``column == constant`` terms from a predicate.

    The table uses this to answer conjunctive queries from an index instead of
    scanning.  Only ``eq`` comparisons that must hold for the whole predicate
    (i.e. at the top level or inside a top-level ``And``) are returned, with
    whether they *are* the whole predicate -- then an index that binds them
    all answers a count without looking at a row.
    """
    if predicate is None:
        return {}, True
    if isinstance(predicate, Comparison) and predicate.op == "eq":
        return {predicate.column: predicate.value}, True
    if isinstance(predicate, And):
        merged: dict[str, Any] = {}
        exact = True
        for part in predicate.parts:
            terms, whole = equality_columns(part)
            exact = exact and whole and not terms.keys() & merged.keys()
            merged.update(terms)
        return merged, exact
    return {}, False
