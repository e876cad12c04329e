"""A dict-based reference model of the collection the workloads drive.

It replays the same inserts and ``$set`` updates as the deployment and
answers the same reads, scans and analytics queries from plain Python, so
every answer of the program can be compared with one computed independently.
Documents are flat (``RecordGenerator`` records), ``_id`` values are strings
and ``counter`` is unique, which keeps every expected answer exact.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Iterable

from perf.inputs import INSERT, SCAN_LIMIT, TOPK, UPDATE, Operation


class Oracle:
    def __init__(self) -> None:
        self.documents: dict[str, dict[str, Any]] = {}
        # Sorted views, rebuilt on first use after an insert.
        self._sorted_ids: list[str] | None = None
        self._by_counter: list[tuple[int, str]] | None = None

    # -- writes ------------------------------------------------------------------

    def load(self, records: Iterable[dict[str, Any]]) -> None:
        for record in records:
            self._insert(record)

    def apply(self, operations: Iterable[Operation]) -> None:
        """Replay the writes of an operation stream (reads change nothing)."""
        for kind, query, argument in operations:
            if kind == INSERT:
                self._insert(argument)
            elif kind == UPDATE:
                fields = argument["$set"]
                if any("." in name for name in fields):
                    raise ValueError("the oracle models top-level $set only")
                self.documents[query["_id"]].update(fields)

    def _insert(self, record: dict[str, Any]) -> None:
        if record["_id"] in self.documents:
            raise ValueError(f"duplicate _id {record['_id']!r}")
        self.documents[record["_id"]] = dict(record)
        self._sorted_ids = self._by_counter = None

    # -- answers -----------------------------------------------------------------

    def read(self, key: str) -> list[dict[str, Any]]:
        document = self.documents.get(key)
        return [] if document is None else [document]

    def scan(self, key: str) -> list[dict[str, Any]]:
        """The first ``SCAN_LIMIT`` documents with ``_id >= key`` in ``_id`` order."""
        if self._sorted_ids is None:
            self._sorted_ids = sorted(self.documents)
        first = bisect_left(self._sorted_ids, key)
        return [self.documents[identifier]
                for identifier in self._sorted_ids[first:first + SCAN_LIMIT]]

    def count(self, category: str) -> int:
        return sum(1 for document in self.documents.values()
                   if document["category"] == category)

    def group_active(self) -> dict[str, dict[str, int]]:
        """``category -> {"count", "sum"}`` over the active documents."""
        groups: dict[str, dict[str, int]] = {}
        for document in self.documents.values():
            if document["active"] is True:
                group = groups.setdefault(document["category"],
                                          {"count": 0, "sum": 0})
                group["count"] += 1
                group["sum"] += document["counter"]
        return groups

    def topk(self, threshold: int) -> list[dict[str, Any]]:
        if self._by_counter is None:
            self._by_counter = sorted(
                (document["counter"], identifier)
                for identifier, document in self.documents.items())
        first = bisect_left(self._by_counter, (threshold, ""))
        return [self.documents[identifier]
                for _, identifier in self._by_counter[first:first + TOPK]]

    def user_bytes(self) -> int:
        """Bytes of user data: the documents as compact JSON."""
        return sum(len(json.dumps(document, separators=(",", ":")))
                   for document in self.documents.values())
