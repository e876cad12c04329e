"""E10 -- the query planner: index-range scans and range-targeted routing.

Two comparisons, both opened by the planner refactor:

* **Single server**: the same range query on an indexed vs an unindexed
  collection.  With the ordered secondary index the planner picks
  ``INDEX_RANGE`` and examines only the overlapping index window; without it
  every document is scanned.  The simulated-cost gap widens with the
  document count.
* **Sharded cluster**: the same range query on a range-sharded vs a
  hash-sharded cluster.  The router's shared interval analysis targets only
  the shards owning overlapping chunks on the range-sharded key; the hashed
  key must scatter to every shard.

Run it (CI does, after the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/bench_query_planner.py -q
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.docstore.collection import Collection
from repro.docstore.planner import FULL_SCAN, INDEX_RANGE
from repro.docstore.sharding.cluster import ShardedCluster
from repro.docstore.wiredtiger import WiredTigerEngine

DOCUMENT_COUNTS = [250, 1000, 4000]
SHARDS = 4
WINDOW = 50  # documents matched by the range query (fixed, so the gap grows with N)


def _documents(count: int) -> list[dict[str, Any]]:
    return [
        {"_id": f"user{index:06d}", "counter": index,
         "category": f"cat{index % 10}", "payload": "x" * 64}
        for index in range(count)
    ]


def _range_query(count: int) -> dict[str, Any]:
    low = count // 2
    return {"counter": {"$gte": low, "$lt": low + min(WINDOW, count)}}


def run_single_server(count: int) -> dict[str, Any]:
    """Full-scan vs index-range execution of one range query."""
    indexed = Collection("users", WiredTigerEngine())
    unindexed = Collection("users", WiredTigerEngine())
    documents = _documents(count)
    indexed.insert_many(documents)
    unindexed.insert_many(documents)
    indexed.create_index("counter")

    query = _range_query(count)
    indexed_plan = indexed.explain(query)["winning_plan"]
    unindexed_plan = unindexed.explain(query)["winning_plan"]
    indexed_cost = indexed.find_with_cost(query).simulated_seconds
    scan_cost = unindexed.find_with_cost(query).simulated_seconds
    return {
        "documents": count,
        "indexed_path": indexed_plan["access_path"],
        "indexed_examined": indexed_plan["candidates_examined"],
        "unindexed_path": unindexed_plan["access_path"],
        "indexed_cost": indexed_cost,
        "scan_cost": scan_cost,
        "speedup": scan_cost / indexed_cost if indexed_cost else float("inf"),
    }


def run_sharded(count: int, strategy: str) -> dict[str, Any]:
    """One range query on the shard key against a 4-shard cluster."""
    cluster = ShardedCluster(shards=SHARDS, strategy=strategy, split_threshold=32,
                             auto_maintenance=False)
    handle = cluster.database("bench").collection("users")
    handle.insert_many([{"_id": f"user{index:06d}", "counter": index}
                        for index in range(count)])
    cluster.maintain("bench", "users")

    start = f"user{count - min(WINDOW, count):06d}"
    query = {"_id": {"$gte": start}}
    # Snapshot the routing counters after loading: every insert_one counts as
    # a targeted operation, so only the delta attributes to the range query.
    targeted_before = cluster.router.targeted_operations
    scatter_before = cluster.router.scatter_operations
    result = handle.find_with_cost(query)
    return {
        "documents": count,
        "strategy": strategy,
        "shards_contacted": len(result.shard_costs),
        "matched": len(result.documents),
        "cost": result.simulated_seconds,
        "targeted": cluster.router.targeted_operations - targeted_before,
        "scatter": cluster.router.scatter_operations - scatter_before,
    }


def build_report_lines() -> list[str]:
    lines = ["## Single server: full scan vs INDEX_RANGE", "",
             "| documents | indexed path | examined | indexed cost (s) "
             "| full-scan cost (s) | speedup |",
             "| --- | --- | --- | --- | --- | --- |"]
    for count in DOCUMENT_COUNTS:
        row = run_single_server(count)
        lines.append(
            f"| {row['documents']} | {row['indexed_path']} "
            f"| {row['indexed_examined']} | {row['indexed_cost']:.6f} "
            f"| {row['scan_cost']:.6f} | {row['speedup']:.1f}x |")
    lines += ["", "## Sharded: scatter (hash) vs range-targeted (range)", "",
              "| documents | strategy | shards contacted | matched | cost (s) |",
              "| --- | --- | --- | --- | --- |"]
    for count in DOCUMENT_COUNTS:
        for strategy in ("hash", "range"):
            row = run_sharded(count, strategy)
            lines.append(
                f"| {row['documents']} | {row['strategy']} "
                f"| {row['shards_contacted']}/{SHARDS} | {row['matched']} "
                f"| {row['cost']:.6f} |")
    return lines


@pytest.fixture(scope="module")
def planner_report(report_writer):
    lines = build_report_lines()
    report_writer("E10_query_planner",
                  "Query planner: index-range scans and range-targeted routing",
                  lines)
    return lines


class TestPlannerShape:
    def test_index_range_beats_full_scan_at_scale(self, planner_report):
        for count in (1000, 4000):
            row = run_single_server(count)
            assert row["indexed_path"] == INDEX_RANGE
            assert row["unindexed_path"] == FULL_SCAN
            assert row["indexed_cost"] < row["scan_cost"]

    def test_speedup_grows_with_document_count(self, planner_report):
        speedups = [run_single_server(count)["speedup"]
                    for count in DOCUMENT_COUNTS]
        assert speedups[-1] > speedups[0]

    def test_range_strategy_targets_a_shard_subset(self, planner_report):
        hashed = run_sharded(1000, "hash")
        ranged = run_sharded(1000, "range")
        assert hashed["shards_contacted"] == SHARDS
        assert ranged["shards_contacted"] < SHARDS
        assert hashed["matched"] == ranged["matched"]
        assert ranged["targeted"] >= 1 and hashed["scatter"] >= 1


@pytest.mark.benchmark(group="E10-planner")
@pytest.mark.parametrize("count", DOCUMENT_COUNTS)
def test_benchmark_planner_range_query(benchmark, count):
    """Wall-clock cost of loading + one planned range query."""
    result = benchmark.pedantic(run_single_server, args=(count,),
                                rounds=1, iterations=1)
    benchmark.extra_info.update({
        "documents": count, "speedup": result["speedup"],
    })
    assert result["indexed_cost"] < result["scan_cost"]
