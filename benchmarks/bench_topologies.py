"""E12 -- deployment topologies: one workload across every cluster shape.

The topology layer makes "what cluster shape am I evaluating" a declared
property of a control-plane deployment: a serializable
:class:`~repro.docstore.topology.TopologySpec` stored in
``Deployment.environment`` and built by
:func:`~repro.docstore.topology.build_topology`.  This experiment exercises
that end to end: one project, one SuE (``mongodb``), one experiment -- and
one deployment per topology (standalone server, three-member replica set at
``w=majority``, four-shard cluster, replicated cluster), each evaluated
through the scheduler/agent/result pipeline by the shared
:class:`~repro.agents.mongo_agent.MongoAgent` with *zero* topology
parameters in the jobs.

The comparison shows the classic trade-offs from one identical, seeded
parameter point (mmapv1, 8 threads, 50:50 mix):

* **Scale-out**: the sharded cluster out-throughputs the standalone server
  (mmapv1's collection-level lock serialises one server; shards have
  independent locks).
* **Durability tax**: the ``w=majority`` replica set pays the replication
  round-trip on every write, so its average latency is above standalone.
* **Equivalence**: every topology finishes the run holding the same number
  of documents -- same workload, same seed, different shapes.
* **Honest accounting**: chunk migrations performed by the balancer are
  charged to the operations (and load) that triggered them
  (``migration_seconds`` in the cluster statistics).

Run it (CI does, after the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/bench_topologies.py -q
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.demo import (
    TOPOLOGY_COMPARISON,
    run_topology_comparison,
    topology_comparison_rows,
)

SMOKE_PARAMETERS = {
    "storage_engine": "mmapv1",
    "threads": 8,
    "record_count": 120,
    "operation_count": 240,
    "query_mix": "50:50",
    "distribution": "zipfian",
    "seed": 42,
}

FULL_PARAMETERS = {
    "storage_engine": "mmapv1",
    "threads": 8,
    "record_count": 300,
    "operation_count": 600,
    "query_mix": "50:50",
    "distribution": "zipfian",
    "seed": 42,
}


def run_comparison(parameters: dict[str, Any] | None = None) -> dict[str, dict[str, Any]]:
    """One control-plane evaluation per topology; returns rows keyed by name."""
    setup = run_topology_comparison(parameters=parameters or FULL_PARAMETERS)
    return topology_comparison_rows(setup)


def build_report_lines() -> list[str]:
    rows = run_comparison()
    lines = ["## One workload, every deployment topology "
             "(mmapv1, 8 threads, 50:50 mix, one control-plane evaluation "
             "per declared topology)", "",
             "| deployment | topology | throughput (ops/s) | avg (ms) "
             "| p95 (ms) | documents | migrations | migration cost (s) |",
             "| --- | --- | --- | --- | --- | --- | --- | --- |"]
    for name, row in rows.items():
        lines.append(
            f"| {name} | {row['reported_kind']} | {row['throughput']:,.0f} "
            f"| {row['latency_avg_ms']:.4f} | {row['latency_p95_ms']:.4f} "
            f"| {row['documents']:g} | {row['migrations']:g} "
            f"| {row['migration_seconds']:.4f} |")
    lines += ["",
              "Every topology is a control-plane deployment carrying its "
              "`TopologySpec` in `environment[\"topology\"]`; the shared "
              "`MongoAgent` builds each through `build_topology` -- the jobs "
              "contain no topology parameters at all.  Chunk migrations the "
              "balancer performs are charged to the inserts (and load phase) "
              "that triggered them, so sharded numbers include their own "
              "maintenance."]
    return lines


def check_comparison(rows: dict[str, dict[str, Any]]) -> list[str]:
    """The E12 claims, as hard checks; an empty list means they all hold."""
    failures: list[str] = []
    for name, row in rows.items():
        if row["jobs_failed"] or not row["jobs_finished"]:
            failures.append(f"{name}: jobs failed through the control plane")
        if row["reported_kind"] != row["declared_kind"]:
            failures.append(
                f"{name}: reported topology {row['reported_kind']!r} != "
                f"declared {row['declared_kind']!r}")
    counts = {row["documents"] for row in rows.values()}
    if len(counts) != 1:
        failures.append(f"document counts diverged across topologies: {counts}")
    if not rows["sharded"]["throughput"] > rows["standalone"]["throughput"]:
        failures.append("sharded cluster should out-throughput standalone "
                        "on mmapv1's collection-level lock")
    if not rows["replica-set"]["latency_avg_ms"] > rows["standalone"]["latency_avg_ms"]:
        failures.append("w=majority replication should cost average latency")
    if rows["sharded"]["migrations"] <= 0:
        failures.append("the range-sharded load should trigger chunk migrations")
    elif rows["sharded"]["migration_seconds"] <= 0:
        failures.append("chunk migrations happened but were not charged")
    return failures


@pytest.fixture(scope="module")
def topology_report(report_writer):
    lines = build_report_lines()
    report_writer("E12_topologies",
                  "Deployment topologies: one workload across every "
                  "cluster shape, through the control plane",
                  lines)
    return lines


class TestTopologyComparisonShape:
    def test_all_topologies_evaluate_through_the_control_plane(
            self, topology_report):
        rows = run_comparison(SMOKE_PARAMETERS)
        assert check_comparison(rows) == []

    def test_report_covers_every_topology(self, topology_report):
        body = "\n".join(topology_report)
        for name in TOPOLOGY_COMPARISON:
            assert name in body


@pytest.mark.benchmark(group="E12-topologies")
def test_benchmark_topology_comparison(benchmark):
    """Wall-clock cost of the four-topology control-plane evaluation."""
    rows = benchmark.pedantic(run_comparison, args=(SMOKE_PARAMETERS,),
                              rounds=1, iterations=1)
    benchmark.extra_info.update({
        name: f"{row['throughput']:,.0f} ops/s" for name, row in rows.items()
    })
    assert check_comparison(rows) == []
