"""E11 -- replication: write-concern durability, read staleness, recovery.

Three comparisons, all opened by the replication subsystem:

* **Write concern: latency vs durability.**  The same insert stream with the
  primary killed mid-run.  ``w=1`` acknowledges after the primary applies --
  fastest, but the unreplicated tail (bounded by the replication lag) dies
  with the primary.  ``w=majority`` pays the replication round-trip on every
  write and loses *nothing*: the elected successor holds every acknowledged
  write.
* **Read preference: throughput vs staleness.**  ``primary`` reads are
  consistent; ``secondary``/``nearest`` reads spread load over the members
  (higher modelled throughput at thread counts past one member's
  concurrency) but observe the replication lag as staleness.
* **Recovery after a primary kill.**  A YCSB-style workload with the primary
  crashed halfway: the next operation detects the failure, the majority
  elects the freshest secondary, the workload finishes -- with zero
  acknowledged-write loss at ``w=majority``.

Run it (CI does, after the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/bench_replication.py -q
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.docstore.client import DocumentClient
from repro.docstore.replication import FailureInjector, ReplicaSet
from repro.docstore.topology import TopologySpec
from repro.util.stats import mean
from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
from repro.workloads.ycsb import OperationMix

MEMBERS = 3
LAG = 4
WRITE_CONCERNS: list[int | str] = [1, 2, "majority"]
READ_PREFERENCES = ["primary", "secondary", "nearest"]


def run_write_concern(write_concern: int | str, total: int = 120,
                      kill_at: int = 80) -> dict[str, Any]:
    """Insert stream with a mid-run primary kill; measure latency and loss."""
    replica_set = ReplicaSet(members=MEMBERS, write_concern=write_concern,
                             replication_lag=LAG)
    handle = DocumentClient(replica_set).collection("bench", "events")
    injector = FailureInjector(replica_set)
    acknowledged: list[str] = []
    latencies: list[float] = []
    for index in range(total):
        if index == kill_at:
            injector.kill_primary()
        result = handle.insert_one({"_id": f"event{index:05d}", "n": index})
        acknowledged.extend(result.inserted_ids)
        latencies.append(result.simulated_seconds)
    surviving = {document["_id"]
                 for document in handle.find_with_cost({}).documents}
    lost = [record_id for record_id in acknowledged
            if record_id not in surviving]
    return {
        "write_concern": write_concern,
        "ack_latency_ms": mean(latencies[:kill_at]) * 1000.0,
        "failover_latency_ms": latencies[kill_at] * 1000.0,
        "acknowledged": len(acknowledged),
        "lost": len(lost),
        "rolled_back": replica_set.rolled_back_entries,
    }


def run_read_preference(read_preference: str) -> dict[str, Any]:
    """A read-heavy workload; measure modelled throughput and staleness.

    Runs on mmapv1 deliberately: its collection-level lock serialises one
    server at 8 threads, so spreading reads over the members
    (``secondary``/``nearest``) buys real modelled throughput -- the classic
    reason to accept stale reads.  (wiredTiger's document-level locks already
    scale on a single node, so there the trade-off is dominated by network
    pings, not locking.)
    """
    spec = WorkloadSpec(record_count=300, operation_count=600, threads=8,
                        mix=OperationMix(read=0.9, update=0.1),
                        distribution="zipfian", seed=11)
    topology = TopologySpec(replicas=MEMBERS, write_concern=1,
                            read_preference=read_preference,
                            replication_lag=LAG, storage_engine="mmapv1")
    benchmark = DocumentBenchmark.for_topology(topology, spec)
    result = benchmark.execute_full()
    replication = result.engine_statistics["replication"]
    return {
        "read_preference": read_preference,
        "throughput": result.throughput_ops_per_sec,
        "p95_ms": result.latency_p95_ms,
        "staleness_mean": replication["staleness_mean"],
        "staleness_max": replication["staleness_max"],
    }


def run_recovery(write_concern: int | str = "majority") -> dict[str, Any]:
    """Kill the primary halfway through a YCSB-style run; measure recovery."""
    spec = WorkloadSpec(record_count=200, operation_count=400, threads=4,
                        mix=OperationMix(read=0.5, update=0.3, insert=0.2),
                        distribution="zipfian", seed=7)
    topology = TopologySpec(replicas=MEMBERS, write_concern=write_concern,
                            replication_lag=LAG)
    benchmark = DocumentBenchmark.for_topology(topology, spec)
    replica_set = benchmark.server
    assert isinstance(replica_set, ReplicaSet)
    injector = FailureInjector(replica_set)
    kill_at = spec.operation_count // 2

    def hook(index: int) -> None:
        if index == kill_at:
            injector.kill_primary()

    benchmark.operation_hook = hook
    result = benchmark.execute_full()
    election = replica_set.elections[0]
    return {
        "write_concern": write_concern,
        "operations": result.operations,
        "failovers": replica_set.failovers,
        "election_ms": election.as_dict()["simulated_seconds"] * 1000.0,
        "votes": f"{election.votes}/{election.member_count}",
        "rolled_back": replica_set.rolled_back_entries,
        "throughput": result.throughput_ops_per_sec,
    }


def build_report_lines() -> list[str]:
    lines = [f"## Write concern: ack latency vs durability "
             f"({MEMBERS} members, lag {LAG}, primary killed mid-run)", "",
             "| w | ack latency (ms) | failover op (ms) | acknowledged "
             "| lost | rolled back |",
             "| --- | --- | --- | --- | --- | --- |"]
    for write_concern in WRITE_CONCERNS:
        row = run_write_concern(write_concern)
        lines.append(
            f"| {row['write_concern']} | {row['ack_latency_ms']:.4f} "
            f"| {row['failover_latency_ms']:.4f} | {row['acknowledged']} "
            f"| {row['lost']} | {row['rolled_back']} |")
    lines += ["", "## Read preference: throughput vs staleness "
              f"(mmapv1, w=1, lag {LAG}, 8 threads)", "",
              "| reads | throughput (ops/s) | p95 (ms) | staleness mean "
              "| staleness max |",
              "| --- | --- | --- | --- | --- |"]
    for read_preference in READ_PREFERENCES:
        row = run_read_preference(read_preference)
        lines.append(
            f"| {row['read_preference']} | {row['throughput']:,.0f} "
            f"| {row['p95_ms']:.3f} | {row['staleness_mean']:.2f} "
            f"| {row['staleness_max']} |")
    lines += ["", "## Recovery: primary killed halfway through a workload", "",
              "| w | operations | failovers | election (ms) | votes "
              "| rolled back | throughput (ops/s) |",
              "| --- | --- | --- | --- | --- | --- | --- |"]
    for write_concern in (1, "majority"):
        row = run_recovery(write_concern)
        lines.append(
            f"| {row['write_concern']} | {row['operations']} "
            f"| {row['failovers']} | {row['election_ms']:.2f} "
            f"| {row['votes']} | {row['rolled_back']} "
            f"| {row['throughput']:,.0f} |")
    return lines


@pytest.fixture(scope="module")
def replication_report(report_writer):
    lines = build_report_lines()
    report_writer("E11_replication",
                  "Replication: write-concern durability, read staleness, "
                  "failover recovery",
                  lines)
    return lines


class TestReplicationShape:
    def test_majority_never_loses_acknowledged_writes(self, replication_report):
        row = run_write_concern("majority")
        assert row["lost"] == 0
        assert row["rolled_back"] == 0

    def test_w1_loses_the_lag_window(self, replication_report):
        row = run_write_concern(1)
        assert row["lost"] == LAG
        assert row["rolled_back"] == LAG

    def test_durability_costs_latency(self, replication_report):
        costs = {write_concern: run_write_concern(write_concern)["ack_latency_ms"]
                 for write_concern in (1, "majority")}
        assert costs["majority"] > costs[1]

    def test_secondary_reads_trade_staleness_for_throughput(
            self, replication_report):
        primary = run_read_preference("primary")
        secondary = run_read_preference("secondary")
        assert primary["staleness_mean"] == 0.0
        assert secondary["staleness_mean"] > 0.0
        assert secondary["throughput"] > primary["throughput"]

    def test_recovery_completes_with_one_election(self, replication_report):
        row = run_recovery("majority")
        assert row["operations"] == 400
        assert row["failovers"] == 1
        assert row["election_ms"] > 0
        assert row["rolled_back"] == 0


@pytest.mark.benchmark(group="E11-replication")
@pytest.mark.parametrize("write_concern", WRITE_CONCERNS)
def test_benchmark_write_concern_failover(benchmark, write_concern):
    """Wall-clock cost of the insert-kill-failover scenario."""
    result = benchmark.pedantic(run_write_concern, args=(write_concern,),
                                rounds=1, iterations=1)
    benchmark.extra_info.update({
        "write_concern": str(write_concern), "lost": result["lost"],
    })
    if write_concern == "majority":
        assert result["lost"] == 0
