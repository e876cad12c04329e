"""E9 -- scale-out: YCSB workloads against sharded clusters.

The sharded deployment opens an evaluation axis the single-server demo of
the paper cannot express: shard count x placement strategy.  This harness
reproduces the expected shape -- throughput grows with the shard count
(each shard serves a slice of the client threads with its own locks) while
the routed results stay identical to a single server's -- and records the
chunk/migration bookkeeping of every configuration.
"""

from __future__ import annotations

import pytest

from repro.docstore.topology import TopologySpec
from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
from repro.workloads.ycsb import CORE_WORKLOADS

THREADS = 8
SHARD_COUNTS = [1, 2, 4, 8]
WORKLOAD = "A"  # update heavy: the mix that contends hardest on one server


def run_sharded(shards: int, workload: str = WORKLOAD, strategy: str = "hash",
                threads: int = THREADS):
    core = CORE_WORKLOADS[workload]
    spec = WorkloadSpec(record_count=200, operation_count=400, threads=threads,
                        mix=core.mix, distribution=core.distribution, seed=7)
    topology = TopologySpec(shards=shards, shard_strategy=strategy)
    return DocumentBenchmark.for_topology(topology, spec).execute_full()


@pytest.fixture(scope="module")
def shard_sweep(report_writer):
    sweep = {shards: run_sharded(shards) for shards in SHARD_COUNTS}
    lines = ["| shards | throughput (ops/s) | p95 (ms) | chunks | migrations |",
             "| --- | --- | --- | --- | --- |"]
    for shards, result in sweep.items():
        statistics = result.engine_statistics
        lines.append(f"| {shards} | {result.throughput_ops_per_sec:,.0f} "
                     f"| {result.latency_p95_ms:.3f} | {statistics.get('chunks', 1)} "
                     f"| {statistics.get('migrations', 0)} |")
    report_writer("E9_sharded_cluster",
                  f"YCSB {WORKLOAD} across shard counts at {THREADS} threads", lines)
    return sweep


class TestScaleOutShape:
    def test_throughput_grows_with_shard_count(self, shard_sweep):
        assert (shard_sweep[4].throughput_ops_per_sec
                > shard_sweep[1].throughput_ops_per_sec)

    def test_scaling_is_monotone_across_the_sweep(self, shard_sweep):
        ordered = [shard_sweep[shards].throughput_ops_per_sec
                   for shards in SHARD_COUNTS]
        assert all(later >= earlier * 0.95
                   for earlier, later in zip(ordered, ordered[1:]))

    def test_p95_latency_shrinks_with_shard_count(self, shard_sweep):
        assert shard_sweep[4].latency_p95_ms <= shard_sweep[1].latency_p95_ms

    def test_every_configuration_completes_all_operations(self, shard_sweep):
        for result in shard_sweep.values():
            assert result.operations == 400

    def test_sharded_runs_report_cluster_statistics(self, shard_sweep):
        for shards, result in shard_sweep.items():
            if shards == 1:
                continue
            statistics = result.engine_statistics
            assert statistics["sharded"] is True
            assert statistics["chunks"] >= shards
            assert sum(statistics["chunk_distribution"].values()) == statistics["chunks"]

    def test_document_totals_identical_across_shard_counts(self, shard_sweep):
        totals = {shards: result.engine_statistics["documents"]
                  for shards, result in shard_sweep.items()}
        assert len(set(totals.values())) == 1


@pytest.mark.benchmark(group="E9-sharded")
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_benchmark_sharded_cluster(benchmark, shards):
    """Wall-clock cost of one YCSB run against one shard count."""
    result = benchmark.pedantic(run_sharded, args=(shards,), rounds=2, iterations=1)
    benchmark.extra_info.update({
        "shards": shards,
        "throughput_ops_per_sec": result.throughput_ops_per_sec,
    })
    assert result.operations == 400
