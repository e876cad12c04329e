"""E1 -- the paper's demo (Fig. 3d): wiredTiger vs mmapv1 across thread counts.

Regenerates the throughput / latency series of the comparative storage-engine
evaluation and benchmarks the cost of one complete benchmark job per engine.

Expected shape (the paper's Fig. 3d): wiredTiger throughput grows
close to linearly with client threads, mmapv1 plateaus because of its
collection-level write lock; mmapv1 is competitive at a single thread; the
wiredTiger on-disk footprint is considerably smaller due to block compression.
"""

from __future__ import annotations

import pytest

from repro.analysis.aggregate import ResultTable, pivot
from repro.analysis.compare import compare_groups, speedup_table
from repro.demo import prepare_demo, run_demo
from repro.docstore.server import DocumentServer
from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
from repro.workloads.ycsb import OperationMix

THREAD_SWEEP = [1, 2, 4, 8, 16]
DEMO_PARAMETERS = {
    "storage_engine": ["wiredtiger", "mmapv1"],
    "threads": THREAD_SWEEP,
    "record_count": 200,
    "operation_count": 400,
    "query_mix": "50:50",
    "distribution": "zipfian",
}


@pytest.fixture(scope="module")
def demo_results(report_writer):
    """Run the full Chronos-driven demo once and persist the regenerated table."""
    setup = run_demo(prepare_demo(parameters=DEMO_PARAMETERS))
    results = setup.results
    table = ResultTable.from_results(results, [
        "parameters.storage_engine", "parameters.threads",
        "throughput_ops_per_sec", "latency_p95_ms", "storage_bytes",
    ]).sort_by("parameters.threads")
    comparison = compare_groups(results, "parameters.storage_engine",
                                "throughput_ops_per_sec")
    speedups = speedup_table(results, "parameters.threads", "throughput_ops_per_sec",
                             "parameters.storage_engine", baseline_group="mmapv1")
    lines = [table.to_markdown(), "",
             f"Winner: **{comparison['winner']}** "
             f"({comparison['factor']:.2f}x over {comparison['runner_up']})", "",
             "| threads | wiredtiger / mmapv1 |", "| --- | --- |"]
    lines += [f"| {row['parameters.threads']} | {row['wiredtiger_speedup']:.2f}x |"
              for row in speedups]
    report_writer("E1_storage_engines", "wiredTiger vs mmapv1 (Fig. 3d)", lines)
    return results


def _single_job(engine: str, threads: int):
    spec = WorkloadSpec(record_count=200, operation_count=400, threads=threads,
                        mix=OperationMix(read=0.5, update=0.5), seed=7)
    return DocumentBenchmark(DocumentServer(engine), spec).execute_full()


class TestComparativeShape:
    """Assertions that the regenerated series has the demo's shape."""

    def test_wiredtiger_scales_with_threads(self, demo_results):
        series = dict(pivot(demo_results, "parameters.threads",
                            "throughput_ops_per_sec",
                            "parameters.storage_engine")["wiredtiger"])
        assert series[16] > series[1] * 4

    def test_mmapv1_plateaus(self, demo_results):
        series = dict(pivot(demo_results, "parameters.threads",
                            "throughput_ops_per_sec",
                            "parameters.storage_engine")["mmapv1"])
        assert series[16] < series[1] * 3

    def test_wiredtiger_wins_at_high_concurrency(self, demo_results):
        series = pivot(demo_results, "parameters.threads", "throughput_ops_per_sec",
                       "parameters.storage_engine")
        assert dict(series["wiredtiger"])[16] > dict(series["mmapv1"])[16] * 2

    def test_engines_comparable_at_one_thread(self, demo_results):
        series = pivot(demo_results, "parameters.threads", "throughput_ops_per_sec",
                       "parameters.storage_engine")
        ratio = dict(series["wiredtiger"])[1] / dict(series["mmapv1"])[1]
        assert 0.5 < ratio < 2.5

    def test_compressed_footprint_smaller(self, demo_results):
        wired = [r["storage_bytes"] for r in demo_results
                 if r["parameters"]["storage_engine"] == "wiredtiger"]
        mmap = [r["storage_bytes"] for r in demo_results
                if r["parameters"]["storage_engine"] == "mmapv1"]
        assert max(wired) < min(mmap)


@pytest.mark.benchmark(group="E1-single-job")
@pytest.mark.parametrize("engine", ["wiredtiger", "mmapv1"])
def test_benchmark_single_job(benchmark, engine):
    """Wall-clock cost of executing one demo job (load + warm-up + run)."""
    result = benchmark.pedantic(_single_job, args=(engine, 8), rounds=3, iterations=1)
    benchmark.extra_info["throughput_ops_per_sec"] = result.throughput_ops_per_sec
    benchmark.extra_info["engine"] = engine
    assert result.operations == 400


@pytest.mark.benchmark(group="E1-full-evaluation")
def test_benchmark_full_demo_evaluation(benchmark):
    """Wall-clock cost of the complete Chronos-orchestrated demo evaluation."""
    small = dict(DEMO_PARAMETERS, threads=[1, 4], record_count=100, operation_count=200)

    def run():
        setup = run_demo(prepare_demo(parameters=small))
        return setup.report.jobs_finished

    finished = benchmark.pedantic(run, rounds=3, iterations=1)
    assert finished == 4
