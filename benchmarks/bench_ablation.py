"""Ablation benches: which engine mechanism produces which part of the gap?

The cost model names the mechanisms that differentiate the two storage engines
(lock granularity, compression, padding, cache size).  Each ablation switches
one mechanism off (or hands it to the other engine) and re-measures the
comparison, confirming the simulated gap really is produced by the modelled
mechanisms rather than by unrelated constants.
"""

from __future__ import annotations

import pytest

from repro.docstore.cost import ConcurrencyProfile
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.server import DocumentServer
from repro.docstore.wiredtiger import WiredTigerEngine
from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
from repro.workloads.ycsb import OperationMix

WRITE_HEAVY = OperationMix(read=0.5, update=0.5)


def run_spec(server: DocumentServer, threads: int = 8) -> float:
    spec = WorkloadSpec(record_count=150, operation_count=300, threads=threads,
                        mix=WRITE_HEAVY, seed=11)
    return DocumentBenchmark(server, spec).execute_full().throughput_ops_per_sec


@pytest.fixture(scope="module")
def ablation_table(report_writer):
    rows: list[tuple[str, float]] = []

    rows.append(("wiredtiger (baseline)", run_spec(DocumentServer("wiredtiger"))))
    rows.append(("mmapv1 (baseline)", run_spec(DocumentServer("mmapv1"))))

    # Ablation 1: wiredTiger without compression (ratio 1.0) -- more I/O per write.
    rows.append(("wiredtiger, no compression",
                 run_spec(DocumentServer("wiredtiger", compression_ratio=1.0))))

    # Ablation 2: mmapv1 with generous padding -- fewer document moves.
    rows.append(("mmapv1, padding 3.0",
                 run_spec(DocumentServer("mmapv1", padding_factor=3.0))))

    # Ablation 3: give mmapv1 document-level concurrency (the lock is the
    # mechanism; with it removed the engines should converge at 8 threads).
    class DocLockMmap(MmapV1Engine):
        concurrency = WiredTigerEngine.concurrency

    server = DocumentServer("mmapv1")
    server._new_engine = lambda: DocLockMmap()  # swap the engine factory
    rows.append(("mmapv1, document-level locking (hypothetical)", run_spec(server)))

    # Ablation 4: give wiredTiger a collection-level lock profile.
    class CollectionLockWired(WiredTigerEngine):
        concurrency = ConcurrencyProfile(serial_write_fraction=0.95,
                                         serial_read_fraction=0.05,
                                         parallel_efficiency=0.85)

    server = DocumentServer("wiredtiger")
    server._new_engine = lambda: CollectionLockWired()
    rows.append(("wiredtiger, collection-level locking (hypothetical)", run_spec(server)))

    lines = ["| configuration | throughput at 8 threads (ops/s) |", "| --- | --- |"]
    lines += [f"| {name} | {value:,.0f} |" for name, value in rows]
    report_writer("E9_ablation", "Mechanism ablations (50:50 mix, 8 threads)", lines)
    return dict(rows)


class TestAblationShape:
    def test_lock_granularity_is_the_dominant_mechanism(self, ablation_table):
        """Swapping lock granularity moves each engine most of the way to the other."""
        baseline_gap = (ablation_table["wiredtiger (baseline)"]
                        - ablation_table["mmapv1 (baseline)"])
        doc_lock_mmap = ablation_table["mmapv1, document-level locking (hypothetical)"]
        assert doc_lock_mmap > ablation_table["mmapv1 (baseline)"] * 2
        collection_wired = ablation_table["wiredtiger, collection-level locking (hypothetical)"]
        assert collection_wired < ablation_table["wiredtiger (baseline)"] * 0.5
        assert baseline_gap > 0

    def test_compression_contributes_but_less_than_locking(self, ablation_table):
        uncompressed = ablation_table["wiredtiger, no compression"]
        baseline = ablation_table["wiredtiger (baseline)"]
        assert uncompressed < baseline
        locking_effect = baseline - ablation_table[
            "wiredtiger, collection-level locking (hypothetical)"]
        compression_effect = baseline - uncompressed
        assert locking_effect > compression_effect

    def test_padding_helps_mmapv1_updates(self, ablation_table):
        assert (ablation_table["mmapv1, padding 3.0"]
                >= ablation_table["mmapv1 (baseline)"] * 0.95)


@pytest.mark.benchmark(group="E9-ablation")
@pytest.mark.parametrize("configuration", ["wiredtiger-baseline", "wiredtiger-no-compression",
                                           "mmapv1-baseline", "mmapv1-padded"])
def test_benchmark_ablation_configuration(benchmark, configuration):
    factories = {
        "wiredtiger-baseline": lambda: DocumentServer("wiredtiger"),
        "wiredtiger-no-compression": lambda: DocumentServer("wiredtiger",
                                                            compression_ratio=1.0),
        "mmapv1-baseline": lambda: DocumentServer("mmapv1"),
        "mmapv1-padded": lambda: DocumentServer("mmapv1", padding_factor=3.0),
    }
    throughput = benchmark.pedantic(lambda: run_spec(factories[configuration]()),
                                    rounds=2, iterations=1)
    benchmark.extra_info["throughput_ops_per_sec"] = throughput
    assert throughput > 0
