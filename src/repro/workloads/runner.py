"""The document-store benchmark client.

This is the reproduction's equivalent of the MongoDB evaluation client of the
original demo: it loads a collection with synthetic records, warms the
engine's caches, runs a timed operation mix, and reports throughput and
latency percentiles.

What it runs on is not the workload's business: a :class:`WorkloadSpec`
carries no deployment field, and :meth:`DocumentBenchmark.for_topology` takes
the shape as a :class:`~repro.docstore.topology.TopologySpec` beside it.

Timing model: every collection operation returns the simulated service time
charged by the storage engine.  Single-threaded latency is that service
time; with ``threads`` concurrent clients the aggregate throughput is scaled
by the engine's :class:`~repro.docstore.cost.ConcurrencyProfile` (an
Amdahl-style model of its lock granularity), and per-operation latency gains
a queueing component for the serialised fraction.  This keeps runs fast and
deterministic while preserving the comparative shape between wiredTiger and
mmapv1 that the demo shows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.docstore.client import CollectionHandle, DocumentClient
from repro.docstore.observability import MetricsSampler
from repro.docstore.topology import (
    DocumentDeployment,
    TopologySpec,
    build_topology,
    topology_of,
)
from repro.errors import ValidationError
from repro.util.stats import mean, percentile
from repro.workloads.distributions import KeyDistribution, make_distribution
from repro.workloads.generator import RecordGenerator
from repro.workloads.ycsb import OperationMix


@dataclass
class WorkloadSpec:
    """Parameters of one benchmark run (one Chronos job in the demo).

    A workload says nothing about the deployment it runs on: the shape is a
    :class:`~repro.docstore.topology.TopologySpec`, given to
    :meth:`DocumentBenchmark.for_topology` beside the workload.

    Attributes:
        record_count: documents loaded before the measured phase.
        operation_count: operations in the measured phase.
        threads: number of concurrent client threads to model.
        mix: operation mix (reads/updates/inserts/scans/RMW).
        distribution: key distribution name (uniform/zipfian/latest/hotspot).
        field_count / field_length: record shape.
        warmup_operations: read operations issued before measuring.
        scan_length: documents returned per scan operation (the limit pushed
            into the range query a scan issues).
        seed: RNG seed making the run reproducible.
        profile_level: operation profiling level applied to the deployment
            before the run (0 off, 1 slow ops only, 2 all ops).
        slow_ms: slow-op threshold in simulated milliseconds (only
            meaningful with ``profile_level`` > 0).
    """

    record_count: int = 1000
    operation_count: int = 2000
    threads: int = 1
    mix: OperationMix = field(default_factory=lambda: OperationMix(read=0.95, update=0.05))
    distribution: str = "zipfian"
    field_count: int = 10
    field_length: int = 100
    warmup_operations: int = 100
    scan_length: int = 10
    seed: int = 42
    profile_level: int = 0
    slow_ms: float = 100.0

    def __post_init__(self) -> None:
        if self.record_count <= 0 or self.operation_count <= 0:
            raise ValidationError("record_count and operation_count must be positive")
        if self.threads <= 0:
            raise ValidationError("threads must be positive")
        if self.profile_level not in (0, 1, 2):
            raise ValidationError("profile_level must be 0, 1 or 2")
        if self.slow_ms < 0:
            raise ValidationError("slow_ms must be non-negative")


@dataclass
class BenchmarkResult:
    """Measurements of one benchmark run."""

    engine: str
    topology: str
    threads: int
    shards: int
    replicas: int
    operations: int
    simulated_seconds: float
    throughput_ops_per_sec: float
    latency_avg_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    operation_counts: dict[str, int] = field(default_factory=dict)
    engine_statistics: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """JSON-compatible form (what the MongoDB agent uploads to Chronos)."""
        return {
            "engine": self.engine,
            "topology": self.topology,
            "threads": self.threads,
            "shards": self.shards,
            "replicas": self.replicas,
            "operations": self.operations,
            "simulated_seconds": self.simulated_seconds,
            "throughput_ops_per_sec": self.throughput_ops_per_sec,
            "latency_avg_ms": self.latency_avg_ms,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "operation_counts": dict(self.operation_counts),
            "engine_statistics": dict(self.engine_statistics),
        }


class DocumentBenchmark:
    """Loads, warms up and measures one document deployment with one workload.

    The deployment may be a single :class:`DocumentServer`, a
    :class:`~repro.docstore.replication.replica_set.ReplicaSet` or a
    :class:`~repro.docstore.sharding.cluster.ShardedCluster`; all expose the
    surface :class:`~repro.docstore.client.DocumentClient` needs.

    ``operation_hook`` (when set) fires with the operation index before each
    measured operation -- failure-injection drivers use it to kill or
    partition replica-set members at a precise point of the run.
    """

    def __init__(self, server: DocumentDeployment, spec: WorkloadSpec,
                 database: str = "benchmark", collection: str = "usertable",
                 topology: TopologySpec | None = None):
        self.server = server
        self.spec = spec
        # Topology reporting always comes from the topology layer: either the
        # spec the deployment was built from, or one derived from the object
        # when a caller hands in a hand-built server.
        self.topology = topology or topology_of(server)
        self.operation_hook: Any = None
        self.client = DocumentClient(server)
        self.database = database
        self.collection = collection
        self.handle: CollectionHandle = self.client.collection(database, collection)
        self.generator = RecordGenerator(spec.field_count, spec.field_length)
        self._rng = random.Random(spec.seed)
        self._distribution: KeyDistribution = make_distribution(
            spec.distribution, spec.record_count
        )
        self._inserted = spec.record_count
        self.sampler: MetricsSampler | None = None
        if spec.profile_level > 0:
            self.server.set_profiling(spec.profile_level, slow_ms=spec.slow_ms)

    @classmethod
    def for_topology(cls, topology: TopologySpec, spec: WorkloadSpec,
                     database: str = "benchmark", collection: str = "usertable",
                     **engine_options) -> "DocumentBenchmark":
        """Build the benchmark and the deployment ``topology`` describes.

        The one constructor from a shape: :func:`build_topology` decides
        which deployment class it maps onto, and the result reports it.
        """
        server = build_topology(topology, **engine_options)
        return cls(server, spec, database=database, collection=collection,
                   topology=topology)

    # -- observability ------------------------------------------------------------------

    def attach_sampler(self, interval_seconds: float = 0.25,
                       max_samples: int = 600) -> MetricsSampler:
        """Attach an FTDC-style metrics sampler pumped by the run loop.

        The sampler snapshots the deployment's full metrics registry at most
        every ``interval_seconds`` of wall clock, into a bounded in-memory
        series callers can dump as JSON (:meth:`MetricsSampler.as_dict`).
        An initial baseline sample is taken immediately.
        """
        self.sampler = MetricsSampler(self.server.metrics_snapshot,
                                      interval_seconds=interval_seconds,
                                      max_samples=max_samples)
        self.sampler.sample()
        return self.sampler

    def slow_ops(self, limit: int | None = None) -> list[dict[str, Any]]:
        """The deployment's merged slow-op log (empty while profiling is off)."""
        return self.server.get_slow_ops(limit)

    # -- phases ------------------------------------------------------------------------

    #: Documents per ``insert_many`` batch during the load phase -- large
    #: enough to amortise per-batch bookkeeping, small enough to bound memory.
    LOAD_BATCH_SIZE = 1000

    def load(self) -> float:
        """Load phase: insert ``record_count`` documents in batches.

        A batch stays a batch on every shape: a server stores it in one
        lock round, a cluster's router sends each owning shard its share
        (cut where a maintenance round is due), a replica set logs it as one
        oplog batch its secondaries apply as one run.  The documents, their
        placement and the engines' simulated cost are those of inserting one
        by one; a replica set acknowledges a batch once.  Returns simulated
        seconds.
        """
        total = 0.0
        for start in range(0, self.spec.record_count, self.LOAD_BATCH_SIZE):
            stop = min(start + self.LOAD_BATCH_SIZE, self.spec.record_count)
            batch = [self.generator.record(index, self._rng)
                     for index in range(start, stop)]
            total += self.handle.insert_many(batch).simulated_seconds
        self.handle.create_index("category")
        if self.spec.mix.analytics_fraction > 0:
            # Top-k counter ranges ride an ordered index walk instead of a
            # full scan plus in-memory sort.
            self.handle.create_index("counter")
        if self.topology.is_sharded:
            # Settle chunk splits and balancing before the measured phase;
            # the migrations this round performs are charged to the load.
            summary = self.server.maintain(self.database, self.collection)
            total += summary.get("simulated_seconds", 0.0)
        return total

    def warm_up(self) -> float:
        """Warm-up phase: touch hot keys so caches are populated."""
        total = 0.0
        for _ in range(self.spec.warmup_operations):
            key = self.generator.key(self._distribution.next_key(self._rng))
            self.handle.find_one({"_id": key})
        for value in self.client.latencies("read"):
            total += value
        self.client.reset_latencies()
        return total

    def run(self) -> BenchmarkResult:
        """Measured phase: execute the operation mix and compute the metrics."""
        latencies: list[float] = []
        counts = {"read": 0, "update": 0, "insert": 0, "scan": 0,
                  "read_modify_write": 0, "grouped_count": 0, "top_k": 0}
        sampler = self.sampler
        for index in range(self.spec.operation_count):
            if self.operation_hook is not None:
                self.operation_hook(index)
            operation = self._choose_operation()
            latencies.append(self._execute(operation))
            counts[operation] += 1
            if sampler is not None:
                sampler.maybe_sample()
        if sampler is not None:
            sampler.sample()
        return self._summarise(latencies, counts)

    def execute_full(self) -> BenchmarkResult:
        """Convenience: load, warm up and run."""
        self.load()
        self.warm_up()
        return self.run()

    # -- internals ----------------------------------------------------------------------

    def _choose_operation(self) -> str:
        roll = self._rng.random()
        mix = self.spec.mix
        if roll < mix.read:
            return "read"
        roll -= mix.read
        if roll < mix.update:
            return "update"
        roll -= mix.update
        if roll < mix.insert:
            return "insert"
        roll -= mix.insert
        if roll < mix.scan:
            return "scan"
        roll -= mix.scan
        if roll < mix.grouped_count:
            return "grouped_count"
        roll -= mix.grouped_count
        if roll < mix.top_k:
            return "top_k"
        return "read_modify_write"

    def _execute(self, operation: str) -> float:
        key = self.generator.key(self._distribution.next_key(self._rng))
        if operation == "read":
            return self.handle.find_with_cost({"_id": key}).simulated_seconds
        if operation == "update":
            update = self.generator.update_fragment(self._rng)
            return self.handle.update_one({"_id": key}, update).simulated_seconds
        if operation == "insert":
            record = self.generator.record(self._inserted, self._rng)
            self._inserted += 1
            self._distribution.grow(self._inserted)
            return self.handle.insert_one(record).simulated_seconds
        if operation == "scan":
            # A true YCSB range scan: one ordered range query from a random
            # start key, limited to scan_length documents.  The planner turns
            # it into an INDEX_RANGE scan of the _id index; on a range-sharded
            # cluster the router contacts only the shards owning overlapping
            # chunks.
            start_key = self.generator.key(self._distribution.next_key(self._rng))
            result = self.handle.find_with_cost(
                {"_id": {"$gte": start_key}}, limit=self.spec.scan_length)
            return result.simulated_seconds
        if operation == "grouped_count":
            # Dashboard-style rollup: per-category count and counter total of
            # the active records.  On a cluster the router ships only one
            # partial accumulator row per category per shard.
            result = self.handle.aggregate_with_cost([
                {"$match": {"active": True}},
                {"$group": {"_id": "$category",
                            "count": {"$count": {}},
                            "total": {"$sum": "$counter"}}},
            ])
            return result.simulated_seconds
        if operation == "top_k":
            # Top-k from a random start: the counter index satisfies the sort
            # and the limit rides down into the walk (and onto every shard).
            start = self._distribution.next_key(self._rng)
            result = self.handle.aggregate_with_cost([
                {"$match": {"counter": {"$gte": start}}},
                {"$sort": {"counter": 1}},
                {"$limit": self.spec.scan_length},
            ])
            return result.simulated_seconds
        # read-modify-write
        read_cost = self.handle.find_with_cost({"_id": key}).simulated_seconds
        update = self.generator.update_fragment(self._rng)
        write_cost = self.handle.update_one({"_id": key}, update).simulated_seconds
        return read_cost + write_cost

    def _summarise(self, latencies: list[float], counts: dict[str, int]) -> BenchmarkResult:
        engine = self.handle.engine
        threads = self.spec.threads
        write_ratio = self.spec.mix.write_fraction
        # The live engine's profile (an ablation may have swapped it), spread
        # over the deployment's shards or readable secondaries.
        topology = self.topology
        speedup = engine.concurrency.speedup(
            threads, write_ratio, lanes=self.server.concurrency_lanes())

        total_service = sum(latencies)
        wall_clock = total_service / speedup if speedup > 0 else total_service
        throughput = len(latencies) / wall_clock if wall_clock > 0 else 0.0

        # Per-operation latency grows with queueing on the serialised fraction.
        contention_factor = threads / speedup if speedup > 0 else 1.0
        adjusted = sorted(value * contention_factor for value in latencies)
        return BenchmarkResult(
            engine=engine.name,
            topology=topology.kind,
            threads=threads,
            shards=topology.shards,
            replicas=topology.replicas,
            operations=len(latencies),
            simulated_seconds=wall_clock,
            throughput_ops_per_sec=throughput,
            latency_avg_ms=mean(adjusted) * 1000.0,
            latency_p50_ms=percentile(adjusted, 50) * 1000.0,
            latency_p95_ms=percentile(adjusted, 95) * 1000.0,
            latency_p99_ms=percentile(adjusted, 99) * 1000.0,
            operation_counts=counts,
            engine_statistics=self.handle.stats(),
        )
