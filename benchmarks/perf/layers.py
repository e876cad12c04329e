"""This repo's layers: where the span boundaries are and which per-layer
metrics the traced pass derives from them.

The boundaries are the public entry points of each module, named here and
nowhere else.  Two sets are installed, never together: the document-store
layers around the client phases, the Chronos layers around the evaluation
phases (there the whole document store is the system under evaluation --
one layer, ``sue``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any

from perf.inputs import ANALYTICS_CLASSES, OLTP_CLASSES, SCAN
from perf.trace import Overhead, Target, Tracer

_ENGINE_CALLS = ("read", "insert", "update", "delete", "insert_batch", "scan",
                 "scan_uncharged", "peek")

DOCSTORE_LAYERS: dict[str, list[Target]] = {
    "client": [("repro.docstore.client", "CollectionHandle", None)],
    "router": [("repro.docstore.sharding.cluster", "RoutedCollection", None),
               ("repro.docstore.sharding.router", "QueryRouter", None)],
    "executor": [("repro.docstore.sharding.executor", "ShardExecutor",
                  ("scatter", "run_serial"))],
    "replication": [
        ("repro.docstore.replication.replica_set", "ReplicatedCollection", None),
        ("repro.docstore.replication.replica_set", "ReplicaSet", ("primary_write",)),
        ("repro.docstore.replication.member", "ReplicaSetMember", ("apply_entries",)),
        ("repro.docstore.replication.oplog", "Oplog", ("append",))],
    "collection": [("repro.docstore.collection", "Collection", None)],
    "planner": [("repro.docstore.planner", "QueryPlanner", ("plan",))],
    "aggregation": [("repro.docstore.aggregation", None,
                     ("execute_pipeline", "execute_partial",
                      "combine_partial_groups", "merge_shard_streams"))],
    "engine": [("repro.docstore.engine_base", "StorageEngine", _ENGINE_CALLS),
               ("repro.docstore.wiredtiger", "WiredTigerEngine", _ENGINE_CALLS),
               ("repro.docstore.mmapv1", "MmapV1Engine", _ENGINE_CALLS)],
    "documents": [("repro.docstore.documents", None,
                   ("freeze_document", "clone_document"))],
    "observability": [("repro.docstore.observability", "Profiler",
                       ("start", "finish"))],
}

_SERVICES = [("events", "EventService"), ("users", "UserService"),
             ("projects", "ProjectService"), ("systems", "SystemService"),
             ("deployments", "DeploymentService"),
             ("experiments", "ExperimentService"), ("jobs", "JobService"),
             ("evaluations", "EvaluationService"), ("logs", "LogService"),
             ("results", "ResultService"), ("scheduler", "Scheduler"),
             ("failure", "FailureHandler")]

CHRONOS_LAYERS: dict[str, list[Target]] = {
    "agent": [("repro.agent.runner", "AgentRunner", ("run_one",))],
    "rest": [("repro.rest.application", "RestApplication", ("request",))],
    "core": [("repro.core.control", "ChronosControl",
              ("claim_next_job", "report_progress", "report_success",
               "report_failure"))]
            + [(f"repro.core.{module}", name, None) for module, name in _SERVICES],
    "storage": [("repro.storage.database", "Database",
                 ("insert", "get", "get_or_none", "update", "delete", "select",
                  "count"))],
    "sue": [("repro.agent.base", "ChronosAgent", None),
            ("repro.agents.mongo_agent", "MongoAgent",
             ("set_up", "warm_up", "execute", "analyze", "clean_up",
              "extra_result_files")),
            ("repro.agents.testing", "SleepAgent", ("set_up", "execute"))],
    "workloads": [("repro.workloads.generator", "RecordGenerator",
                   ("record", "update_fragment", "growing_update"))],
    "analysis": [("repro.analysis.report", None, ("evaluation_report",)),
                 ("repro.analysis.report", "EvaluationReport", ("write",))],
}

#: The callable ``ShardExecutor`` hands to its workers inherits the span.
CARRIERS = {"ShardExecutor.scatter": 2, "ShardExecutor.run_serial": 2}
SIZED = ("Database.select",)

_OLTP_LAYERS = ("client", "router", "executor", "replication", "collection",
                "planner", "engine", "documents")
_ANALYTICS_LAYERS = ("router", "executor", "collection", "aggregation",
                     "planner", "engine")
_JOB_LAYERS = ("agent", "rest", "core", "storage", "sue")
CHRONOS_PHASES = ("sweep", "mongo")

_COUNTS: list[tuple[str, str, str]] = [
    ("client.read_p99_us", "us", "lower"),
    ("client.update_p99_us", "us", "lower"),
    ("client.scan_p99_us", "us", "lower"),
    ("router.targeted_ratio", "ratio", "higher"),
    ("router.shards_per_scan", "count", "lower"),
    ("executor.handoffs_per_scatter", "count", "lower"),
    ("executor.straggler_gap_us", "us", "lower"),
    ("replication.oplog_entries_per_write", "count", "lower"),
    ("replication.secondary_applies_per_write", "count", "lower"),
    ("planner.cache_hit_ratio", "ratio", "higher"),
    ("engine.cache_hit_ratio", "ratio", "higher"),
    ("engine.cache_evictions", "count", "lower"),
    ("engine.storage_bytes_per_user_byte", "ratio", "lower"),
    ("documents.clones_per_read", "count", "lower"),
    ("documents.freezes_per_write", "count", "lower"),
    ("cost.simulated_s", "s", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("rest.requests_per_job", "count", "lower"),
    ("storage.selects_per_job", "count", "lower"),
    ("storage.rows_returned_per_select", "count", "lower"),
    ("core.claim_ms", "ms", "lower"),
    ("core.progress_ms", "ms", "lower"),
    ("core.result_upload_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    # failed / attempted of the traced pass.  Not a layer's: it is here because
    # an end-to-end metric may never be 0 (README, "The driver's contract").
    ("error_ratio", "ratio", "lower"),
]


def per_layer_declarations() -> list[dict[str, str]]:
    """The ``per_layer`` list of ``BENCHMARK.json``, in reporting order."""
    names = [(f"{layer}.{op}.self_us", "us", "lower")
             for layer in _OLTP_LAYERS for op in OLTP_CLASSES]
    names += [(f"{layer}.{op}.self_us", "us", "lower")
              for layer in _ANALYTICS_LAYERS for op in ANALYTICS_CLASSES]
    names.append(("observability.profiled_read.self_us", "us", "lower"))
    names += [(f"{layer}.{phase}.self_ms_per_job", "ms", "lower")
              for layer in _JOB_LAYERS for phase in CHRONOS_PHASES]
    names.append(("analysis.mongo.self_ms", "ms", "lower"))
    names += _COUNTS
    return [{"name": name, "unit": unit, "better": better}
            for name, unit, better in names]


@dataclass
class Window:
    """What a replay of the operation stream observed from outside."""

    walls: list[list[float]] = field(default_factory=lambda: [[], [], [], []])
    simulated: float = 0.0
    routed: int = 0  # operations whose result names the shards it touched
    targeted: int = 0  # ... exactly one shard
    scan_shards: list[int] = field(default_factory=list)
    straggler_gaps: list[float] = field(default_factory=list)

    def merge(self, other: "Window") -> None:
        for mine, theirs in zip(self.walls, other.walls):
            mine.extend(theirs)
        self.simulated += other.simulated
        self.routed += other.routed
        self.targeted += other.targeted
        self.scan_shards.extend(other.scan_shards)
        self.straggler_gaps.extend(other.straggler_gaps)

    def note(self, kind: int, wall: float, result: Any) -> None:
        self.walls[kind].append(wall)
        self.simulated += result.simulated_seconds
        costs = result.shard_costs
        if costs:
            self.routed += 1
            self.targeted += len(costs) == 1
            if kind == SCAN:
                self.scan_shards.append(len(costs))
                shard_walls = list(result.shard_wall_seconds.values())
                if shard_walls:
                    self.straggler_gaps.append(
                        max(shard_walls) - statistics.median(shard_walls))


def percentile(values: list[float], rank: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(rank * len(ordered)))]


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def engine_counters(stats: dict[str, Any]) -> dict[str, int]:
    """Cache and plan-cache counters of a collection's ``stats()``, summed
    over the shards of a cluster."""
    totals = {"hits": 0, "misses": 0, "evictions": 0, "plan_hits": 0,
              "plan_misses": 0, "storage_bytes": stats.get("storage_bytes", 0)}
    for part in stats.get("per_shard", [stats]):
        cache = part.get("cache", {})
        for key in ("hits", "misses", "evictions"):
            totals[key] += cache.get(key, 0)
        plans = part.get("plan_cache", {})
        totals["plan_hits"] += plans.get("hits", 0)
        totals["plan_misses"] += plans.get("misses", 0)
    return totals


def client_metrics(tracer: Tracer, overhead: Overhead, untraced: Window,
                   traced: Window, calls: dict[str, int],
                   before: dict[str, int], after: dict[str, int],
                   fanout: tuple[int, int], user_bytes: int) -> dict[str, float]:
    """Per-layer metrics of the client phases (all but the ``trace.*`` ones).

    ``untraced`` and ``traced`` are the two replays of the operation stream;
    ``calls`` counts the traced client calls per operation class; ``before``
    and ``after`` are :func:`engine_counters` around the traced window;
    ``fanout`` is the change of the executor's (fan-outs, tasks dispatched).
    """
    by_layer, by_name = tracer.totals(overhead)
    metrics: dict[str, float] = {}
    for layers, classes in ((_OLTP_LAYERS, OLTP_CLASSES),
                            (_ANALYTICS_LAYERS, ANALYTICS_CLASSES),
                            (("observability",), ("profiled_read",))):
        for layer in layers:
            for op in classes:
                metrics[f"{layer}.{op}.self_us"] = _ratio(
                    by_layer.get((op, layer), 0.0) * 1e6, calls.get(op, 0))

    reads, updates, inserts, scans = untraced.walls
    metrics["client.read_p99_us"] = percentile(reads, 0.99) * 1e6
    metrics["client.update_p99_us"] = percentile(updates, 0.99) * 1e6
    metrics["client.scan_p99_us"] = percentile(scans, 0.99) * 1e6
    metrics["router.targeted_ratio"] = _ratio(traced.targeted, traced.routed)
    metrics["router.shards_per_scan"] = _mean(traced.scan_shards)
    fanouts, tasks = fanout
    metrics["executor.handoffs_per_scatter"] = _ratio(tasks - fanouts, fanouts)
    metrics["executor.straggler_gap_us"] = _mean(untraced.straggler_gaps) * 1e6

    def spans(name: str, *classes: str) -> int:
        return sum(len(by_name.get((op, name), ())) for op in classes)

    writes = calls["update"] + calls["insert"]
    metrics["replication.oplog_entries_per_write"] = _ratio(
        spans("Oplog.append", "update", "insert"), writes)
    metrics["replication.secondary_applies_per_write"] = _ratio(
        spans("ReplicaSetMember.apply_entries", "update", "insert"), writes)
    metrics["planner.cache_hit_ratio"] = _ratio(
        after["plan_hits"] - before["plan_hits"],
        after["plan_hits"] - before["plan_hits"]
        + after["plan_misses"] - before["plan_misses"])
    hits = after["hits"] - before["hits"]
    metrics["engine.cache_hit_ratio"] = _ratio(
        hits, hits + after["misses"] - before["misses"])
    metrics["engine.cache_evictions"] = after["evictions"] - before["evictions"]
    metrics["engine.storage_bytes_per_user_byte"] = _ratio(
        after["storage_bytes"], user_bytes)
    metrics["documents.clones_per_read"] = _ratio(
        spans("clone_document", "read"), calls["read"])
    metrics["documents.freezes_per_write"] = _ratio(
        spans("freeze_document", "update", "insert"), writes)
    metrics["cost.simulated_s"] = traced.simulated
    return metrics


def chronos_metrics(tracer: Tracer, overhead: Overhead,
                    jobs: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of the evaluation phases (``jobs`` per phase)."""
    by_layer, by_name = tracer.totals(overhead)
    metrics: dict[str, float] = {}
    for layer in _JOB_LAYERS:
        for phase in CHRONOS_PHASES:
            metrics[f"{layer}.{phase}.self_ms_per_job"] = _ratio(
                by_layer.get((phase, layer), 0.0) * 1e3, jobs[phase])
    metrics["analysis.mongo.self_ms"] = by_layer.get(("mongo", "analysis"), 0.0) * 1e3
    metrics["workloads.generate_s"] = by_layer.get(("mongo", "workloads"), 0.0)

    sweep_jobs = jobs["sweep"]
    metrics["rest.requests_per_job"] = _ratio(
        len(by_name.get(("sweep", "RestApplication.request"), ())), sweep_jobs)
    rows = [size for op, size in tracer.sizes if tracer.labels[op] == "sweep"]
    metrics["storage.selects_per_job"] = _ratio(len(rows), sweep_jobs)
    metrics["storage.rows_returned_per_select"] = _mean(rows)
    for metric, name in (("core.claim_ms", "ChronosControl.claim_next_job"),
                         ("core.progress_ms", "ChronosControl.report_progress"),
                         ("core.result_upload_ms", "ChronosControl.report_success")):
        metrics[metric] = _mean(by_name.get(("sweep", name), [])) * 1e3
    return metrics
