"""E17 -- parallel scatter-gather: router fan-out wall-clock vs shard count.

The cost model always priced multi-shard fan-out as parallel
(``combine_shard_costs(parallel=True)`` takes the max over shards), but
until the per-shard :class:`~repro.docstore.sharding.executor.ShardExecutor`
existed every fan-out ran a serial shard loop, so under
``real_service_scale`` a 4-shard scatter paid 4x the wall-clock it
claimed.  E17 measures the gap closing: the same workloads run against a
cluster whose executor pool is open and against the serial baseline, a
cluster whose pool is closed (``cluster.close()``: every fan-out runs
inline), and the speedup at S shards should approach S -- fan-out
wall-clock equals the slowest shard, not the sum.

Workloads per shard count (total documents fixed, so per-shard work
shrinks as shards grow and the *serial* wall stays roughly flat):

* ``scatter_reads``     -- non-key-predicate finds (full scatter scan),
* ``group_pushdown``    -- ``$group`` aggregate (partial-group scatter),
* ``broadcast_writes``  -- non-key ``update_many`` (broadcast write).

Every run also differentially checks sharded == standalone document-for-
document in both modes, so the parallelism can never buy wrong answers.
Every cluster is closed once measured, and the run fails when a fan-out
worker it started outlives it.

CI smoke check (fails when 4-shard scatter reads do not reach 1.8x the
serial baseline)::

    python benchmarks/bench_parallel_router.py --smoke
"""

from __future__ import annotations

import random
import threading
from fnmatch import fnmatch
from typing import Any

import scaffold  # first: it puts src/ on sys.path
from repro.docstore.client import CollectionHandle, DocumentClient
from repro.docstore.cost import CostParameters
from repro.docstore.server import DocumentServer
from repro.docstore.sharding import ShardedCluster

# Same scale as E14: simulated service times become real GIL-releasing
# sleeps, so fan-out dispatch really overlaps per-shard service time.
REAL_SERVICE_SCALE = 8.0

SIZES = {
    "smoke": {"records": 600, "operations": 12, "shard_ladder": [1, 4]},
    "full": {"records": 1_600, "operations": 30, "shard_ladder": [1, 2, 4, 8]},
}

# Floors at 4 shards vs the serial baseline: the full-run acceptance bar
# for scatter reads and $group pushdown, and the conservative CI floor
# (shared runners schedule threads noisily).
FULL_SPEEDUP_TARGET = 2.5
SMOKE_SPEEDUP_FLOOR = 1.8

WORKLOADS = {"scatter_reads": "scatter reads",
             "group_pushdown": "$group pushdown",
             "broadcast_writes": "broadcast writes"}

GROUP_PIPELINE = [
    {"$group": {"_id": "$category", "total": {"$sum": "$n"},
                "peak": {"$max": "$n"}}},
    {"$sort": {"_id": 1}},
]


def build_deployment(shards: int, parallel: bool, records: int,
                     seed: int = 42):
    """A loaded cluster -- its pool open when ``parallel``, closed (serial
    fan-out) otherwise -- or the standalone reference for shards == 0."""
    costs = CostParameters(real_service_scale=REAL_SERVICE_SCALE)
    if shards == 0:
        server: DocumentServer | ShardedCluster = DocumentServer(
            cost_parameters=costs)
    else:
        # split_threshold above the load keeps chunk migrations out of the
        # measured phases; the fan-out dispatch is the only variable.
        server = ShardedCluster(shards=shards, split_threshold=1_000_000,
                                cost_parameters=costs)
        if not parallel:
            server.close()
    handle = DocumentClient(server).collection("benchmark", "usertable")
    rng = random.Random(seed)
    scaffold.load(handle, [
        {"_id": f"user{index:06d}", "n": rng.randrange(10_000),
         "category": index % 16, "payload": "x" * 64}
        for index in range(records)])
    return server, handle


def run_workloads(handle: CollectionHandle, operations: int,
                  records: int) -> dict[str, dict[str, float]]:
    """The three fan-out phases against one deployment."""
    read_query = {"n": {"$gte": 0}}  # non-key predicate: full scatter

    def scatter_read(__: int) -> None:
        result = handle.find_with_cost(read_query)
        assert result.matched_count == records

    def group_pushdown(__: int) -> None:
        rows = handle.aggregate(GROUP_PIPELINE)
        assert len(rows) == min(16, records)

    def broadcast_write(__: int) -> None:
        result = handle.update_many({"category": {"$gte": 0}},
                                    {"$inc": {"touched": 1}})
        assert result.matched_count == records

    return {
        "scatter_reads": scaffold.timed(operations, scatter_read),
        "group_pushdown": scaffold.timed(operations, group_pushdown),
        "broadcast_writes": scaffold.timed(max(1, operations // 2),
                                           broadcast_write),
    }


def check_equivalence(records: int, shards: int) -> dict[str, Any]:
    """Sharded == standalone, document for document, in both fan-out modes.

    Runs the benchmark's own query shapes plus a write round and compares
    full result sets against a standalone server with identical data.
    """
    def fingerprint(handle: CollectionHandle) -> dict[str, Any]:
        handle.update_many({"category": {"$lt": 8}}, {"$inc": {"n": 1}})
        documents = sorted(handle.find_with_cost({"n": {"$gte": 0}}).documents,
                           key=lambda document: document["_id"])
        return {
            "documents": [(doc["_id"], doc["n"], doc["category"])
                          for doc in documents],
            "group_rows": handle.aggregate(GROUP_PIPELINE),
            "distinct": handle.distinct("category", {"n": {"$gte": 100}}),
            "count": handle.count_documents({"category": {"$gte": 4}}),
        }

    __, standalone = build_deployment(0, True, records)
    reference = fingerprint(standalone)
    for parallel in (True, False):
        cluster, handle = build_deployment(shards, parallel, records)
        try:
            candidate = fingerprint(handle)
        finally:
            cluster.close()
        assert candidate == reference, (
            "sharded != standalone with the pool "
            f"{'open' if parallel else 'closed'}")
    return {"checked_shards": shards, "modes": ["parallel", "serial"],
            "documents": records, "passed": True}


def join_fanout_workers(started_before: set[threading.Thread]) -> None:
    """Wait for every fan-out worker started since ``started_before``; one
    still alive means a cluster was left open."""
    for thread in set(threading.enumerate()) - started_before:
        if fnmatch(thread.name, "shard*-fanout-*"):
            thread.join(timeout=10)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} outlived the run")


def run(records: int, operations: int,
        shard_ladder: list[int]) -> dict[str, Any]:
    threads_before = set(threading.enumerate())
    workloads: dict[str, dict[str, Any]] = {name: {} for name in WORKLOADS}
    for shards in shard_ladder:
        per_mode: dict[str, dict[str, dict[str, float]]] = {}
        for mode, parallel in (("parallel", True), ("serial", False)):
            server, handle = build_deployment(shards, parallel, records)
            try:
                per_mode[mode] = run_workloads(handle, operations, records)
            finally:
                server.close()
        for name, slot in workloads.items():
            parallel_phase = per_mode["parallel"][name]
            serial_phase = per_mode["serial"][name]
            speedup = (serial_phase["wall_seconds"]
                       / parallel_phase["wall_seconds"]
                       if parallel_phase["wall_seconds"] else 0.0)
            slot[str(shards)] = {
                "parallel": parallel_phase,
                "serial": serial_phase,
                "speedup": round(speedup, 2),
            }
        summary = ", ".join(
            f"{name}={workloads[name][str(shards)]['speedup']:.2f}x"
            for name in workloads)
        print(f"[{shards} shard{'s' if shards > 1 else ' '}] "
              f"parallel-vs-serial: {summary}")
    equivalence = check_equivalence(records, max(shard_ladder))
    join_fanout_workers(threads_before)
    return {
        "benchmark": EXPERIMENT.id,
        "records": records,
        "operations": operations,
        "real_service_scale": REAL_SERVICE_SCALE,
        "shard_ladder": shard_ladder,
        "speedup_target": FULL_SPEEDUP_TARGET,
        "workloads": workloads,
        "equivalence": equivalence,
    }


def speedup_at(report: dict[str, Any], workload: str, shards: int) -> float:
    return report["workloads"][workload][str(shards)]["speedup"]


def intro(report: dict[str, Any]) -> str:
    return (
        f"Shard ladder {report['shard_ladder']}, {report['records']} "
        f"documents total, {report['operations']} fan-outs per phase, "
        f"real_service_scale={report['real_service_scale']}.  Each cell "
        "compares a cluster whose per-shard executor pool is open against "
        "one whose pool is closed (`cluster.close()`: every fan-out runs "
        "serially inline) on identical data; the speedup is the serial "
        "wall-clock over the parallel "
        "wall-clock.  Both modes passed the sharded == standalone "
        "differential check.")


def tables(report: dict[str, Any]):
    yield ("", ["shards", *WORKLOADS.values()],
           [[shards, *(f"{speedup_at(report, name, shards):.2f}x"
                       for name in WORKLOADS)]
            for shards in report["shard_ladder"]])


EXPERIMENT = scaffold.Experiment(
    id="E17_parallel_router",
    summary=__doc__.split("\n")[0],
    sizes=SIZES,
    run=run,
    gates=[
        scaffold.Gate("4-shard scatter reads vs the serial fan-out",
                      lambda report: speedup_at(report, "scatter_reads", 4),
                      smoke=SMOKE_SPEEDUP_FLOOR, full=FULL_SPEEDUP_TARGET),
        scaffold.Gate("4-shard $group pushdown vs the serial fan-out",
                      lambda report: speedup_at(report, "group_pushdown", 4),
                      smoke=None, full=FULL_SPEEDUP_TARGET),
    ],
    intro=intro,
    tables=tables,
)

if __name__ == "__main__":
    raise SystemExit(EXPERIMENT.main())
