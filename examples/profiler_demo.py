"""Observability demo: the operation profiler and slow-op log end to end.

Walks through the PR 8 observability stack:

* turn on full profiling (level 2, ``slow_ms=0``) on a standalone server,
  run a few operations and read their spans back from the slow-op log --
  access path, plan-cache state, docs examined vs returned, lock wait,
* flip to level 1 and watch only operations slower than the threshold land
  in the log (the MongoDB ``system.profile`` behaviour),
* inspect ``server_status()["metrics"]``: operation counters, latency
  histograms with p50/p95/p99, the server-wide plan-cache rollup and the
  per-collection lock report,
* profile a 4-shard replicated cluster and read a scatter-gather span --
  per-shard child costs, *measured* per-shard ``wall_ms`` from the PR 10
  parallel fan-out executor, the parallel flag, the straggler shard (the
  measured slowest of the fan-out) -- plus the merged log with entries
  sourced from the router and every member, and
* attach the FTDC-style :class:`MetricsSampler` to a workload run and dump
  its bounded time series.

Run with::

    PYTHONPATH=src python examples/profiler_demo.py
"""

from __future__ import annotations

import json

from repro.docstore.client import DocumentClient
from repro.docstore.topology import TopologySpec, build_topology
from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
from repro.workloads.ycsb import OperationMix

RECORDS = 400


def seed(handle) -> None:
    handle.insert_many([
        {"_id": f"k{index:04d}", "counter": index, "category": f"cat{index % 5}"}
        for index in range(RECORDS)
    ])
    handle.create_index("counter")


def show(title: str, entries) -> None:
    print(f"\n{title}")
    for entry in entries:
        line = (f"  {entry['op']:<9} {entry.get('access_path', '-'):<17} "
                f"cache={entry.get('plan_cache', '-'):<7} "
                f"exam/ret={entry['docs_examined']}/{entry['docs_returned']} "
                f"sim={entry['simulated_ms']:.3f}ms")
        walls = {}
        if entry.get("shards"):
            names = [child["shard"] for child in entry["shards"]]
            line += (f" shards={names}"
                     f"{' parallel' if entry.get('parallel') else ''}")
            if entry.get("straggler"):
                line += f" straggler={entry['straggler']}"
            walls = {child["shard"]: child["wall_ms"]
                     for child in entry["shards"] if "wall_ms" in child}
        if entry.get("source"):
            line += f" source={entry['source']}"
        print(line)
        if walls:
            measured = ", ".join(f"{shard}={wall:.2f}ms"
                                 for shard, wall in sorted(walls.items()))
            print(f"            measured walls: {measured}")


def standalone_profiling() -> None:
    print("=== standalone: level 2 records every operation ===")
    server = build_topology(TopologySpec())
    handle = DocumentClient(server).collection("demo", "events")
    seed(handle)
    server.set_profiling(2, slow_ms=0.0)

    handle.find_one({"_id": "k0042"})                      # ID_LOOKUP
    handle.find({"counter": {"$gte": 380}})                # INDEX_RANGE
    handle.find({"category": "cat3"})                      # FULL_SCAN
    handle.find({"counter": {"$gte": 100}})                # plan-cache hit
    handle.update_one({"_id": "k0042"}, {"$inc": {"counter": 1}})
    handle.aggregate([{"$match": {"counter": {"$gte": 200}}},
                      {"$group": {"_id": "$category", "n": {"$count": {}}}}])
    show("slow-op log (all ops):", server.get_slow_ops())

    print("\n=== standalone: level 1 records only slow operations ===")
    full_scan_ms = handle.find_with_cost(
        {"category": "cat1"}).simulated_seconds * 1000.0
    server.set_profiling(1, slow_ms=full_scan_ms * 0.5)
    server.profiler.reset()  # drop the level-2 entries for a clean contrast
    handle.find_one({"_id": "k0007"})          # fast -- not recorded
    handle.find({"category": "cat2"})          # full scan -- recorded
    show(f"slow-op log (threshold {full_scan_ms * 0.5:.3f} sim ms):",
         server.get_slow_ops())

    status = server.server_status()
    metrics = status["metrics"]
    print("\noperation counters:",
          {name: count for name, count in sorted(metrics["counters"].items())
           if name.startswith("operations.")})
    for name, histogram in sorted(metrics["histograms"].items()):
        if name.startswith("latency."):
            print(f"  {name}: n={histogram['count']} "
                  f"p50={histogram['p50_ms']:.3f}ms "
                  f"p95={histogram['p95_ms']:.3f}ms "
                  f"p99={histogram['p99_ms']:.3f}ms")
    print("planner rollup:", metrics["planner"])
    print("locks:", status["locks"])


def cluster_profiling() -> None:
    print("\n=== 4-shard x 3-replica cluster: scatter-gather spans ===")
    cluster = build_topology(TopologySpec(
        shards=4, replicas=3, shard_key="_id", shard_strategy="hash"))
    handle = DocumentClient(cluster).collection("demo", "events")
    seed(handle)
    cluster.set_profiling(2, slow_ms=0.0)

    handle.find_with_cost({"_id": "k0101"})            # targeted: one shard
    handle.find_with_cost({"counter": {"$gte": 350}})  # scatter: all shards
    handle.aggregate([{"$group": {"_id": "$category", "n": {"$count": {}}}}])

    entries = cluster.get_slow_ops()
    router_spans = [entry for entry in entries if entry["source"] == "router"]
    show("router spans (mongos view):", router_spans)
    fanned = [entry for entry in router_spans
              if any("wall_ms" in child for child in entry.get("shards", []))]
    if fanned:
        span = fanned[0]
        slowest = max((child for child in span["shards"]
                       if "wall_ms" in child),
                      key=lambda child: child["wall_ms"])
        print(f"\n  straggler of the {span['op']} fan-out is the *measured* "
              f"slowest shard: {span['straggler']} "
              f"({slowest['wall_ms']:.2f}ms wall) -- the executor ran all "
              f"{len(span['shards'])} shards concurrently, so the span's "
              f"duration tracks that straggler, not the sum")
    shard_side = [entry for entry in entries if entry["source"] != "router"]
    show(f"first shard-side spans (of {len(shard_side)}):", shard_side[:4])
    print("\nmerged top():",
          json.dumps(cluster.top(), indent=2, sort_keys=True)[:400], "...")


def sampled_workload() -> None:
    print("\n=== workload runner with the FTDC-style sampler ===")
    spec = WorkloadSpec(
        record_count=300, operation_count=200,
        mix=OperationMix(read=0.6, update=0.2, insert=0.1, scan=0.1),
        profile_level=2, slow_ms=0.0)
    benchmark = DocumentBenchmark.for_topology(TopologySpec(), spec)
    sampler = benchmark.attach_sampler(interval_seconds=0.01)
    result = benchmark.execute_full()
    print(f"ran {result.operations} ops at "
          f"{result.throughput_ops_per_sec:,.0f} simulated ops/s; "
          f"slow-op log holds {len(benchmark.slow_ops())} entries")
    series = sampler.series()
    print(f"sampler took {len(series)} snapshots; final counters:",
          {name: count
           for name, count in sorted(series[-1]["metrics"]["counters"].items())
           if name.startswith("operations.")})


def main() -> None:
    standalone_profiling()
    cluster_profiling()
    sampled_workload()


if __name__ == "__main__":
    main()
