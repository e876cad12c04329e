"""Command-line interface of the Chronos reproduction.

The original Chronos is operated through its web UI; this reproduction offers
the same workflows from the command line::

    python -m repro demo                 # run the paper's demo end-to-end
    python -m repro demo --threads 1 2 4 --query-mix 95:5
    python -m repro workloads            # YCSB A-F on both engines
    python -m repro sharded --shards 1 2 4   # scale-out: YCSB on sharded clusters
    python -m repro replicated --kill-primary    # replica sets: durability demo
    python -m repro topologies           # one workload across every topology
    python -m repro explain --query '{"counter": {"$gte": 500}}'   # query plans
    python -m repro profile --shards 4 --replicas 3   # slow-op log + metrics
    python -m repro serve --port 8080    # serve the REST API over HTTP
    python -m repro info                 # package / experiment overview

Every command prints the tables/diagrams that the web UI of Fig. 3d would
show, using the same analysis pipeline the tests exercise.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.aggregate import ResultTable
from repro.analysis.compare import compare_groups, speedup_table
from repro.analysis.diagrams import build_diagram
from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chronos (EDBT 2020) reproduction: Evaluation-as-a-Service toolkit",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="run the wiredTiger vs mmapv1 demo")
    demo.add_argument("--threads", type=int, nargs="+", default=[1, 2, 4, 8, 16],
                      help="client thread counts to sweep")
    demo.add_argument("--records", type=int, default=200, help="records loaded per job")
    demo.add_argument("--operations", type=int, default=400, help="operations per job")
    demo.add_argument("--query-mix", default="50:50", help="read:update ratio")
    demo.add_argument("--distribution", default="zipfian",
                      choices=["uniform", "zipfian", "latest", "hotspot"])
    demo.add_argument("--deployments", type=int, default=1,
                      help="number of identical deployments to parallelise over")
    demo.add_argument("--no-diagrams", action="store_true",
                      help="skip the ASCII diagrams")
    demo.add_argument("--report-dir", default=None,
                      help="write a full evaluation report (markdown + SVG) here")

    workloads = subparsers.add_parser("workloads", help="run YCSB A-F on both engines")
    workloads.add_argument("--threads", type=int, default=8)
    workloads.add_argument("--records", type=int, default=150)
    workloads.add_argument("--operations", type=int, default=300)

    sharded = subparsers.add_parser(
        "sharded", help="run a YCSB workload against sharded clusters")
    sharded.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4],
                         help="shard counts to sweep (1 = single server)")
    sharded.add_argument("--engine", default="wiredtiger",
                         choices=["wiredtiger", "mmapv1"])
    sharded.add_argument("--workload", default="B",
                         help="YCSB core workload (A-F)")
    sharded.add_argument("--strategy", default="hash", choices=["hash", "range"],
                         help="chunk placement strategy")
    sharded.add_argument("--records", type=int, default=200)
    sharded.add_argument("--operations", type=int, default=400)
    sharded.add_argument("--threads", type=int, default=8)

    replicated = subparsers.add_parser(
        "replicated",
        help="run a YCSB workload against replica sets, sweeping write "
             "concern and read preference")
    replicated.add_argument("--replicas", type=int, default=3,
                            help="replica-set members (1 primary + N-1 secondaries)")
    replicated.add_argument("--engine", default="wiredtiger",
                            choices=["wiredtiger", "mmapv1"])
    replicated.add_argument("--workload", default="A",
                            help="YCSB core workload (A-F)")
    replicated.add_argument("--write-concerns", nargs="+", default=["1", "majority"],
                            dest="write_concerns",
                            help="write concerns to sweep (ints or 'majority')")
    replicated.add_argument("--read-preferences", nargs="+",
                            default=["primary", "secondary"],
                            dest="read_preferences",
                            choices=["primary", "secondary", "nearest"],
                            help="read preferences to sweep")
    replicated.add_argument("--lag", type=int, default=3,
                            help="oplog entries secondaries may trail behind")
    replicated.add_argument("--kill-primary", action="store_true",
                            dest="kill_primary",
                            help="kill the primary halfway through the "
                                 "measured phase (failover demo)")
    replicated.add_argument("--records", type=int, default=200)
    replicated.add_argument("--operations", type=int, default=400)
    replicated.add_argument("--threads", type=int, default=8)

    topologies = subparsers.add_parser(
        "topologies",
        help="evaluate one workload across deployment topologies through "
             "the control plane")
    topologies.add_argument("--engine", default="mmapv1",
                            choices=["wiredtiger", "mmapv1"])
    topologies.add_argument("--records", type=int, default=200)
    topologies.add_argument("--operations", type=int, default=400)
    topologies.add_argument("--threads", type=int, default=8)
    topologies.add_argument("--query-mix", default="50:50",
                            help="read:update ratio")

    explain = subparsers.add_parser(
        "explain", help="show the access path a document-store query uses")
    explain.add_argument("--query", default='{"counter": {"$gte": 500}}',
                         help="the filter to plan, as JSON")
    explain.add_argument("--records", type=int, default=1000,
                         help="synthetic documents to load before planning")
    explain.add_argument("--engine", default="wiredtiger",
                         choices=["wiredtiger", "mmapv1"])
    explain.add_argument("--index", action="append", default=None,
                         help="secondary index field (repeatable; "
                              "default: category and counter)")
    explain.add_argument("--limit", type=int, default=None,
                         help="cursor limit pushed into the planner")
    explain.add_argument("--shards", type=int, default=1,
                         help="explain against a sharded cluster (>1)")
    explain.add_argument("--strategy", default="range", choices=["hash", "range"],
                         help="chunk placement strategy of the cluster")
    explain.add_argument("--shard-key", default="_id", dest="shard_key")

    profile = subparsers.add_parser(
        "profile",
        help="run a short mixed workload with the operation profiler on and "
             "print the slow-op log plus a metrics summary")
    profile.add_argument("--engine", default="wiredtiger",
                         choices=["wiredtiger", "mmapv1"])
    profile.add_argument("--records", type=int, default=500,
                         help="documents loaded before the measured phase")
    profile.add_argument("--operations", type=int, default=200,
                         help="operations in the measured phase")
    profile.add_argument("--shards", type=int, default=1,
                         help="shard count (1 = single server)")
    profile.add_argument("--replicas", type=int, default=1,
                         help="replica-set members per deployment")
    profile.add_argument("--level", type=int, default=2, choices=[0, 1, 2],
                         help="profiling level (0 off, 1 slow only, 2 all ops)")
    profile.add_argument("--slow-ms", type=float, default=0.0, dest="slow_ms",
                         help="slow-op threshold in simulated milliseconds")
    profile.add_argument("--limit", type=int, default=15,
                         help="slow-op rows to print (slowest first)")
    profile.add_argument("--json", action="store_true", dest="as_json",
                         help="dump slow ops, metrics and sampler series as JSON")

    serve = subparsers.add_parser("serve", help="serve the Chronos REST API over HTTP")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--data-directory", default=None,
                       help="directory for the durable metadata store")

    subparsers.add_parser("info", help="show package and experiment overview")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = build_parser().parse_args(argv)
    if arguments.command == "demo":
        return _command_demo(arguments)
    if arguments.command == "workloads":
        return _command_workloads(arguments)
    if arguments.command == "sharded":
        return _command_sharded(arguments)
    if arguments.command == "replicated":
        return _command_replicated(arguments)
    if arguments.command == "topologies":
        return _command_topologies(arguments)
    if arguments.command == "explain":
        return _command_explain(arguments)
    if arguments.command == "profile":
        return _command_profile(arguments)
    if arguments.command == "serve":
        return _command_serve(arguments)
    return _command_info()


# -- commands -----------------------------------------------------------------------


def _command_demo(arguments) -> int:
    from repro.demo import prepare_demo, run_demo

    parameters = {
        "storage_engine": ["wiredtiger", "mmapv1"],
        "threads": list(arguments.threads),
        "record_count": arguments.records,
        "operation_count": arguments.operations,
        "query_mix": arguments.query_mix,
        "distribution": arguments.distribution,
    }
    setup = prepare_demo(parameters=parameters,
                         deployments_per_engine_sweep=arguments.deployments)
    jobs = setup.control.evaluations.jobs(setup.evaluation.id)
    print(f"evaluation {setup.evaluation.id}: {len(jobs)} jobs "
          f"on {len(setup.deployment_ids)} deployment(s)")
    setup = run_demo(setup)
    print(f"finished: {setup.report.jobs_finished}, failed: {setup.report.jobs_failed}")
    print()

    table = ResultTable.from_results(setup.results, [
        "parameters.storage_engine", "parameters.threads",
        "throughput_ops_per_sec", "latency_p95_ms", "storage_bytes",
    ]).sort_by("parameters.threads")
    print(table.to_markdown())
    print()

    comparison = compare_groups(setup.results, "parameters.storage_engine",
                                "throughput_ops_per_sec")
    print(f"winner: {comparison['winner']} "
          f"({comparison['factor']:.2f}x over {comparison['runner_up']})")
    for row in speedup_table(setup.results, "parameters.threads",
                             "throughput_ops_per_sec", "parameters.storage_engine",
                             baseline_group="mmapv1"):
        print(f"  threads={row['parameters.threads']:>3}  "
              f"wiredtiger/mmapv1 = {row.get('wiredtiger_speedup', 0.0):.2f}x")

    if not arguments.no_diagrams:
        print()
        diagram = build_diagram("line", "Throughput vs threads",
                                x_label="threads", y_label="ops/s")
        from repro.analysis.aggregate import pivot

        for name, points in pivot(setup.results, "parameters.threads",
                                  "throughput_ops_per_sec",
                                  "parameters.storage_engine").items():
            diagram.add_series(str(name), points)
        print(diagram.render_ascii())

    if arguments.report_dir:
        from repro.analysis.report import evaluation_report

        report = evaluation_report(setup.control, setup.evaluation.id)
        path = report.write(arguments.report_dir)
        print(f"\nreport written to {path}")
    return 0


def _command_workloads(arguments) -> int:
    from repro.docstore.server import DocumentServer
    from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
    from repro.workloads.ycsb import CORE_WORKLOADS

    print(f"| workload | wiredTiger (ops/s) | mmapv1 (ops/s) | ratio |")
    print("| --- | --- | --- | --- |")
    for name, workload in CORE_WORKLOADS.items():
        throughputs = {}
        for engine in ("wiredtiger", "mmapv1"):
            spec = WorkloadSpec(record_count=arguments.records,
                                operation_count=arguments.operations,
                                threads=arguments.threads,
                                mix=workload.mix, distribution=workload.distribution)
            result = DocumentBenchmark(DocumentServer(engine), spec).execute_full()
            throughputs[engine] = result.throughput_ops_per_sec
        ratio = throughputs["wiredtiger"] / throughputs["mmapv1"]
        print(f"| {name} | {throughputs['wiredtiger']:,.0f} "
              f"| {throughputs['mmapv1']:,.0f} | {ratio:.2f}x |")
    return 0


def _command_sharded(arguments) -> int:
    from repro.docstore.topology import TopologySpec
    from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
    from repro.workloads.ycsb import ycsb_workload

    workload = ycsb_workload(arguments.workload)
    print(f"YCSB workload {workload.name} ({workload.description}) on "
          f"{arguments.engine}, {arguments.threads} threads, "
          f"{arguments.strategy} placement")
    print("| shards | throughput (ops/s) | p95 (ms) | chunks | migrations |")
    print("| --- | --- | --- | --- | --- |")
    for shards in arguments.shards:
        spec = WorkloadSpec(record_count=arguments.records,
                            operation_count=arguments.operations,
                            threads=arguments.threads,
                            mix=workload.mix, distribution=workload.distribution)
        topology = TopologySpec(shards=shards, shard_strategy=arguments.strategy,
                                storage_engine=arguments.engine)
        result = DocumentBenchmark.for_topology(topology, spec).execute_full()
        statistics = result.engine_statistics
        print(f"| {shards} | {result.throughput_ops_per_sec:,.0f} "
              f"| {result.latency_p95_ms:.3f} | {statistics.get('chunks', 1)} "
              f"| {statistics.get('migrations', 0)} |")
    return 0


def _command_topologies(arguments) -> int:
    from repro.demo import (
        TOPOLOGY_COMPARISON,
        run_topology_comparison,
        topology_comparison_rows,
    )

    parameters = {
        "storage_engine": arguments.engine,
        "threads": arguments.threads,
        "record_count": arguments.records,
        "operation_count": arguments.operations,
        "query_mix": arguments.query_mix,
        "distribution": "zipfian",
        "seed": 42,
    }
    print(f"evaluating one workload ({arguments.engine}, "
          f"{arguments.threads} threads, {arguments.query_mix} mix) across "
          f"{len(TOPOLOGY_COMPARISON)} deployment topologies "
          f"through the control plane")
    setup = run_topology_comparison(parameters=parameters)
    rows = topology_comparison_rows(setup)
    print()
    print("| deployment | topology | throughput (ops/s) | avg latency (ms) "
          "| documents |")
    print("| --- | --- | --- | --- | --- |")
    for name, row in rows.items():
        print(f"| {name} | {row['reported_kind'] or 'failed'} "
              f"| {row['throughput']:,.0f} "
              f"| {row['latency_avg_ms']:.4f} "
              f"| {row['documents']:g} |")
    failed = sum(row["jobs_failed"] for row in rows.values())
    print()
    print(f"evaluations: {len(setup.evaluations)}, failed jobs: {failed}")
    return 1 if failed else 0


def _command_replicated(arguments) -> int:
    from repro.docstore.replication import FailureInjector, ReplicaSet
    from repro.docstore.topology import TopologySpec, parse_write_concern
    from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
    from repro.workloads.ycsb import ycsb_workload

    workload = ycsb_workload(arguments.workload)
    print(f"YCSB workload {workload.name} ({workload.description}) on "
          f"{arguments.engine}, {arguments.replicas} member(s), "
          f"{arguments.threads} threads, lag={arguments.lag}"
          + (", killing the primary mid-run" if arguments.kill_primary else ""))
    print("| w | reads | throughput (ops/s) | p95 (ms) | staleness (avg) "
          "| failovers | lost writes |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for write_concern in arguments.write_concerns:
        for read_preference in arguments.read_preferences:
            spec = WorkloadSpec(record_count=arguments.records,
                                operation_count=arguments.operations,
                                threads=arguments.threads,
                                mix=workload.mix,
                                distribution=workload.distribution)
            topology = TopologySpec(
                replicas=arguments.replicas,
                write_concern=parse_write_concern(write_concern),
                read_preference=read_preference,
                replication_lag=arguments.lag,
                storage_engine=arguments.engine)
            benchmark = DocumentBenchmark.for_topology(topology, spec)
            if arguments.kill_primary and isinstance(benchmark.server, ReplicaSet):
                injector = FailureInjector(benchmark.server)
                kill_at = spec.operation_count // 2

                def hook(index: int, injector=injector, kill_at=kill_at) -> None:
                    if index == kill_at:
                        injector.kill_primary()

                benchmark.operation_hook = hook
            result = benchmark.execute_full()
            replication = result.engine_statistics.get("replication", {})
            print(f"| {write_concern} | {read_preference} "
                  f"| {result.throughput_ops_per_sec:,.0f} "
                  f"| {result.latency_p95_ms:.3f} "
                  f"| {replication.get('staleness_mean', 0.0):.2f} "
                  f"| {replication.get('failovers', 0)} "
                  f"| {replication.get('rolled_back_entries', 0)} |")
    return 0


def _command_explain(arguments) -> int:
    import json
    import random

    from repro.docstore.client import DocumentClient
    from repro.docstore.topology import TopologySpec, build_topology
    from repro.workloads.generator import RecordGenerator

    try:
        query = json.loads(arguments.query)
    except json.JSONDecodeError as error:
        print(f"invalid --query JSON: {error}", file=sys.stderr)
        return 2
    if not isinstance(query, dict):
        print("--query must be a JSON object", file=sys.stderr)
        return 2

    server = build_topology(TopologySpec(
        shards=arguments.shards, shard_key=arguments.shard_key,
        shard_strategy=arguments.strategy, storage_engine=arguments.engine))
    handle = DocumentClient(server).collection("benchmark", "usertable")
    generator = RecordGenerator(field_count=2, field_length=8)
    rng = random.Random(7)
    for index in range(arguments.records):
        handle.insert_one(generator.record(index, rng))
    for field_path in arguments.index or ["category", "counter"]:
        handle.create_index(field_path)
    plan = handle.explain(query, limit=arguments.limit)
    print(json.dumps(plan, indent=2, sort_keys=True, default=str))
    return 0


def _command_profile(arguments) -> int:
    import json

    from repro.docstore.topology import TopologySpec
    from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
    from repro.workloads.ycsb import OperationMix

    spec = WorkloadSpec(
        record_count=arguments.records,
        operation_count=arguments.operations,
        mix=OperationMix(read=0.55, update=0.20, insert=0.05, scan=0.10,
                         grouped_count=0.05, top_k=0.05),
        profile_level=arguments.level,
        slow_ms=arguments.slow_ms,
    )
    topology = TopologySpec(shards=arguments.shards, replicas=arguments.replicas,
                            storage_engine=arguments.engine)
    benchmark = DocumentBenchmark.for_topology(topology, spec)
    sampler = benchmark.attach_sampler(interval_seconds=0.05)
    result = benchmark.execute_full()
    slow = benchmark.slow_ops()
    metrics = benchmark.server.metrics_snapshot()

    if arguments.as_json:
        print(json.dumps({
            "result": result.as_dict(),
            "slow_ops": slow,
            "metrics": metrics,
            "sampler": sampler.as_dict(),
        }, indent=2, sort_keys=True, default=str))
        return 0

    print(f"{arguments.engine}, shards={arguments.shards}, "
          f"replicas={arguments.replicas}, level={arguments.level}, "
          f"slowms={arguments.slow_ms:g} -- "
          f"{result.operations} ops, "
          f"{result.throughput_ops_per_sec:,.0f} ops/s simulated")
    print()
    print(f"slow-op log: {len(slow)} entries "
          f"(showing the {min(arguments.limit, len(slow))} slowest)")
    print("| op | ns | path | cache | exam/ret | lock ms | sim ms | shards |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    slowest = sorted(slow, key=lambda entry: entry.get("simulated_ms", 0.0),
                     reverse=True)[:arguments.limit]
    for entry in slowest:
        shards = entry.get("shards")
        if shards:
            detail = f"{len(shards)}{'*' if entry.get('parallel') else ''}"
            straggler = entry.get("straggler")
            if straggler:
                detail += f" ({straggler})"
        else:
            detail = "-"
        print(f"| {entry['op']} | {entry['ns']} "
              f"| {entry.get('access_path', '-')} "
              f"| {entry.get('plan_cache', '-')} "
              f"| {entry['docs_examined']}/{entry['docs_returned']} "
              f"| {entry['lock_wait_ms']:.3f} "
              f"| {entry['simulated_ms']:.3f} | {detail} |")
    print()
    counters = metrics.get("counters", {})
    operations = {name.split(".", 1)[1]: count
                  for name, count in sorted(counters.items())
                  if name.startswith("operations.")}
    print(f"operations: {operations}")
    histograms = metrics.get("histograms", {})
    for name in sorted(histograms):
        if not name.startswith("latency."):
            continue
        snap = histograms[name]
        print(f"  {name}: n={snap['count']} p50={snap['p50_ms']:.3f}ms "
              f"p95={snap['p95_ms']:.3f}ms p99={snap['p99_ms']:.3f}ms")
    planner = metrics.get("planner", {})
    print(f"planner: {planner}")
    print(f"sampler: {len(sampler.series())} samples "
          f"@ {sampler.interval_seconds:g}s")
    return 0


def _command_serve(arguments) -> int:
    from repro.agents.kvstore_agent import register_kvstore_system
    from repro.agents.mongodb_agent import register_mongodb_system
    from repro.agents.replicated_agent import register_replicated_mongodb_system
    from repro.agents.sharded_agent import register_sharded_mongodb_system
    from repro.core.control import ChronosControl
    from repro.rest.wire import HttpServerAdapter

    control = ChronosControl(data_directory=arguments.data_directory)
    admin = control.users.get_by_username("admin")
    if control.systems.get_by_name("mongodb") is None:
        register_mongodb_system(control, owner_id=admin.id)
    if control.systems.get_by_name("mongodb-sharded") is None:
        register_sharded_mongodb_system(control, owner_id=admin.id)
    if control.systems.get_by_name("mongodb-replicated") is None:
        register_replicated_mongodb_system(control, owner_id=admin.id)
    if control.systems.get_by_name("kvstore") is None:
        register_kvstore_system(control, owner_id=admin.id)
    adapter = HttpServerAdapter(control.api, port=arguments.port).start()
    print(f"Chronos Control REST API listening on {adapter.base_url}/api/v1")
    print("default credentials: admin / admin  (Ctrl+C to stop)")
    try:
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        adapter.stop()
    return 0


def _command_info() -> int:
    print(f"repro {__version__} -- reproduction of 'Chronos: The Swiss Army Knife for "
          f"Database Evaluations' (EDBT 2020)")
    print()
    print("subsystems: core (Chronos Control), agent (Python agent library), docstore")
    print("  (wiredTiger/mmapv1 SuE with a cost-based query planner), docstore.sharding")
    print("  (sharded cluster + range-aware query router), docstore.replication")
    print("  (replica sets: oplog, elections, write/read concern, failure injection),")
    print("  docstore.topology (serializable deployment shapes + the build_topology")
    print("  factory), kvstore (second SuE), storage (embedded RDBMS), rest")
    print("  (versioned API), workloads (YCSB), analysis (metrics + diagrams)")
    print()
    print("experiments: E1-E12, one pytest harness each (pytest benchmarks/bench_<name>.py);")
    print("  the wall-clock ratios E14-E17 (python benchmarks/bench_<name>.py [--smoke]);")
    print("  the wall-clock benchmark itself is python3 benchmarks/perf/run.py")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
