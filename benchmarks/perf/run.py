"""One command for the repo's wall-clock benchmark.

    python3 benchmarks/perf/run.py --workload mixed_sharded --seed 7

runs one workload, checks every answer against the oracle and prints the
metrics ``BENCHMARK.json`` declares: the end-to-end ones with ``--trace 0``
(the default), the per-layer ones from a separate traced pass with
``--trace 1``.  The last line of standard output is one JSON object.

    python3 benchmarks/perf/run.py --compare A.json B.json

compares two sets of runs collected with ``--out`` against the bounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

if __package__ in (None, ""):
    # Run as a script: import the package from its parent instead of this
    # directory, whose ``trace.py`` would shadow the standard library's.
    sys.path[0] = str(Path(__file__).resolve().parents[1])

from perf import ROOT  # noqa: E402  (puts ``src`` on the path)
from perf import layers, phases  # noqa: E402
from perf.compare import compare  # noqa: E402
from perf.inputs import MixedInputs, Sizes  # noqa: E402
from perf.oracle import Oracle  # noqa: E402
from perf.phases import ChronosPhases, ClientPhases, Tally  # noqa: E402
from perf.probe import MachineProbe  # noqa: E402
from perf.trace import Tracer, calibrate  # noqa: E402
from repro.docstore.topology import TopologySpec  # noqa: E402

BENCHMARK_FILE = ROOT / "BENCHMARK.json"
SCRATCH = ROOT / ".perf_scratch"

#: The traced pass replays the first cycles only: 30,000 operations.
TRACED_CYCLES = 3
TRACED_SWEEP_JOBS = 100

ENGINE_OPTIONS = {"cache_bytes": 16 * 1024 * 1024}
_GRID = {"query_mix": "50:50", "distribution": "zipfian"}
#: The paper's demo grid: 2 engines x 5 thread counts = 10 jobs.
DEMO_GRID = {**_GRID, "storage_engine": ["wiredtiger", "mmapv1"],
             "threads": [1, 2, 4, 8, 16],
             "record_count": 4_000, "operation_count": 12_000}
#: Twelve small jobs on the workload's own shape, one per cycle.
SHAPE_GRID = {"distribution": "zipfian", "storage_engine": "wiredtiger",
              "query_mix": ["50:50", "95:5"], "threads": [1, 2, 4, 8, 16, 32],
              "record_count": 1_000, "operation_count": 2_000}


@dataclass(frozen=True)
class Workload:
    """One row of the README's workload table."""

    #: shape of the deployment the client phases drive
    spec: TopologySpec
    sizes: Sizes
    #: shape declared on the Chronos deployment of the mongo evaluation
    #: (``None``: the experiment's parameters decide, so the grid can sweep
    #: the storage engine)
    mongo_topology: TopologySpec | None


def _mixed(spec: TopologySpec) -> Workload:
    return Workload(spec, Sizes(mongo_grid=SHAPE_GRID), spec)


WORKLOADS: dict[str, Workload] = {
    "mixed_standalone": _mixed(TopologySpec()),
    "mixed_sharded": _mixed(TopologySpec(shards=4, shard_key="_id",
                                         shard_strategy="hash")),
    "mixed_replicated": _mixed(TopologySpec(replicas=3, write_concern="majority")),
    # Client phases at the demo's record count: a standalone whose data fits
    # its cache, which no ``mixed_*`` shape is.
    "evaluation": Workload(
        TopologySpec(),
        Sizes(records=4_000, round_ops=2_500, mongo_grid=DEMO_GRID, sweep_jobs=400),
        None),
}


def _oracle_after(inputs: MixedInputs, cycles: int) -> Oracle:
    """The reference model after the load and the first ``cycles`` rounds."""
    oracle = Oracle()
    for batch in inputs.batches:
        oracle.load(batch)
    oracle.apply(inputs.stream(cycles))
    return oracle


def _settle() -> None:
    """Collect, then park everything alive in the permanent generation.

    Called when the harness's own data (inputs, the oracle) has just grown:
    about a million objects the collector would otherwise walk on every full
    collection, adding 0.2-0.4 s pauses that have nothing to do with the
    program.  The collector stays enabled and still pays for everything
    allocated afterwards.
    """
    gc.collect()
    gc.freeze()


def _grid(workload: Workload, inputs: MixedInputs) -> dict[str, Any]:
    return {**workload.sizes.mongo_grid, "seed": inputs.sue_seed}


def run_end_to_end(workload: Workload, inputs: MixedInputs, scratch: Path,
                   machine: MachineProbe, tally: Tally,
                   oracle: Oracle | None = None) -> dict[str, float]:
    """The untraced run: every end-to-end metric but ``peak_rss_mb``.

    ``oracle`` replaces the reference model (the tests plant a wrong one).
    """
    sizes = inputs.sizes
    deployment = phases.set_up(workload.spec, ENGINE_OPTIONS, inputs,
                               machine.sample)
    plane = phases.set_up_control(workload.mongo_topology, sizes.sweep_jobs)
    machine.sample()
    setup_factor = machine.take()
    client = ClientPhases(deployment, inputs, tally)
    chronos = ChronosPhases(plane, _grid(workload, inputs), sizes.sweep_jobs,
                            sizes.cycles, scratch, tally)
    try:
        chronos.begin()
        for cycle in range(sizes.cycles):
            gc.collect()
            for run_slice in (client.oltp, client.analytics, client.profiled,
                              chronos.cycle):
                machine.sample()
                run_slice(cycle)
        machine.sample()
        factor = machine.take()
        chronos.finish()
        oracle = oracle or _oracle_after(inputs, sizes.cycles)
        phases.check_contents(deployment.handle, oracle, tally)
        phases.check_answers(deployment.handle, oracle, inputs, sizes.cycles, tally)
    finally:
        deployment.close()
        plane.control.close()

    reads, updates, inserts, scans = client.round_medians
    median = statistics.median
    print(f"machine_factor={factor:.3f} (set-up: {setup_factor:.3f}); a time "
          f"below times its factor is this run's raw wall-clock")
    return {
        "setup_s": (deployment.setup_seconds + plane.setup_seconds) / setup_factor,
        "load_docs_s": (sizes.load_batch / median(deployment.batch_seconds)
                        * setup_factor),
        "throughput_ops_s": median(client.round_rates) * factor,
        "read_p50_us": median(reads) / factor * 1e6,
        "update_p50_us": median(updates) / factor * 1e6,
        "insert_p50_us": median(inserts) / factor * 1e6,
        "scan_p50_us": median(scans) / factor * 1e6,
        "count_p50_ms": median(client.walls["count"]) / factor * 1e3,
        "group_p50_ms": median(client.walls["group"]) / factor * 1e3,
        "topk_p50_us": median(client.walls["topk"]) / factor * 1e6,
        "profiled_read_p50_us": median(client.profiled_medians) / factor * 1e6,
        "eval_wall_s": chronos.seconds["mongo"] / factor,
        "job_overhead_ms": chronos.seconds["sweep"] / factor / sizes.sweep_jobs * 1e3,
    }


def _fanout(server: Any) -> tuple[int, int]:
    executor = getattr(server, "executor", None)  # sharded clusters only
    return (executor.fanouts, executor.tasks_dispatched) if executor else (0, 0)


def run_traced(workload: Workload, inputs: MixedInputs, scratch: Path,
               tally: Tally, trace_out: Path | None = None) -> dict[str, float]:
    """The traced pass: every per-layer metric but ``error_ratio``.

    The first cycles' operation stream is replayed twice on identically
    set-up deployments, without and with the wrappers, so
    ``trace.overhead_ratio`` is the price of tracing and nothing else.  Also
    prints, per operation class, the sum of the layers' self times beside the
    mean call of both replays: the attribution is complete when the sum lies
    between the two.
    """
    overhead = calibrate()
    cycles = min(TRACED_CYCLES, inputs.sizes.cycles)

    deployment = phases.set_up(workload.spec, ENGINE_OPTIONS, inputs)
    untraced = ClientPhases(deployment, inputs, tally)
    try:
        for cycle in range(cycles):
            gc.collect()
            untraced.oltp(cycle)
    finally:
        deployment.close()
    deployment = None

    deployment = phases.set_up(workload.spec, ENGINE_OPTIONS, inputs)
    handle = deployment.handle
    tracer = Tracer()
    traced = ClientPhases(deployment, inputs, tally, tracer)
    try:
        before = layers.engine_counters(handle.stats())
        fanout_before = _fanout(deployment.server)
        tracer.install(layers.DOCSTORE_LAYERS, carriers=layers.CARRIERS)
        try:
            for cycle in range(cycles):
                gc.collect()
                traced.oltp(cycle)
            tracer.label = ""
            after = layers.engine_counters(handle.stats())
            fanout_after = _fanout(deployment.server)
            for cycle in range(cycles):
                traced.analytics(cycle)
                traced.profiled(cycle)
        finally:
            tracer.uninstall()
        oracle = _oracle_after(inputs, cycles)
        phases.check_contents(handle, oracle, tally)
        phases.check_answers(handle, oracle, inputs, cycles, tally)
    finally:
        deployment.close()
    calls = {op: len(walls) for op, walls in traced.walls.items()}
    calls["profiled_read"] = traced.profiled_calls
    for kind, op in enumerate(layers.OLTP_CLASSES):
        calls[op] = len(traced.window.walls[kind])
    metrics = layers.client_metrics(
        tracer, overhead, untraced.window, traced.window, calls, before, after,
        (fanout_after[0] - fanout_before[0], fanout_after[1] - fanout_before[1]),
        oracle.user_bytes())

    del deployment, handle
    _settle()
    for kind, op in enumerate(layers.OLTP_CLASSES):
        attributed = sum(value for name, value in metrics.items()
                         if name.endswith(f".{op}.self_us"))
        print(f"{op:7s} layers' self times sum to {attributed:9.2f} us; mean call "
              f"{statistics.fmean(untraced.window.walls[kind]) * 1e6:9.2f} us "
              f"untraced, {statistics.fmean(traced.window.walls[kind]) * 1e6:9.2f}"
              f" us traced")

    # Fewer jobs than the untraced run drives: the grid's first and last
    # thread count, a hundred sweep jobs.
    grid = _grid(workload, inputs)
    grid["threads"] = [grid["threads"][0], grid["threads"][-1]]
    sweep_jobs = min(TRACED_SWEEP_JOBS, inputs.sizes.sweep_jobs)
    plane = phases.set_up_control(workload.mongo_topology, sweep_jobs)
    chronos_tracer = Tracer()
    chronos = ChronosPhases(plane, grid, sweep_jobs, cycles, scratch, tally,
                            chronos_tracer)
    chronos_tracer.install(layers.CHRONOS_LAYERS, sized=layers.SIZED)
    try:
        chronos.begin()
        for cycle in range(cycles):
            chronos.cycle(cycle)
        chronos.finish()
    finally:
        chronos_tracer.uninstall()
        plane.control.close()
    metrics.update(layers.chronos_metrics(chronos_tracer, overhead, chronos.jobs))
    metrics["trace.spans"] = len(tracer) + len(chronos_tracer)
    metrics["trace.overhead_ratio"] = traced.oltp_seconds / untraced.oltp_seconds
    if trace_out is not None:
        tracer.write(trace_out)
        chronos_tracer.write(trace_out.with_suffix(".chronos" + trace_out.suffix))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_out: Path | None = None,
                 workload: Workload | None = None) -> dict[str, Any]:
    """Run one workload; returns the record ``--out`` appends.

    ``workload`` overrides the table's entry (the tests run toy sizes).
    """
    workload = workload or WORKLOADS[name]
    declared = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    units = {metric["name"]: metric["unit"]
             for metric in declared["per_layer" if trace else "end_to_end"]}
    # The work is fixed, so that two runs time the same calls; ``--seconds``
    # other than ``run_seconds`` runs proportionally more or fewer cycles.
    cycles = max(1, round(workload.sizes.cycles * seconds / declared["run_seconds"]))
    inputs = MixedInputs(seed, replace(workload.sizes, cycles=cycles))
    tally = Tally()
    machine = MachineProbe()
    threads_before = set(threading.enumerate())
    _settle()
    scratch = SCRATCH / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            values = run_traced(workload, inputs, scratch, tally, trace_out)
        else:
            values = run_end_to_end(workload, inputs, scratch, machine, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # No fan-out worker may outlive its workload: every deployment was closed.
    for thread in set(threading.enumerate()) - threads_before:
        thread.join(timeout=10)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} outlived the workload")
    if trace:
        values["error_ratio"] = tally.failed / tally.attempted
    else:
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "stream_sha": inputs.stream_sha,
        "machine_factors": machine.factors,  # untraced runs: set-up, cycles
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()},
    }


def _append(path: Path, record: dict[str, Any]) -> None:
    records = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    records.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def _pin_to_one_cpu() -> None:
    """Keep the client thread and the product's fan-out workers on one CPU.

    Under the GIL they never run at once, but on two virtual CPUs every
    hand-off is a wake-up across CPUs, and on this sandbox that costs about
    150 us more once the machine has been busy for a minute: sharded scans
    read 530 us in one run and 1,060 us in the next.  On one CPU a hand-off
    is a context switch and reads the same every time (README, "Run
    hygiene").
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    declared = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"],
                        help="what the timed cycles take on the seed tree; "
                             "another value runs proportionally more or fewer")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass and the per-layer metrics")
    parser.add_argument("--trace-out", type=Path,
                        help="where the traced pass writes its spans "
                             "(default: under .perf_scratch/, which git ignores)")
    parser.add_argument("--out", type=Path,
                        help="append this run's record to a JSON list "
                             "(with --compare: write the comparison as JSON)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two sets of runs against the bounds")
    arguments = parser.parse_args(argv)

    if arguments.compare:
        lines, summary = compare(*arguments.compare, declared)
        print("\n".join(lines))
        if arguments.out:
            arguments.out.write_text(json.dumps(summary, indent=1) + "\n",
                                     encoding="utf-8")
        return 0 if summary["agree"] else 1
    if not arguments.workload:
        parser.error("--workload or --compare is required")

    _pin_to_one_cpu()
    trace_out = arguments.trace_out
    if arguments.trace and trace_out is None:
        trace_out = SCRATCH / f"trace-{arguments.workload}.jsonl"
    record = run_workload(arguments.workload, arguments.seed, arguments.seconds,
                          bool(arguments.trace), trace_out)
    print(f"workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} stream_sha={record['stream_sha']}")
    for name, metric in record["metrics"].items():
        print(f"{name:44s} {metric['value']:16.6f} {metric['unit']}")
    print(f"error_ratio={record['failed'] / record['attempted']:.6f} "
          f"({record['failed']} of {record['attempted']})")
    for message in record["failures"]:
        print(f"FAILED: {message}", file=sys.stderr)
    if arguments.out:
        _append(arguments.out, record)
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
