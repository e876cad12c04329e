"""Tier-1 tests of the benchmark harness itself, at toy sizes."""

from __future__ import annotations

import functools
import json
import re
from dataclasses import replace

import pytest

from perf import ROOT, layers, phases
from perf import run as harness
from perf.compare import compare
from perf.inputs import UPDATE, MixedInputs, Sizes
from perf.oracle import Oracle
from perf.phases import Tally
from perf.probe import MachineProbe
from perf.trace import Tracer, self_times
from repro.docstore import client, documents
from repro.docstore.client import CollectionHandle
from repro.docstore.sharding.executor import ShardExecutor
from repro.docstore.topology import TopologySpec

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY_GRID = {"query_mix": "50:50", "distribution": "zipfian",
            "record_count": 60, "operation_count": 120}
# 300 records, 1,500 operations, 2 + 10 jobs.
TOY = Sizes(records=300, load_batch=100, warmup_reads=50, cycles=3,
            round_ops=500, counts=2, groups=1, topks=4, profiled_reads=50,
            sweep_jobs=10)
DETERMINISTIC = ("cost.simulated_s", "planner.cache_hit_ratio",
                 "engine.cache_hit_ratio", "engine.cache_evictions",
                 "router.targeted_ratio", "rest.requests_per_job")


def toy(name: str) -> harness.Workload:
    workload = harness.WORKLOADS[name]
    if workload.mongo_topology is None:
        grid = {**TOY_GRID, "storage_engine": ["wiredtiger", "mmapv1"],
                "threads": [2]}
    else:
        grid = {**TOY_GRID, "storage_engine": "wiredtiger", "threads": [1, 2]}
    return replace(workload, sizes=replace(TOY, mongo_grid=grid))


def run_toy(name: str, seed: int = 5, trace: bool = False) -> dict:
    return harness.run_workload(name, seed, DECLARED["run_seconds"], trace,
                                workload=toy(name))


cached_toy = functools.cache(run_toy)


def values(record: dict) -> dict[str, float]:
    return {name: metric["value"] for name, metric in record["metrics"].items()}


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_workload_prints_the_declared_end_to_end_metrics(name):
    record = cached_toy(name)
    declared = {metric["name"]: metric["unit"] for metric in DECLARED["end_to_end"]}
    assert {metric: value["unit"]
            for metric, value in record["metrics"].items()} == declared
    assert all(value > 0 for value in values(record).values())
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0


def test_traced_pass_is_deterministic_complete_and_leaves_no_wrapper():
    originals = (CollectionHandle.find_with_cost, ShardExecutor.scatter,
                 client.clone_document)
    first, second = (run_toy("mixed_sharded", trace=True) for _ in range(2))
    assert (CollectionHandle.find_with_cost, ShardExecutor.scatter,
            client.clone_document) == originals
    assert client.clone_document is documents.clone_document

    declared = {metric["name"]: metric["unit"] for metric in DECLARED["per_layer"]}
    assert {metric: value["unit"]
            for metric, value in first["metrics"].items()} == declared
    assert first["correct"] and second["correct"]
    assert first["stream_sha"] == second["stream_sha"]
    assert first["stream_sha"] == MixedInputs(5, TOY).stream_sha
    assert first["stream_sha"] != MixedInputs(6, TOY).stream_sha
    one, two = values(first), values(second)
    assert {name: one[name] for name in DETERMINISTIC} \
        == {name: two[name] for name in DETERMINISTIC}
    assert one["client.read.self_us"] > 0 and one["router.read.self_us"] > 0
    assert one["cost.simulated_s"] > 0 and one["router.targeted_ratio"] > 0.5
    assert one["error_ratio"] == 0
    # The default, parallel fan-out: three of four shard tasks change threads.
    assert one["router.shards_per_scan"] == 4
    assert one["executor.handoffs_per_scatter"] == 3
    assert one["replication.read.self_us"] == 0  # a layer this shape lacks
    # The evaluation phases attribute the control plane.
    assert one["rest.requests_per_job"] > 0
    assert one["storage.sweep.self_ms_per_job"] > 0
    assert one["sue.mongo.self_ms_per_job"] > one["sue.sweep.self_ms_per_job"]


def test_span_trees_are_well_formed():
    inputs = MixedInputs(3, TOY)
    deployment = phases.set_up(TopologySpec(shards=4), harness.ENGINE_OPTIONS, inputs)
    tracer = Tracer()
    tracer.install(layers.DOCSTORE_LAYERS, carriers=layers.CARRIERS)
    try:
        phases.run_round(deployment.handle, inputs.rounds[0], tracer, Tally())
    finally:
        tracer.uninstall()
        deployment.close()
    spans = tracer.spans
    by_id = {span.id: span for span in spans}
    assert tracer._local.stack == []  # every span on this thread was closed
    assert len(by_id) == len(spans) and all(span.end >= span.start for span in spans)
    fanned_out = set()
    for span in spans:
        if span.parent:
            parent = by_id[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert parent.op == span.op
            if tracer.names[parent.name] == "ShardExecutor.scatter":
                fanned_out.add(span.op)
    own = self_times(spans)
    total: dict[int, float] = {}
    for span in spans:
        total[span.op] = total.get(span.op, 0.0) + own[span.id]
    roots = [span for span in spans if not span.parent]
    assert len(roots) == len(inputs.rounds[0]) and fanned_out
    for root in roots:
        duration = root.end - root.start
        if root.op in fanned_out:  # children overlap: self times exceed the wall
            assert total[root.op] >= duration * 0.99
        else:
            assert total[root.op] == pytest.approx(duration, rel=0.01)


def test_a_planted_wrong_answer_is_caught(tmp_path):
    inputs = MixedInputs(4, TOY)
    perturbed = inputs.stream()
    position = next(index for index, operation in enumerate(perturbed)
                    if operation[0] == UPDATE)
    kind, query, update = perturbed[position]
    field_name = next(iter(update["$set"]))
    perturbed[position] = (kind, query, {"$set": {field_name: "planted"}})
    oracle = Oracle()
    for batch in inputs.batches:
        oracle.load(batch)
    oracle.apply(perturbed)
    tally = Tally()
    harness.run_end_to_end(toy("mixed_standalone"), inputs, tmp_path,
                           MachineProbe(), tally, oracle=oracle)
    assert tally.failed >= 1
    assert any("differs from the oracle" in message for message in tally.messages)


def test_compare_passes_equal_sets_and_fails_a_regression(tmp_path):
    record = cached_toy("mixed_standalone")
    records = [dict(record, workload=entry["name"]) for entry in DECLARED["workloads"]]
    slower = json.loads(json.dumps(records))
    for each in slower:
        each["metrics"]["read_p50_us"]["value"] *= 1.5
        each["metrics"]["throughput_ops_s"]["value"] *= 1.5  # higher is better
    wrong = json.loads(json.dumps(records))
    wrong[0]["failed"] = 1
    paths = {}
    for name, content in (("a", records), ("b", records), ("c", slower),
                          ("d", wrong)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(content), encoding="utf-8")
    lines, summary = compare(paths["a"], paths["b"], DECLARED)
    assert summary["agree"] and lines[-1] == "AGREE"
    lines, summary = compare(paths["a"], paths["c"], DECLARED)
    assert not summary["agree"]
    rows = summary["workloads"]["mixed_sharded"]
    assert not rows["read_p50_us"]["pass"] and rows["throughput_ops_s"]["pass"]
    lines, summary = compare(paths["a"], paths["d"], DECLARED)
    assert not summary["agree"]  # any rise of error_ratio fails
    assert not summary["workloads"][wrong[0]["workload"]]["error_ratio"]["pass"]


def test_benchmark_json_meets_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["per_layer"] == layers.per_layer_declarations()
    assert [entry["name"] for entry in DECLARED["workloads"]] \
        == list(harness.WORKLOADS)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in DECLARED[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names)
    bounds = {metric["name"]: metric["bound"] for metric in DECLARED["end_to_end"]}
    assert bounds.pop("peak_rss_mb") == 0.05
    # Three times the spread of ten runs, capped by the contract (README).
    assert set(bounds.values()) == {0.25}
