"""E16 -- observability overhead: what the wired-but-off profiler costs.

PR 8 threads a profiler gate through every hot-path operation.  E16 measures
what that gate costs on the most sensitive phase -- zipfian point reads on a
standalone server -- under two configurations:

* ``disabled`` -- the collection's profiler reference removed entirely
  (the pre-PR hot path: no gate target, one ``None`` check),
* ``level0``   -- the shipped default: profiler wired but off, so every
  operation pays exactly one attribute load and one branch.

The overhead is *reported*, not gated.  That observability off is free
(PR 8's acceptance criterion) is pinned without a clock: a warm point read at
level 0 raises exactly the Python calls of one with no profiler at all
(``tests/docstore/test_call_budget.py``).  As a wall-clock gate (at most +5 %)
the figure read +10.08 % and +5.21 % in two PRs that had not touched the path,
while reruns of their parents scattered from -23 % to +2 %: the two
configurations differ by less than the clock resolves, so the exit code no
longer depends on it.  What full profiling costs is ``profiled_read_p50_us``
against ``read_p50_us`` in ``benchmarks/perf`` (and, in calls, the level-2
row of the same test); the slow-op log's shape is pinned by
``tests/docstore/test_observability.py``.

CI smoke run::

    python benchmarks/bench_observability.py --smoke
"""

from __future__ import annotations

import random
from typing import Any

import scaffold  # first: it puts src/ on sys.path
from repro.docstore.client import DocumentClient
from repro.docstore.server import DocumentServer
from repro.workloads.distributions import make_distribution
from repro.workloads.generator import RecordGenerator

SIZES = {
    "smoke": {"records": 2_000, "operations": 10_000},
    "full": {"records": 20_000, "operations": 50_000},
}
ROUNDS = 3
CONFIGS = ("disabled", "level0")


def _build(records: int, seed: int) -> tuple[DocumentServer, Any, list[str]]:
    """One loaded standalone server plus the pre-generated read keys."""
    server = DocumentServer("wiredtiger")
    handle = DocumentClient(server).collection("benchmark", "usertable")
    generator = RecordGenerator(field_count=10, field_length=100)
    rng = random.Random(seed)
    scaffold.load(handle, [generator.record(index, rng)
                           for index in range(records)])
    distribution = make_distribution("zipfian", records)
    keys = [generator.key(distribution.next_key(rng)) for __ in range(records)]
    return server, handle, keys


def run(records: int, operations: int, seed: int = 42) -> dict[str, Any]:
    server, handle, keys = _build(records, seed)
    server.set_profiling(0)

    def read_rate(config: str) -> float:
        # "disabled" is the pre-PR hot path: no profiler object at all on
        # the collection.
        handle._target.profiler = None if config == "disabled" else server.profiler
        return scaffold.timed(
            operations,
            lambda index: handle.find_with_cost({"_id": keys[index % len(keys)]})
        )["ops_per_sec"]

    best = scaffold.best_rates(ROUNDS, CONFIGS, read_rate)
    overhead = ((best["disabled"] - best["level0"]) / best["disabled"]
                if best["disabled"] > 0 else 0.0)
    return {
        "benchmark": EXPERIMENT.id,
        "records": records,
        "operations": operations,
        "rounds": ROUNDS,
        "read_ops_per_sec": best,
        "level0_overhead": round(overhead, 4),
    }


EXPERIMENT = scaffold.Experiment(
    id="E16_observability",
    summary=__doc__.split("\n")[0],
    sizes=SIZES,
    run=run,
    gates=[],  # reported only: see the module docstring
    intro=lambda report: (
        f"{report['operations']} zipfian point reads over {report['records']} "
        f"records per configuration, best of {report['rounds']} interleaved "
        f"rounds; level-0 overhead {report['level0_overhead']:+.2%}."),
    tables=lambda report: [
        ("", ["profiler", "reads ops/s"],
         [[config, f"{rate:,.0f}"]
          for config, rate in report["read_ops_per_sec"].items()])],
)

if __name__ == "__main__":
    raise SystemExit(EXPERIMENT.main())
