"""What a run times, one cycle at a time, and the checks on the answers.

Client phases drive one deployment through ``DocumentClient`` from a single
closed-loop thread: **load** (part of set-up), **oltp**, **analytics** and
**profiled**.  Chronos phases drive whole evaluations through the REST edge
on a simulated clock: **mongo** (the paper's demo: a parameter grid of
document-store benchmarks, then the analysis report) and **sweep** (many
trivial jobs, so the control plane is all there is to measure).

The work is fixed and cut into cycles; a cycle holds one slice of every phase
(one round of the operation stream, a few counts, group and top-k pipelines,
some profiled reads, its share of both evaluations' jobs).  Every metric
therefore samples the machine over the whole run instead of the one or two
seconds its phase would last on its own: this sandbox slows down or speeds up
by 20 % for seconds at a time, which a median over cycles ignores and a phase
that falls inside such a stretch cannot.  Times are raw ``perf_counter``
wall-clock.  Each cycle starts with ``gc.collect()``; the collector stays on.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.agent.base import JobContext
from repro.agent.fleet import AgentFleet
from repro.agents.mongo_agent import MongoAgent
from repro.agents.mongodb_agent import register_mongodb_system
from repro.agents.testing import SleepAgent, register_sleep_system
from repro.analysis import report as report_module
from repro.core.control import ChronosControl
from repro.docstore.client import CollectionHandle, DocumentClient
from repro.docstore.topology import TopologySpec, build_topology
from repro.util.clock import SimulatedClock

from perf.inputs import (OLTP_CLASSES, READ, SCAN, SCAN_LIMIT, UPDATE,
                         MixedInputs, Operation)
from perf.layers import Window
from perf.oracle import Oracle
from perf.trace import Tracer

DATABASE = "benchmark"
COLLECTION = "usertable"
SWEEP_WORK_UNITS = 20
CHECK_SAMPLE = 2_000


@dataclass
class Tally:
    """Calls attempted and failed: a raised call, an unfinished job or an
    answer the oracle disagrees with."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(what)


def share(total: int, cycle: int, cycles: int) -> int:
    """How many of ``total`` items fall to ``cycle`` when spread evenly."""
    return (cycle + 1) * total // cycles - cycle * total // cycles


# -- the document-store deployment --------------------------------------------------


@dataclass
class Deployment:
    server: Any
    client: DocumentClient
    handle: CollectionHandle
    setup_seconds: float
    batch_seconds: list[float]

    def close(self) -> None:
        close = getattr(self.server, "close", None)  # sharded clusters only
        if close is not None:
            close()


def set_up(spec: TopologySpec, engine_options: dict[str, Any],
           inputs: MixedInputs,
           pause: Callable[[], None] = lambda: None) -> Deployment:
    """Build, load, index, balance and warm one deployment.

    ``pause`` is called between the steps and is not timed (the run samples
    the machine's speed there).
    """
    gc.collect()
    clock = time.perf_counter
    pause()
    start = clock()
    server = build_topology(spec, **engine_options)
    client = DocumentClient(server)
    handle = client.collection(DATABASE, COLLECTION)
    seconds = clock() - start
    batch_seconds = []
    for batch in inputs.batches:
        pause()
        start = clock()
        handle.insert_many(batch)
        batch_seconds.append(clock() - start)
    pause()
    start = clock()
    handle.create_index("category")
    handle.create_index("counter")
    maintain = getattr(server, "maintain", None)  # sharded clusters only
    if maintain is not None:
        maintain(DATABASE, COLLECTION)
    for query in inputs.warmup_queries:
        handle.find_with_cost(query)
    seconds += sum(batch_seconds) + clock() - start
    pause()
    return Deployment(server, client, handle, seconds, batch_seconds)


# -- client phases -------------------------------------------------------------------


def run_round(handle: CollectionHandle, operations: Sequence[Operation],
              tracer: Tracer, tally: Tally) -> tuple[float, Window]:
    """One round of the operation stream, each call timed.

    Returns the round's wall and what the calls' results said.  ``tracer``
    only receives each operation's class as its label (a traced pass groups
    spans by it; an untraced run passes a tracer that is not installed).
    """
    window = Window()
    find = handle.find_with_cost
    update = handle.update_one
    insert = handle.insert_one
    clock = time.perf_counter
    began = clock()
    for kind, query, argument in operations:
        tracer.label = OLTP_CLASSES[kind]
        try:
            start = clock()
            if kind == READ:
                result = find(query)
            elif kind == UPDATE:
                result = update(query, argument)
            elif kind == SCAN:
                result = find(query, SCAN_LIMIT)
            else:
                result = insert(argument)
            window.note(kind, clock() - start, result)
        except Exception as error:  # counted, and the run exits non-zero
            tally.fail(f"{kind} {query}: {error!r}")
    wall = clock() - began
    tally.attempted += len(operations)
    return wall, window


def timed_calls(call: Callable[[Any], Any], items: Sequence[Any],
                tally: Tally) -> list[float]:
    """``call(item)`` for every item; each call's wall."""
    clock = time.perf_counter
    walls = []
    for item in items:
        start = clock()
        try:
            call(item)
            walls.append(clock() - start)
        except Exception as error:  # counted, and the run exits non-zero
            tally.fail(f"{item}: {error!r}")
    tally.attempted += len(items)
    return walls


class ClientPhases:
    """The oltp, analytics and profiled phases of one deployment."""

    def __init__(self, deployment: Deployment, inputs: MixedInputs, tally: Tally,
                 tracer: Tracer | None = None):
        self._deployment = deployment
        self._inputs = inputs
        self._tally = tally
        self._tracer = Tracer() if tracer is None else tracer
        self.oltp_seconds = 0.0
        self.round_rates: list[float] = []  # operations/s
        #: per operation class, each round's median call
        self.round_medians: list[list[float]] = [[], [], [], []]
        #: every oltp call's wall and what the results said
        self.window = Window()
        #: every analytics call's wall, by class
        self.walls: dict[str, list[float]] = {"count": [], "group": [], "topk": []}
        self.profiled_medians: list[float] = []  # each cycle's median read
        self.profiled_calls = 0

    def oltp(self, cycle: int) -> None:
        operations = self._inputs.rounds[cycle]
        wall, window = run_round(self._deployment.handle, operations,
                                 self._tracer, self._tally)
        self.oltp_seconds += wall
        self.round_rates.append(len(operations) / wall)
        for kind, walls in enumerate(window.walls):
            if walls:
                self.round_medians[kind].append(statistics.median(walls))
        self.window.merge(window)

    def analytics(self, cycle: int) -> None:
        handle, inputs = self._deployment.handle, self._inputs
        for op, call, items in (
                ("count", handle.count_documents, inputs.counts(cycle)),
                ("group", handle.aggregate_with_cost, inputs.groups(cycle)),
                ("topk", handle.aggregate_with_cost, inputs.topks(cycle))):
            self._tracer.label = op
            self.walls[op] += timed_calls(call, items, self._tally)

    def profiled(self, cycle: int) -> None:
        """Point reads with the profiler recording every operation (level 2)."""
        self._tracer.label = "profiled_read"
        self._deployment.client.set_profiling(2, slow_ms=0)
        try:
            walls = timed_calls(self._deployment.handle.find_with_cost,
                                self._inputs.profiled(cycle), self._tally)
        finally:
            self._deployment.client.set_profiling(0)
        self.profiled_calls += len(walls)
        if walls:
            self.profiled_medians.append(statistics.median(walls))


# -- checks against the oracle --------------------------------------------------------


def check_contents(handle: CollectionHandle, oracle: Oracle, tally: Tally) -> None:
    """The deployment's full contents, document for document."""
    stored = handle.find_with_cost({}).documents
    tally.check(len(stored) == len(oracle.documents),
                f"{len(stored)} documents stored, oracle has {len(oracle.documents)}")
    for document in stored:
        tally.check(oracle.documents.get(document["_id"]) == document,
                    f"document {document['_id']!r} differs from the oracle")


def check_answers(handle: CollectionHandle, oracle: Oracle, inputs: MixedInputs,
                  cycles: int, tally: Tally) -> None:
    """A sample of the executed stream's reads and scans, and every analytics
    query of the executed cycles."""
    lookups = [(kind, query) for kind, query, _ in inputs.stream(cycles)
               if kind in (READ, SCAN)]
    rng = random.Random(inputs.stream_sha)
    for kind, query in rng.sample(lookups, min(CHECK_SAMPLE, len(lookups))):
        if kind == READ:
            answer = handle.find_with_cost(query).documents
            expected = oracle.read(query["_id"])
        else:
            answer = handle.find_with_cost(query, SCAN_LIMIT).documents
            expected = oracle.scan(query["_id"]["$gte"])
        tally.check(answer == expected, f"find {query} differs from the oracle")
    counted = [query for cycle in range(cycles) for query in inputs.counts(cycle)]
    for category in sorted({query["category"] for query in counted}):
        tally.check(handle.count_documents({"category": category})
                    == oracle.count(category),
                    f"count of {category} differs from the oracle")
    groups = {row["_id"]: {"count": row["count"], "sum": row["sum"]}
              for row in handle.aggregate_with_cost(inputs.groups(0)[0]).documents}
    tally.check(groups == oracle.group_active(), "group differs from the oracle")
    for cycle in range(cycles):
        for pipeline in inputs.topks(cycle):
            threshold = pipeline[0]["$match"]["counter"]["$gte"]
            tally.check(handle.aggregate_with_cost(pipeline).documents
                        == oracle.topk(threshold),
                        f"top-k from {threshold} differs from the oracle")


# -- Chronos phases ---------------------------------------------------------------------


class ClosingMongoAgent(MongoAgent):
    """Closes the job's deployment, which ``MongoAgent.clean_up`` only drops:
    an idle fan-out worker keeps a dropped cluster alive, so without this
    every sharded job would leave its worker threads behind."""

    def clean_up(self, context: JobContext) -> None:
        benchmark = context.state.get("benchmark")
        super().clean_up(context)
        close = getattr(getattr(benchmark, "server", None), "close", None)
        if close is not None:
            close()


def grid_jobs(grid: dict[str, Any]) -> int:
    """Jobs an experiment with these parameters expands to."""
    jobs = 1
    for value in grid.values():
        if isinstance(value, list):
            jobs *= len(value)
    return jobs


@dataclass
class ControlPlane:
    control: ChronosControl
    mongo_system_id: str
    mongo_deployment_id: str
    mongo_project_id: str
    mongo_fleet: AgentFleet
    sweep_experiment_id: str
    sweep_deployment_id: str
    sweep_fleet: AgentFleet
    setup_seconds: float


def set_up_control(topology: TopologySpec | None, sweep_jobs: int) -> ControlPlane:
    """Chronos Control with both systems, their deployments and projects
    registered and one logged-in agent runner each; timed as a whole.

    ``topology`` is the shape declared on the mongo deployment (``None``: the
    experiment's own parameters decide, which is how the demo sweeps the
    engine).
    """
    began = time.perf_counter()
    control = ChronosControl(clock=SimulatedClock(), create_admin=True)
    admin = control.users.get_by_username("admin")
    mongo = register_mongodb_system(control, owner_id=admin.id)
    mongo_deployment = control.deployments.register(
        mongo.id, name="mongodb-deployment", environment={"host": "node1"},
        version="4.0-sim", topology=topology)
    mongo_project = control.projects.create("storage engines", admin)
    sleep = register_sleep_system(control, owner_id=admin.id)
    sleep_deployment = control.deployments.register(sleep.id, "sleep-deployment")
    sweep_project = control.projects.create("control-plane sweep", admin)
    sweep_experiment = control.experiments.create(
        sweep_project.id, sleep.id, "sweep",
        parameters={"work_units": SWEEP_WORK_UNITS,
                    "payload": list(range(sweep_jobs))})
    mongo_fleet = AgentFleet(control, mongo.id, [mongo_deployment.id],
                             ClosingMongoAgent, clock=control.clock)
    sweep_fleet = AgentFleet(control, sleep.id, [sleep_deployment.id],
                             SleepAgent, clock=control.clock)
    return ControlPlane(control, mongo.id, mongo_deployment.id, mongo_project.id,
                        mongo_fleet, sweep_experiment.id, sleep_deployment.id,
                        sweep_fleet, time.perf_counter() - began)


class ChronosPhases:
    """The mongo and the sweep evaluation of one control plane.

    ``begin`` creates both evaluations, every ``cycle`` drives its share of
    each one's jobs with the fleet's one runner, ``finish`` writes the report
    and checks that every job finished with one result.
    """

    def __init__(self, plane: ControlPlane, mongo_grid: dict[str, Any],
                 sweep_jobs: int, cycles: int, directory: Path, tally: Tally,
                 tracer: Tracer | None = None):
        self._plane = plane
        self._grid = mongo_grid
        self.jobs = {"mongo": grid_jobs(mongo_grid), "sweep": sweep_jobs}
        self._cycles = cycles
        self._directory = directory
        self._tally = tally
        self._tracer = Tracer() if tracer is None else tracer
        #: creation, drives and (mongo) the report, summed
        self.seconds = {"mongo": 0.0, "sweep": 0.0}
        self._evaluation_ids: dict[str, str] = {}

    def _timed(self, phase: str, work: Callable[[], Any]) -> Any:
        self._tracer.label = phase
        start = time.perf_counter()
        result = work()
        self.seconds[phase] += time.perf_counter() - start
        return result

    def begin(self) -> None:
        plane, control = self._plane, self._plane.control

        def create_mongo() -> str:
            experiment = control.experiments.create(
                plane.mongo_project_id, plane.mongo_system_id,
                "wiredTiger vs mmapv1", parameters=self._grid)
            evaluation, _ = control.evaluations.create(
                experiment.id, deployment_ids=[plane.mongo_deployment_id])
            return evaluation.id

        def create_sweep() -> str:
            evaluation, _ = control.evaluations.create(
                plane.sweep_experiment_id,
                deployment_ids=[plane.sweep_deployment_id])
            return evaluation.id

        self._evaluation_ids["mongo"] = self._timed("mongo", create_mongo)
        self._evaluation_ids["sweep"] = self._timed("sweep", create_sweep)

    def cycle(self, cycle: int) -> None:
        for phase, fleet in (("mongo", self._plane.mongo_fleet),
                             ("sweep", self._plane.sweep_fleet)):
            runner, = fleet.runners
            for _ in range(share(self.jobs[phase], cycle, self._cycles)):
                self._tally.check(self._timed(phase, runner.run_one),
                                  f"no {phase} job left to claim")

    def finish(self) -> None:
        control = self._plane.control
        evaluation_id = self._evaluation_ids["mongo"]

        def write_report() -> tuple[Any, Path]:
            report = report_module.evaluation_report(control, evaluation_id)
            return report, report.write(self._directory)

        report, markdown = self._timed("mongo", write_report)
        self._tally.check(markdown.stat().st_size > 0, "the report is empty")
        diagrams = list(self._directory.glob(f"{evaluation_id}-*.svg"))
        self._tally.check(len(diagrams) == len(report.diagrams) > 0,
                          f"{len(diagrams)} diagram files for "
                          f"{len(report.diagrams)} diagrams")
        for phase, evaluation_id in self._evaluation_ids.items():
            jobs = control.evaluations.jobs(evaluation_id)
            self._tally.check(len(jobs) == self.jobs[phase],
                              f"{len(jobs)} {phase} jobs, expected {self.jobs[phase]}")
            for job in jobs:
                self._tally.check(job.status.value == "finished",
                                  f"job {job.id} is {job.status.value}")
            results = control.results.for_jobs([job.id for job in jobs])
            self._tally.check(len(results) == len(jobs),
                              f"{len(results)} results for {len(jobs)} {phase} jobs")
