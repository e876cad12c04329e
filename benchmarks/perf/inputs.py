"""Seeded inputs: everything a workload feeds the program, made before timing.

The same ``seed`` gives the same records, operation stream, analytics queries
and evaluation parameters.  The program under test only ever sees these
values -- never the seed, never the workload's name.

A run is ``cycles`` cycles; each cycle has one round of the operation stream,
its share of every analytics query list and its share of the reads replayed
with the profiler on.  Every run executes exactly this, so every run leaves
the deployment in the same state.  ``stream_sha`` is the hash of everything
generated.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any

from repro.workloads.distributions import make_distribution
from repro.workloads.generator import RecordGenerator

READ, UPDATE, INSERT, SCAN = range(4)
OLTP_CLASSES = ("read", "update", "insert", "scan")
ANALYTICS_CLASSES = ("count", "group", "topk")

#: 70 % point reads, 20 % single-field ``$set``, 5 % inserts, 5 % limit-10
#: range scans (cumulative thresholds for one uniform draw).
MIX = ((0.70, READ), (0.90, UPDATE), (0.95, INSERT), (1.00, SCAN))
SCAN_LIMIT = 10
TOPK = 10

GROUP_PIPELINE = [
    {"$match": {"active": True}},
    {"$group": {"_id": "$category", "count": {"$sum": 1},
                "sum": {"$sum": "$counter"}}},
]

#: One operation: its class, the query document, and the update document
#: (``UPDATE``) or the new record (``INSERT``).
Operation = tuple[int, dict[str, Any], dict[str, Any] | None]


@dataclass(frozen=True)
class Sizes:
    """How much data and work a workload uses (README: "Sizes and why").

    The defaults are the ``mixed_*`` sizes; per-cycle figures times 12 cycles
    give 120,000 operations, 48 counts, 24 group pipelines, 1,200 top-k
    pipelines and 24,000 profiled reads.
    """

    records: int = 20_000
    load_batch: int = 1_000
    warmup_reads: int = 2_000
    cycles: int = 12
    round_ops: int = 10_000
    counts: int = 4
    groups: int = 2
    topks: int = 100
    profiled_reads: int = 2_000
    #: parameters of the mongo experiment (lists are swept: one job per
    #: combination) and the jobs of the sleep-system sweep
    mongo_grid: dict[str, Any] = field(default_factory=dict)
    sweep_jobs: int = 96


class _Records(RecordGenerator):
    """The repo's generator with each payload drawn in one call: records of
    the same shape in a tenth of the time, which every run pays."""

    def _payload(self, rng: random.Random) -> str:
        return f"{rng.getrandbits(4 * self.field_length):0{self.field_length}x}"


def topk_pipeline(threshold: int) -> list[dict[str, Any]]:
    return [{"$match": {"counter": {"$gte": threshold}}},
            {"$sort": {"counter": 1}}, {"$limit": TOPK}]


class MixedInputs:
    """Records, operation rounds and analytics queries for one seed."""

    def __init__(self, seed: int, sizes: Sizes):
        self.sizes = sizes
        self._generator = _Records(field_count=10, field_length=100)
        records_rng = random.Random(f"{seed}/records")
        self.batches: list[list[dict[str, Any]]] = [
            [self._generator.record(index, records_rng)
             for index in range(start, min(start + sizes.load_batch, sizes.records))]
            for start in range(0, sizes.records, sizes.load_batch)]

        self._ops_rng = random.Random(f"{seed}/operations")
        self._distribution = make_distribution("zipfian", sizes.records)
        self._inserted = sizes.records
        self.rounds: list[list[Operation]] = [
            [self._operation() for _ in range(sizes.round_ops)]
            for _ in range(sizes.cycles)]

        queries_rng = random.Random(f"{seed}/queries")
        #: the only evaluation parameter drawn per seed: the SuE's own rng seed
        self.sue_seed = queries_rng.randrange(1, 2 ** 31)
        self.warmup_queries = [self._id_query(queries_rng)
                               for _ in range(sizes.warmup_reads)]
        # Every category in turn (in a seeded order), so the share of a
        # count's documents still cached from the last visit is the same
        # whatever the seed.
        categories = list(range(self._generator.categories))
        queries_rng.shuffle(categories)
        self.count_queries = [
            {"category": f"cat{categories[index % len(categories)]}"}
            for index in range(sizes.cycles * sizes.counts)]
        self.topk_thresholds = [queries_rng.randrange(sizes.records)
                                for _ in range(sizes.cycles * sizes.topks)]
        self.stream_sha = self._sha()

    def _id_query(self, rng: random.Random) -> dict[str, Any]:
        key = self._distribution.next_key(rng)
        return {"_id": self._generator.key(key)}

    def _operation(self) -> Operation:
        rng = self._ops_rng
        draw = rng.random()
        kind = next(kind for threshold, kind in MIX if draw < threshold)
        if kind == INSERT:
            record = self._generator.record(self._inserted, rng)
            self._inserted += 1
            return (INSERT, {"_id": record["_id"]}, record)
        query = self._id_query(rng)
        if kind == UPDATE:
            return (UPDATE, query, self._generator.update_fragment(rng))
        if kind == SCAN:
            return (SCAN, {"_id": {"$gte": query["_id"]}}, None)
        return (READ, query, None)

    # -- one cycle's share of each query list ---------------------------------------

    def counts(self, cycle: int) -> list[dict[str, Any]]:
        width = self.sizes.counts
        return self.count_queries[cycle * width:(cycle + 1) * width]

    def groups(self, cycle: int) -> list[list[dict[str, Any]]]:
        return [GROUP_PIPELINE] * self.sizes.groups

    def topks(self, cycle: int) -> list[list[dict[str, Any]]]:
        width = self.sizes.topks
        return [topk_pipeline(threshold) for threshold in
                self.topk_thresholds[cycle * width:(cycle + 1) * width]]

    def profiled(self, cycle: int) -> list[dict[str, Any]]:
        """The round's first point reads, replayed with the profiler on."""
        reads = [query for kind, query, _ in self.rounds[cycle] if kind == READ]
        return reads[:self.sizes.profiled_reads]

    def stream(self, cycles: int | None = None) -> list[Operation]:
        """The operation stream of the first ``cycles`` cycles as one list."""
        return [operation for operations in self.rounds[:cycles]
                for operation in operations]

    def _sha(self) -> str:
        digest = hashlib.sha256()
        for part in (self.batches, self.rounds, self.warmup_queries,
                     self.count_queries, self.topk_thresholds, self.sue_seed):
            digest.update(json.dumps(part, sort_keys=True).encode("utf-8"))
        return digest.hexdigest()
