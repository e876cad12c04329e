"""The simulated clock counts integers.

A simulated cost is an ``int`` number of ticks (``cost.TICKS_PER_SECOND``),
so a bill totals the same however it is grouped -- one charge per write, one
per batch, per shard, per thread or per pass -- and two bills that must agree
compare with ``==``.  Pinned here: that property of the accumulator's one
entry point, the one rounding rule at its edges, that no float leaks into a
bill on any deployment shape, and that the accumulator grows no second way
in.
"""

from __future__ import annotations

import inspect
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.client import CollectionHandle, DocumentClient
from repro.docstore.collection import OperationResult
from repro.docstore.cost import (
    CostAccumulator,
    CostParameters,
    TickCosts,
    kilobyte_ticks,
)
from tests.docstore.deployments import engines
from tests.docstore.reference import every_row

CHARGES = st.lists(st.tuples(st.sampled_from(["read", "insert", "scan"]),
                             st.integers(0, 10 ** 13)), max_size=60)


@settings(max_examples=60, deadline=None)
@given(charges=CHARGES, data=st.data())
def test_any_grouping_of_the_same_charges_leaves_the_same_totals(charges, data):
    """One charge each, in order, is the reference; the same charges shuffled,
    cut into groups of ``charge(operation, ticks, count)`` and spread over
    threads leave the same snapshot."""
    reference = CostAccumulator()
    for operation, ticks in charges:
        reference.charge(operation, ticks)

    order = data.draw(st.permutations(range(len(charges))))
    cuts = data.draw(st.lists(st.integers(0, len(charges)), max_size=8))
    bounds = sorted({0, len(charges), *cuts})
    groups = []
    for start, stop in zip(bounds, bounds[1:]):
        per_operation: dict[str, list[int]] = {}
        for index in order[start:stop]:
            operation, ticks = charges[index]
            per_operation.setdefault(operation, []).append(ticks)
        groups += [(operation, sum(ticks), len(ticks))
                   for operation, ticks in per_operation.items()]

    grouped = CostAccumulator()
    threads = data.draw(st.integers(1, 4))
    workers = [threading.Thread(target=lambda share: [grouped.charge(*group)
                                                      for group in share],
                                args=(groups[index::threads],))
               for index in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert grouped.charge("read", 0, 0) == 0  # no operation: nothing recorded
    assert grouped.snapshot() == reference.snapshot()
    assert grouped.totals == reference.totals
    assert grouped.total_seconds == reference.total_seconds


def test_the_rounding_rule_at_its_edges():
    # The default knobs, in seconds, are whole ticks.
    assert TickCosts.of(CostParameters()) == TickCosts(
        base_operation=12_000_000, node_access=1_500_000,
        compression_per_kb=4_000_000, disk_read_per_kb=90_000_000,
        disk_write_per_kb=35_000_000, document_move=150_000_000,
        index_maintenance=6_000_000)
    # A size counts at least 128 bytes: an eighth of a kilobyte.
    assert kilobyte_ticks(0, 4_000_000) == kilobyte_ticks(128, 4_000_000) == 500_000
    # 1,001 bytes at 4 us a kilobyte are 3,910,156.25 ticks; 129 bytes 503,906.25.
    assert kilobyte_ticks(1001, 4_000_000) == 3_910_156
    assert kilobyte_ticks(129, 4_000_000) == 503_906
    # To the nearest tick, a half up.
    assert [kilobyte_ticks(size, 1) for size in (511, 512, 1535, 1536)] == [0, 1, 1, 2]
    # A share of it (mmapv1's page faults): 1/3 and 2/3 of one tick.
    assert kilobyte_ticks(1024, 90_000_000, 1, 3) == 30_000_000
    assert [kilobyte_ticks(1024, 1, share, 3) for share in (1, 2)] == [0, 1]


def test_no_float_enters_a_bill(deployment, monkeypatch):
    """The seeded sequence that calls every client-facing row: every result
    the client is handed, and every engine's totals, are integers."""
    delivered = []
    deliver = CollectionHandle._deliver

    def recording(self, label, query, outcome):
        delivered.append(outcome)
        return deliver(self, label, query, outcome)

    monkeypatch.setattr(CollectionHandle, "_deliver", recording)
    every_row(DocumentClient(deployment).collection("db", "users"), seed=12)
    results = [outcome for outcome in delivered
               if isinstance(outcome, OperationResult)]
    assert len(results) > 50
    assert {type(result.ticks) for result in results} == {int}
    assert {type(cost) for result in results
            for cost in result.shard_costs.values()} <= {int}
    totals = [ticks for engine in engines(deployment, "db", "users")
              for ticks in engine.costs.totals.values()]
    assert totals and {type(ticks) for ticks in totals} == {int}


def test_the_accumulator_has_one_way_in():
    """``charge`` is the only way a cost is recorded; the rest reports."""
    public = {name for name, __ in inspect.getmembers(CostAccumulator)
              if not name.startswith("_")}
    assert public == {"charge", "snapshot", "total_seconds"}
