"""Tests for the hash and ordered secondary index structures, and for the
table's use of them (an index answer == the brute-force one)."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConflictError
from repro.storage.index import HashIndex, OrderedIndex, sort_key
from repro.storage.query import Predicate, and_, eq
from repro.storage.schema import Column, ColumnType, TableSchema
from repro.storage.table import Table
from tests.storage.schemas import gt


class TestHashIndex:
    def test_insert_and_lookup(self):
        index = HashIndex("status")
        index.insert("scheduled", "a")
        index.insert("scheduled", "b")
        assert index.lookup("scheduled") == {"a", "b"}
        assert index.lookup("running") == set()

    def test_remove(self):
        index = HashIndex("status")
        index.insert("x", "a")
        index.remove("x", "a")
        assert index.lookup("x") == set()
        index.remove("x", "a")  # removing twice is a no-op

    def test_unique_violation(self):
        index = HashIndex("username", unique=True)
        index.insert("alice", "u1")
        with pytest.raises(ConflictError):
            index.insert("alice", "u2")

    def test_unique_same_row_reinsert_allowed(self):
        index = HashIndex("username", unique=True)
        index.insert("alice", "u1")
        index.insert("alice", "u1")
        assert index.lookup("alice") == {"u1"}

    def test_unhashable_values_are_normalised(self):
        index = HashIndex("payload")
        index.insert({"a": [1, 2]}, "r1")
        assert index.lookup({"a": [1, 2]}) == {"r1"}

    def test_bucket_keeps_insertion_order(self):
        index = HashIndex("status")
        for key in ["job-3", "job-1", "job-2", "job-1"]:
            index.insert("scheduled", key)
        index.remove("scheduled", "job-3")
        index.insert("scheduled", "job-3")
        assert list(index.lookup("scheduled")) == ["job-1", "job-2", "job-3"]

    def test_len_counts_entries(self):
        index = HashIndex("x")
        index.insert(1, "a")
        index.insert(1, "b")
        index.insert(2, "c")
        assert len(index) == 3


class TestOrderedIndex:
    def test_one_column_walks_in_value_then_key_order(self):
        index = OrderedIndex(("priority",))
        for value in [5, 1, 3, 1]:
            index.insert((value,), f"row-{value}-{len(index)}")
        assert list(index.walk()) == ["row-1-1", "row-1-3", "row-3-2", "row-5-0"]
        assert list(index.walk((1,))) == ["row-1-1", "row-1-3"]
        assert index.count((1,)) == 2 and index.count((2,)) == 0 and index.count() == 4

    def test_prefix_is_one_slice_ordered_by_the_next_column(self):
        index = OrderedIndex(("system", "status", "created"))
        index.insert(("s1", "scheduled", 2.0), "job-2")
        index.insert(("s1", "scheduled", 1.0), "job-9")
        index.insert(("s1", "running", 0.0), "job-1")
        index.insert(("s2", "scheduled", 0.0), "job-3")
        index.insert(("s1", "scheduled", 2.0), "job-1b")
        assert list(index.walk(("s1", "scheduled"))) == ["job-9", "job-1b", "job-2"]
        assert list(index.walk(("s1",))) == ["job-1", "job-9", "job-1b", "job-2"]
        assert index.count(("s1", "scheduled")) == 3
        assert index.count(("s1", "scheduled", 2.0)) == 2
        assert index.count(("s3",)) == 0

    def test_remove(self):
        index = OrderedIndex(("priority",))
        index.insert((1,), "a")
        index.insert((2,), "b")
        index.remove((1,), "a")
        index.remove((1,), "a")  # removing twice is a no-op
        assert list(index.walk()) == ["b"]
        assert len(index) == 1

    def test_null_is_a_value_that_sorts_first(self):
        index = OrderedIndex(("owner", "priority"))
        index.insert(("x", 3), "a")
        index.insert(("x", None), "b")
        index.insert((None, 1), "c")
        assert list(index.walk()) == ["c", "b", "a"]
        assert list(index.walk(("x", None))) == ["b"]
        assert index.count((None,)) == 1

    def test_integer_row_keys_come_back_as_they_went_in(self):
        index = OrderedIndex(("tag",))
        for key in (10, 9, 100):
            index.insert(("t",), key)
        assert list(index.walk(("t",))) == [9, 10, 100]

    def test_walk_is_lazy(self):
        index = OrderedIndex(("tag",))
        for key in range(1000):
            index.insert(("t",), key)
        walk = index.walk(("t",))
        assert iter(walk) is walk and next(walk) == 0 and next(walk) == 1


class Examined(Predicate):
    """Matches every row and counts them: first in an ``and_``, it counts the
    rows a query looks at without hiding the other terms from the planner."""

    def __init__(self):
        self.rows = 0

    def matches(self, row):
        self.rows += 1
        return True


def job_table() -> Table:
    return Table(TableSchema(
        name="jobs",
        columns=[Column("id", ColumnType.STRING, nullable=False),
                 Column("system", ColumnType.STRING),
                 Column("status", ColumnType.STRING),
                 Column("created", ColumnType.FLOAT),
                 Column("pin", ColumnType.STRING),
                 Column("payload", ColumnType.JSON, default={})],
        primary_key="id",
        indexes=["status", "pin", ("system", "status", "created"), ("pin", "status")],
    ))


def brute_force(rows: dict, predicate, order_by=None, limit=None):
    """What ``select`` has to return, from nothing but the rows."""
    matching = [row for row in rows.values() if predicate.matches(row)]
    if order_by is not None:
        matching.sort(key=lambda row: (sort_key(row[order_by]), row["id"]))
    return matching if limit is None else matching[:limit]


class TestTableAgainstBruteForce:
    SYSTEMS = ["s1", "s2"]
    STATUSES = ["scheduled", "running", "finished"]
    PINS = [None, "d1", "d2"]

    @pytest.mark.parametrize("seed", range(12))
    def test_prefix_walks_and_counts_under_random_writes(self, seed):
        rng = random.Random(seed)
        table, rows = job_table(), {}
        for step in range(250):
            action = rng.random()
            if action < 0.45 or not rows:
                key = f"job-{step:04d}"
                row = {"id": key, "system": rng.choice(self.SYSTEMS),
                       "status": rng.choice(self.STATUSES),
                       # few distinct values: duplicate leading *and* next columns
                       "created": rng.choice([None, 0.0, 1.0, 2.0]),
                       "pin": rng.choice(self.PINS), "payload": {"n": step}}
                table.insert(row)
                rows[key] = row
            elif action < 0.85:
                key = rng.choice(sorted(rows))
                changes = rng.choice([
                    {"status": rng.choice(self.STATUSES)},       # a middle column
                    {"created": rng.choice([None, 0.0, 3.0])},   # only the last one
                    {"pin": rng.choice(self.PINS)},              # another index's lead
                    {"payload": {"n": -step}},                   # no indexed column
                    {"system": rng.choice(self.SYSTEMS), "status": "scheduled"},
                ])
                table.update(key, changes)
                rows[key] = {**rows[key], **changes}
            else:
                key = rng.choice(sorted(rows))
                table.delete(key)
                del rows[key]
            if step % 10:
                continue
            for system in self.SYSTEMS:
                for status in self.STATUSES:
                    both = and_(eq("system", system), eq("status", status))
                    assert table.count(both) == len(brute_force(rows, both))
                    for limit in (None, 1, 3):
                        assert table.select(both, order_by="created", limit=limit) \
                            == brute_force(rows, both, "created", limit)
                    pinned = and_(both, eq("pin", None))
                    assert table.select(pinned, order_by="created", limit=1) \
                        == brute_force(rows, pinned, "created", 1)
                    assert table.count(pinned) == len(brute_force(rows, pinned))
                lead = eq("system", system)
                assert table.count(lead) == len(brute_force(rows, lead))
                assert table.select(lead, order_by="status") \
                    == brute_force(rows, lead, "status")
                assert table.select(lead, order_by="created", limit=2) \
                    == brute_force(rows, lead, "created", 2)
            for pin in self.PINS:
                for status in self.STATUSES:
                    both = and_(eq("pin", pin), eq("status", status))
                    assert table.count(both) == len(brute_force(rows, both))
                    assert sorted(row["id"] for row in table.select(both)) \
                        == sorted(row["id"] for row in brute_force(rows, both))
        assert len(table) == len(rows)

    def test_an_ordered_walk_with_a_limit_examines_and_copies_that_many(self):
        table = job_table()
        for n in range(300):
            table.insert({"id": f"job-{n:04d}", "system": "s1", "status": "scheduled",
                          "created": float(n // 7), "pin": "d2" if n < 5 else None})
        examined = Examined()
        queue = and_(examined, eq("system", "s1"), eq("status", "scheduled"))
        assert [row["id"] for row in table.select(queue, order_by="created", limit=1)] \
            == ["job-0000"]
        assert examined.rows == 1
        # a residual term costs the rows it turns down, not the table
        examined = Examined()
        unpinned = and_(examined, eq("system", "s1"), eq("status", "scheduled"),
                        eq("pin", None))
        assert [row["id"] for row in table.select(unpinned, order_by="created", limit=2)] \
            == ["job-0005", "job-0006"]
        assert examined.rows == 7

    def test_count_on_an_index_prefix_touches_no_row(self):
        table = job_table()
        for n in range(50):
            table.insert({"id": f"job-{n:04d}", "system": "s1",
                          "status": "scheduled" if n % 5 else "running",
                          "created": 0.0, "pin": None})
        table._rows = None  # an index-only answer never gets here
        assert table.count(and_(eq("system", "s1"), eq("status", "running"))) == 10
        assert table.count(eq("system", "s1")) == 50
        assert table.count(eq("status", "scheduled")) == 40  # the hash bucket's size
        assert table.count(and_(eq("pin", None), eq("status", "running"))) == 10
        with pytest.raises(AttributeError):
            table.count(and_(eq("system", "s1"), gt("created", -1.0)))  # has to look

    def test_the_smallest_bucket_is_the_one_read(self):
        table = Table(TableSchema(
            name="events",
            columns=[Column("id", ColumnType.STRING, nullable=False),
                     Column("entity_type", ColumnType.STRING),
                     Column("entity_id", ColumnType.STRING)],
            primary_key="id", indexes=["entity_id", "entity_type"]))
        for n in range(200):
            table.insert({"id": f"e{n}", "entity_type": "job", "entity_id": f"job-{n % 20}"})
        for terms in ([eq("entity_type", "job"), eq("entity_id", "job-3")],
                      [eq("entity_id", "job-3"), eq("entity_type", "job")]):
            examined = Examined()
            assert len(table.select(and_(examined, *terms))) == 10
            assert examined.rows == 10

    def test_an_update_re_indexes_only_what_it_changed(self, monkeypatch):
        table = job_table()
        table.insert({"id": "job-1", "system": "s1", "status": "running",
                      "created": 0.0, "pin": "d1"})
        moved = []
        for index in [*table._hash_indexes.values(), *table._ordered_indexes]:
            name = getattr(index, "column", None) or index.columns
            monkeypatch.setattr(index, "remove",
                                lambda *args, name=name: moved.append(name))
        table.update("job-1", {"payload": {"tick": 1}, "created": 0.0})
        assert moved == []
        table.update("job-1", {"status": "finished"})
        assert moved == ["status", ("system", "status", "created"), ("pin", "status")]
