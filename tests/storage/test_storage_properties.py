"""Property-based tests of the embedded relational store."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.database import Database
from repro.storage.index import OrderedIndex
from repro.storage.query import and_, eq
from repro.storage.schema import Column, ColumnType, TableSchema
from repro.storage.table import Table
from tests.storage.schemas import gt, lte, ne, simple_schema

keys = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
values = st.integers(min_value=-1000, max_value=1000)


def fresh_table() -> Table:
    return Table(TableSchema(
        name="t",
        columns=[Column("id", ColumnType.STRING, nullable=False),
                 Column("value", ColumnType.INTEGER),
                 Column("tag", ColumnType.STRING)],
        primary_key="id",
        indexes=["value", "tag"],
    ))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(keys, values, min_size=0, max_size=30))
def test_table_matches_dict_semantics(data):
    """Inserting a dict's items then selecting must reproduce the dict."""
    table = fresh_table()
    for key, value in data.items():
        table.insert({"id": key, "value": value, "tag": f"t{value % 3}"})
    assert len(table) == len(data)
    for key, value in data.items():
        assert table.get(key)["value"] == value
    # Predicate results agree with a Python-level filter.
    threshold = 0
    expected = {key for key, value in data.items() if value > threshold}
    actual = {row["id"] for row in table.select(gt("value", threshold))}
    assert actual == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(keys, values), min_size=1, max_size=40))
def test_index_consistency_after_updates_and_deletes(operations):
    """Secondary index lookups always agree with a full scan."""
    table = fresh_table()
    live: dict[str, int] = {}
    for key, value in operations:
        if key in live:
            if value % 5 == 0:
                table.delete(key)
                del live[key]
            else:
                table.update(key, {"value": value})
                live[key] = value
        else:
            table.insert({"id": key, "value": value, "tag": "x"})
            live[key] = value
    for key, value in live.items():
        via_index = {row["id"] for row in table.select(eq("value", value))}
        assert key in via_index
        assert all(live[row_id] == value for row_id in via_index)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.one_of(st.none(), values)),
                min_size=0, max_size=60))
def test_ordered_index_prefix_equals_sorted_filter(pairs):
    index = OrderedIndex(("group", "n"))
    for position, pair in enumerate(pairs):
        index.insert(pair, f"row-{position:02d}")
    for group in range(4):
        expected = sorted(
            (number is not None, number or 0, f"row-{position:02d}")
            for position, (owner, number) in enumerate(pairs) if owner == group
        )
        assert list(index.walk((group,))) == [row for *_, row in expected]
        assert index.count((group,)) == len(expected)
    assert index.count() == len(index) == len(pairs)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(keys, values, min_size=1, max_size=20), st.integers(0, 3))
def test_recovery_reproduces_state(tmp_path_factory, data, checkpoint_every):
    """Recovering from snapshot + WAL yields exactly the pre-crash state."""
    directory = tmp_path_factory.mktemp("wal")
    db = Database(directory)
    schema = simple_schema("items", string_columns=["tag"], json_columns=[])
    db.create_table(schema)
    for position, (key, value) in enumerate(sorted(data.items())):
        db.insert("items", {"id": key, "tag": str(value)})
        if checkpoint_every and position % (checkpoint_every + 1) == 0:
            db.checkpoint()
    db.close()

    recovered = Database(directory)
    recovered.create_table(schema)
    recovered.recover()
    assert {row["id"]: row["tag"] for row in recovered.select("items")} == {
        key: str(value) for key, value in data.items()
    }


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(keys, values), min_size=1, max_size=25))
def test_predicate_composition(pairs):
    """and_/lte/gt behave like the equivalent Python filters."""
    table = fresh_table()
    seen = set()
    for key, value in pairs:
        if key in seen:
            continue
        seen.add(key)
        table.insert({"id": key, "value": value, "tag": "x"})
    rows = table.select(and_(gt("value", -10), lte("value", 10)))
    expected = {key for key, value in dict(pairs).items()
                if key in seen and -10 < dict(pairs)[key] <= 10}
    # Build expected from the actual stored values (first insert wins).
    stored = {row["id"]: row["value"] for row in table.select()}
    expected = {key for key, value in stored.items() if -10 < value <= 10}
    assert {row["id"] for row in rows} == expected


# -- nothing a caller holds is part of the store ----------------------------------------

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), values, st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=8)
documents = st.dictionaries(st.text(max_size=2), json_values, max_size=3)

DOCUMENT_SCHEMA = TableSchema(
    name="docs",
    columns=[Column("id", ColumnType.STRING, nullable=False),
             Column("tag", ColumnType.STRING),
             Column("doc", ColumnType.JSON),
             Column("members", ColumnType.JSON, default=[]),
             Column("config", ColumnType.JSON, default={"nested": {"list": []}})],
    primary_key="id",
    indexes=["tag", "doc", ("tag",)],
)


def scribble(value) -> None:
    """Change every container reachable from ``value`` in place."""
    if isinstance(value, dict):
        for item in list(value.values()):
            scribble(item)
        value["scribbled"] = [1]
    elif isinstance(value, list):
        for item in value:
            scribble(item)
        value.append("scribbled")


def observe(db: Database) -> list:
    """Every read path's answer about the table, indexes included."""
    rows = db.select("docs", order_by="id")
    return [
        rows,
        [db.get("docs", row["id"]) for row in rows],
        db.select("docs", eq("tag", "t")),
        db.select("docs", ne("tag", "t")),
        [db.count("docs", eq("doc", row["doc"])) for row in rows],
        [db.count("docs", and_(eq("tag", row["tag"]), eq("doc", row["doc"])))
         for row in rows],
        db.count("docs", eq("tag", "t")),
    ]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), documents, st.booleans()),
                min_size=1, max_size=6))
def test_mutating_arguments_and_results_never_changes_the_store(tmp_path_factory, writes):
    directory = tmp_path_factory.mktemp("boundary")
    db = Database(directory)
    db.create_table(DOCUMENT_SCHEMA)
    held = []  # everything the "caller" still has a reference to
    for key, document, with_defaults in writes:
        row = {"id": key, "tag": "t", "doc": document}
        if not with_defaults:
            row.update(members=[document], config={"doc": document})
        if db.get_or_none("docs", key) is None:
            held += [row, db.insert("docs", row)]
        else:
            changes = {name: value for name, value in row.items() if name != "id"}
            held += [changes, db.update("docs", key, changes)]
    before = observe(db)
    held += observe(db)
    for value in held:
        scribble(value)
    assert observe(db) == before
    # a row that took the defaults after the scribbling gets pristine ones
    db.insert("docs", {"id": "fresh"})
    fresh = db.get("docs", "fresh")
    assert (fresh["members"], fresh["config"]) == ([], {"nested": {"list": []}})
    db.delete("docs", "fresh")
    db.close()

    recovered = Database(directory)
    recovered.create_table(DOCUMENT_SCHEMA)
    recovered.recover()
    assert observe(recovered) == before
    recovered.close()


def test_a_transaction_rollback_restores_json_values_it_does_not_share():
    db = Database()
    db.create_table(DOCUMENT_SCHEMA)
    db.insert("docs", {"id": "a", "doc": {"list": [1]}})
    payload = {"list": [2]}
    try:
        with db.transaction():
            updated = db.update("docs", "a", {"doc": payload})
            payload["list"].append(3)
            updated["doc"]["list"].append(4)
            assert db.get("docs", "a")["doc"] == {"list": [2]}
            raise RuntimeError("abort")
    except RuntimeError:
        pass
    assert db.get("docs", "a")["doc"] == {"list": [1]}
    assert db.count("docs", eq("doc", {"list": [1]})) == 1
