"""Tests for table schemas and column types."""

from __future__ import annotations

import pytest

from repro.errors import StorageError, ValidationError
from repro.storage.schema import Column, ColumnType, TableSchema


def make_schema(**kwargs) -> TableSchema:
    defaults = dict(
        name="items",
        columns=[
            Column("id", ColumnType.STRING, nullable=False),
            Column("count", ColumnType.INTEGER, default=0),
            Column("price", ColumnType.FLOAT),
            Column("active", ColumnType.BOOLEAN, default=False),
            Column("payload", ColumnType.JSON),
        ],
        primary_key="id",
    )
    defaults.update(kwargs)
    return TableSchema(**defaults)


class TestColumnType:
    def test_string_accepts_strings_only(self):
        assert ColumnType.STRING.validate("x") == "x"
        with pytest.raises(ValidationError):
            ColumnType.STRING.validate(5)

    def test_integer_rejects_bool_and_float(self):
        assert ColumnType.INTEGER.validate(5) == 5
        with pytest.raises(ValidationError):
            ColumnType.INTEGER.validate(True)
        with pytest.raises(ValidationError):
            ColumnType.INTEGER.validate(5.5)

    def test_float_coerces_int(self):
        assert ColumnType.FLOAT.validate(5) == 5.0
        assert isinstance(ColumnType.FLOAT.validate(5), float)

    def test_boolean_strict(self):
        assert ColumnType.BOOLEAN.validate(True) is True
        with pytest.raises(ValidationError):
            ColumnType.BOOLEAN.validate(1)

    def test_json_accepts_nested_containers(self):
        value = {"a": [1, {"b": None}], "c": "text"}
        assert ColumnType.JSON.validate(value) == value

    def test_json_rejects_non_string_keys_and_objects(self):
        with pytest.raises(ValidationError):
            ColumnType.JSON.validate({1: "x"})
        with pytest.raises(ValidationError):
            ColumnType.JSON.validate({"x": object()})

    def test_none_passes_through(self):
        assert ColumnType.STRING.validate(None) is None


class TestTableSchema:
    def test_rejects_duplicate_columns(self):
        with pytest.raises(StorageError):
            TableSchema("t", [Column("a", ColumnType.STRING),
                              Column("a", ColumnType.STRING)], primary_key="a")

    def test_rejects_unknown_primary_key(self):
        with pytest.raises(StorageError):
            TableSchema("t", [Column("a", ColumnType.STRING)], primary_key="b")

    def test_rejects_unknown_index_column(self):
        with pytest.raises(StorageError):
            make_schema(indexes=["missing"])

    def test_ordered_index_declaration(self):
        schema = make_schema(indexes=["count", ("count", "price"), ("active",)])
        assert schema.indexes[1] == ("count", "price")
        with pytest.raises(StorageError):
            make_schema(indexes=[("count", "missing")])
        with pytest.raises(StorageError):  # a JSON value has no order
            make_schema(indexes=[("count", "payload")])

    def test_json_values_are_copied_in(self):
        payload = {"a": [1, {"b": []}]}
        assert ColumnType.JSON.validate(payload) == payload
        stored = ColumnType.JSON.validate(payload)
        stored["a"][1]["b"].append(2)
        assert payload == {"a": [1, {"b": []}]}

    def test_json_defaults_are_not_shared_between_rows(self):
        schema = make_schema(columns=[Column("id", ColumnType.STRING, nullable=False),
                                      Column("tags", ColumnType.JSON, default=[])])
        first, second = schema.normalise_row({"id": "a"}), schema.normalise_row({"id": "b"})
        first["tags"].append("x")
        assert second["tags"] == [] and schema.column("tags").default == []

    def test_normalise_changes_validates_only_what_it_is_given(self):
        schema = make_schema()
        assert schema.normalise_changes({"price": 2}) == {"price": 2.0}
        with pytest.raises(StorageError):
            schema.normalise_changes({"bogus": 1})
        with pytest.raises(StorageError):
            schema.normalise_changes({"count": "x"})

    def test_normalise_fills_defaults(self):
        schema = make_schema()
        row = schema.normalise_row({"id": "a"})
        assert row["count"] == 0
        assert row["active"] is False
        assert row["price"] is None

    def test_normalise_rejects_unknown_columns(self):
        with pytest.raises(StorageError):
            make_schema().normalise_row({"id": "a", "bogus": 1})

    def test_normalise_rejects_missing_non_nullable(self):
        schema = TableSchema(
            "t",
            [Column("id", ColumnType.STRING, nullable=False),
             Column("name", ColumnType.STRING, nullable=False)],
            primary_key="id",
        )
        with pytest.raises(StorageError):
            schema.normalise_row({"id": "a"})

    def test_normalise_validates_types(self):
        with pytest.raises(StorageError):
            make_schema().normalise_row({"id": "a", "count": "not-a-number"})

    def test_column_lookup(self):
        schema = make_schema()
        assert schema.column("count").type is ColumnType.INTEGER
        with pytest.raises(StorageError):
            schema.column("missing")

    def test_column_order_preserved(self):
        assert [column.name for column in make_schema().columns] == [
            "id", "count", "price", "active", "payload"]
