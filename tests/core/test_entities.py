"""Every entity class is its table: what holds for one holds for all of them.

The tests read the field lists from the classes, as the store does -- none is
restated here.  Values are drawn from each field's annotation.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, fields
from enum import Enum
from types import NoneType, UnionType
from typing import Any, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entities import DEFAULT_MAX_ATTEMPTS, ENTITIES, Job
from repro.core.enums import JobStatus
from repro.core.repository import Repository
from repro.core.schema import ALL_TABLES
from repro.errors import NotFoundError, StorageError
from repro.storage.database import Database

SCALARS = {str: st.text(max_size=8), int: st.integers(), bool: st.booleans(),
           float: st.floats(allow_nan=False)}
JSON = st.recursive(
    st.none() | st.one_of(*SCALARS.values()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(SCALARS[str], inner, max_size=3),
    max_leaves=6)

per_entity = pytest.mark.parametrize("entity", ENTITIES, ids=lambda entity: entity.__name__)


def values_of(annotation) -> st.SearchStrategy:
    """Values a field annotated ``annotation`` may hold."""
    if annotation is Any:
        return JSON
    if annotation is NoneType:
        return st.none()
    if isinstance(annotation, UnionType):
        return st.one_of(*map(values_of, get_args(annotation)))
    if get_origin(annotation) is list:
        return st.lists(values_of(get_args(annotation)[0]), max_size=3)
    if get_origin(annotation) is dict:
        return st.dictionaries(SCALARS[str], values_of(get_args(annotation)[1]), max_size=3)
    if issubclass(annotation, Enum):
        return st.sampled_from(annotation)
    return SCALARS[annotation]


def column_names(entity) -> list[str]:
    return [column.name for column in entity.schema.columns]


def instances(entity) -> st.SearchStrategy:
    return st.builds(entity, **{name: values_of(annotation)
                                for name, annotation in get_type_hints(entity).items()
                                if name in column_names(entity)})


def stored(entity) -> tuple[Database, Repository]:
    database = Database()
    database.create_table(entity.schema)
    return database, Repository(database, entity)


def default_of(spec):
    return spec.default if spec.default_factory is MISSING else spec.default_factory()


def test_the_tables_are_the_entities():
    assert [schema.name for schema in ALL_TABLES] == [entity.table for entity in ENTITIES]
    for entity in ENTITIES:
        assert column_names(entity) == [spec.name for spec in fields(entity)]
        assert entity.schema.primary_key == "id"


@per_entity
@settings(max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_row_round_trip(entity, data):
    instance = data.draw(instances(entity))
    row = instance.to_row()
    assert list(row) == column_names(entity)
    assert not any(isinstance(value, Enum) for value in row.values())
    assert entity.from_row(row) == instance


@per_entity
@settings(max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_round_trip_through_the_store(entity, data):
    instance = data.draw(instances(entity))
    database, repository = stored(entity)
    repository.add(instance)
    read = repository.get(instance.id)
    assert read == instance and read == entity.from_row(database.get(entity.table, instance.id))
    for spec in fields(entity):
        value = getattr(read, spec.name)
        if isinstance(value, Enum):
            assert value is getattr(instance, spec.name)
        if isinstance(value, (dict, list)):  # equal, but the store's own copy
            assert value is not getattr(instance, spec.name)
            assert value is not getattr(repository.get(instance.id), spec.name)


@per_entity
@settings(max_examples=2, deadline=None, database=None)
@given(data=st.data())
def test_a_null_reads_back_as_the_fields_default(entity, data):
    row = data.draw(instances(entity)).to_row()
    nullable = [spec for spec in fields(entity) if entity.schema.column(spec.name).nullable]
    row.update({spec.name: None for spec in nullable})
    database, repository = stored(entity)
    database.insert(entity.table, row)
    read = repository.get(row["id"])
    assert all(getattr(read, spec.name) == default_of(spec) for spec in nullable)


@per_entity
@settings(max_examples=2, deadline=None, database=None)
@given(data=st.data())
def test_the_store_refuses_what_the_class_does_not_declare(entity, data):
    row = data.draw(instances(entity)).to_row()
    database, _ = stored(entity)
    for column in entity.schema.columns:
        if not column.nullable:
            with pytest.raises(StorageError):
                database.insert(entity.table, {**row, column.name: None})
    with pytest.raises(StorageError):
        database.insert(entity.table, {**row, "no_such_column": 1})
    assert database.count(entity.table) == 0


@per_entity
def test_a_missing_row_is_named_after_the_class(entity):
    noun = " ".join(re.findall("[A-Z][a-z]+", entity.__name__)).lower()
    _, repository = stored(entity)
    for lookup in (repository.get, repository.delete, lambda key: repository.update(key, {})):
        with pytest.raises(NotFoundError, match=f"^{noun} 'missing' does not exist$"):
            lookup("missing")


class TestEnumBehaviour:
    def test_job_status_active_flag(self):
        assert JobStatus.SCHEDULED.is_active and JobStatus.RUNNING.is_active
        assert not JobStatus.FINISHED.is_active

    def test_row_defaults_tolerate_missing_optionals(self):
        row = Job(id="j", evaluation_id="e", system_id="s").to_row()
        row["progress"] = None
        row["attempts"] = None
        row["max_attempts"] = None
        restored = Job.from_row(row)
        assert restored.progress == 0 and restored.max_attempts == DEFAULT_MAX_ATTEMPTS == 3
