"""Tests for parameter types and evaluation-space expansion."""

from __future__ import annotations

import pytest

from repro.core.enums import ParameterKind
from repro.core.parameters import (
    ParameterDefinition,
    checkbox,
    evaluation_space_size,
    expand_parameter_space,
    interval,
    parse_interval,
    parse_ratio,
    ratio,
    resolve_assignments,
    value,
)
from repro.errors import ValidationError


class TestDefinitions:
    def test_factories_set_kind(self):
        assert checkbox("c", ["x"]).kind is ParameterKind.CHECKBOX
        assert value("v").kind is ParameterKind.VALUE
        assert interval("i").kind is ParameterKind.INTERVAL
        assert ratio("r").kind is ParameterKind.RATIO

    def test_round_trip_dict(self):
        definition = checkbox("engine", ["a", "b"], description="d")
        assert ParameterDefinition.from_dict(definition.to_dict()) == definition


class TestIntervalParsing:
    def test_linear_interval(self):
        assert parse_interval({"start": 1, "stop": 5, "step": 2}) == [1, 3, 5]

    def test_geometric_interval(self):
        assert parse_interval({"start": 1, "stop": 16, "step": 2,
                               "scale": "geometric"}) == [1, 2, 4, 8, 16]

    def test_single_value_interval(self):
        assert parse_interval({"start": 3, "stop": 3, "step": 1}) == [3]

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ValidationError):
            parse_interval({"start": 1, "stop": 5})
        with pytest.raises(ValidationError):
            parse_interval({"start": 1, "stop": 5, "step": 0})
        with pytest.raises(ValidationError):
            parse_interval({"start": 1, "stop": 5, "step": 1, "scale": "geometric"})
        with pytest.raises(ValidationError):
            parse_interval({"start": 5, "stop": 1, "step": 1})


class TestRatioParsing:
    def test_parse_and_normalise(self):
        assert parse_ratio("95:5") == (0.95, 0.05)
        assert parse_ratio("1:1") == (0.5, 0.5)
        assert parse_ratio("50:30:20") == (0.5, 0.3, 0.2)

    @pytest.mark.parametrize("bad", ["", "95", "a:b", "0:0", 95])
    def test_invalid_ratios_rejected(self, bad):
        with pytest.raises(ValidationError):
            parse_ratio(bad)


class TestResolveAssignments:
    DEFINITIONS = [
        checkbox("engine", ["wt", "mmap"]),
        interval("threads"),
        value("records", default=100),
        ParameterDefinition("journal", ParameterKind.BOOLEAN, default=False),
        ratio("mix"),
    ]

    def test_full_resolution(self):
        assignments = resolve_assignments(self.DEFINITIONS, {
            "engine": ["wt", "mmap"],
            "threads": {"start": 1, "stop": 4, "step": 1},
            "mix": "95:5",
        })
        by_name = {a.definition.name: a.values for a in assignments}
        assert by_name["engine"] == ["wt", "mmap"]
        assert by_name["threads"] == [1, 2, 3, 4]
        assert by_name["records"] == [100]
        assert by_name["journal"] == [False]
        assert by_name["mix"] == ["95:5"]

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError):
            resolve_assignments(self.DEFINITIONS, {"bogus": 1, "engine": "wt",
                                                   "threads": 1, "mix": "1:1"})

    def test_missing_required_parameter_rejected(self):
        with pytest.raises(ValidationError):
            resolve_assignments(self.DEFINITIONS, {"engine": "wt", "threads": 1})

    def test_checkbox_value_must_be_an_option(self):
        with pytest.raises(ValidationError):
            resolve_assignments(self.DEFINITIONS, {
                "engine": "rocksdb", "threads": 1, "mix": "1:1"})

    def test_boolean_values_validated(self):
        with pytest.raises(ValidationError):
            resolve_assignments(self.DEFINITIONS, {
                "engine": "wt", "threads": 1, "mix": "1:1", "journal": "yes"})

    def test_boolean_sweep_allowed(self):
        assignments = resolve_assignments(self.DEFINITIONS, {
            "engine": "wt", "threads": 1, "mix": "1:1", "journal": [True, False]})
        by_name = {a.definition.name: a.values for a in assignments}
        assert by_name["journal"] == [True, False]

    def test_interval_accepts_explicit_list(self):
        assignments = resolve_assignments(self.DEFINITIONS, {
            "engine": "wt", "threads": [1, 7, 13], "mix": "1:1"})
        by_name = {a.definition.name: a.values for a in assignments}
        assert by_name["threads"] == [1, 7, 13]

    def test_optional_parameter_without_default(self):
        definitions = [value("note", required=False)]
        assignments = resolve_assignments(definitions, {})
        assert assignments[0].values == [None]


class TestExpansion:
    def test_cartesian_product(self):
        definitions = [checkbox("engine", ["a", "b"]), value("threads")]
        assignments = resolve_assignments(definitions, {"engine": ["a", "b"],
                                                        "threads": [1, 2, 3]})
        space = expand_parameter_space(assignments)
        assert len(space) == 6
        assert {"engine": "a", "threads": 2} in space
        assert evaluation_space_size(assignments) == 6

    def test_expansion_order_is_deterministic(self):
        definitions = [checkbox("engine", ["a", "b"]), value("threads")]
        assignments = resolve_assignments(definitions, {"engine": ["a", "b"],
                                                        "threads": [1, 2]})
        space = expand_parameter_space(assignments)
        assert space == [
            {"engine": "a", "threads": 1},
            {"engine": "a", "threads": 2},
            {"engine": "b", "threads": 1},
            {"engine": "b", "threads": 2},
        ]

    def test_empty_assignments_single_job(self):
        assert expand_parameter_space([]) == [{}]

    def test_demo_experiment_space_matches_paper_example(self):
        """Two storage engines x five thread counts = ten jobs (Fig. 3b)."""
        definitions = [checkbox("storage_engine", ["wiredtiger", "mmapv1"]),
                       interval("threads")]
        assignments = resolve_assignments(definitions, {
            "storage_engine": ["wiredtiger", "mmapv1"],
            "threads": {"start": 1, "stop": 16, "step": 2, "scale": "geometric"},
        })
        assert evaluation_space_size(assignments) == 10
