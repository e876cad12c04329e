"""Tests for the topology layer: spec validation, serialization, factory.

The differential suite at the bottom is the refactor's safety net: for every
deployment shape, :func:`build_topology` must produce a deployment whose
seeded workload results are document-for-document equal to the hand-built
construction the benchmark runner performed before the topology layer.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent.base import JobContext
from repro.agent.metrics import AgentMetrics
from repro.agents.mongo_agent import MongoAgent
from repro.docstore.replication.replica_set import READ_PREFERENCES, ReplicaSet
from repro.docstore.server import DocumentServer
from repro.docstore.sharding.chunks import STRATEGIES
from repro.docstore.sharding.cluster import ShardedCluster
from repro.docstore.topology import (
    KIND_REPLICA_SET,
    KIND_REPLICATED_CLUSTER,
    KIND_SHARDED,
    KIND_STANDALONE,
    TopologySpec,
    build_topology,
    parse_write_concern,
    topology_of,
)
from repro.errors import ValidationError
from repro.util.clock import SimulatedClock
from repro.workloads.runner import DocumentBenchmark, WorkloadSpec
from repro.workloads.ycsb import OperationMix


class TestValidation:
    def test_defaults_are_valid(self):
        spec = TopologySpec()
        assert spec.kind == KIND_STANDALONE

    @pytest.mark.parametrize("overrides", [
        {"shards": 0},
        {"shards": -1},
        {"replicas": 0},
        {"shard_key": ""},
        {"shard_strategy": "round-robin"},
        {"read_preference": "leader"},
        {"replication_lag": -1},
        {"storage_engine": "rocksdb"},
        {"write_concern": 0},
        {"write_concern": 4},                      # > replicas
        {"write_concern": "quorum"},
        {"replicas": 3, "write_concern": 5},
    ])
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(ValidationError):
            TopologySpec(**overrides)

    def test_parse_write_concern(self):
        assert parse_write_concern("majority") == "majority"
        assert parse_write_concern("2") == 2
        assert parse_write_concern(1) == 1
        with pytest.raises(ValidationError):
            parse_write_concern("most")


class TestKinds:
    @pytest.mark.parametrize("overrides,kind", [
        ({}, KIND_STANDALONE),
        ({"replicas": 3}, KIND_REPLICA_SET),
        ({"shards": 4}, KIND_SHARDED),
        ({"shards": 2, "replicas": 3}, KIND_REPLICATED_CLUSTER),
    ])
    def test_kind_derived_from_shape(self, overrides, kind):
        assert TopologySpec(**overrides).kind == kind

    def test_describe_names_the_engine_and_shape(self):
        assert "standalone" in TopologySpec().describe()
        assert "replica set" in TopologySpec(replicas=3).describe()
        sharded = TopologySpec(shards=4, storage_engine="mmapv1").describe()
        assert "mmapv1" in sharded and "4 shards" in sharded
        replicated = TopologySpec(shards=2, replicas=3).describe()
        assert "3-member shards" in replicated


#: What a ``str`` field may say (a new one must be added here; a new field of
#: any other type is generated from its annotation alone).
STRING_CHOICES = {
    "shard_key": ("_id", "region", "category"),
    "shard_strategy": STRATEGIES,
    "read_preference": READ_PREFERENCES,
    "storage_engine": ("wiredtiger", "mmapv1"),
}


def field_strategy(spec_field) -> st.SearchStrategy:
    """Values one field may take, by its annotation (small: specs get built)."""
    if spec_field.type == "str":
        return st.sampled_from(STRING_CHOICES[spec_field.name])
    return {"int": st.integers(0, 3),
            "int | str": st.integers(0, 3) | st.just("majority")}[spec_field.type]


def spec_or_none(values: dict) -> TopologySpec | None:
    try:
        return TopologySpec(**values)
    except ValidationError:
        return None


#: Every spec the class's own validation accepts, generated from its field
#: list -- a field added later is covered without editing the properties.
SPECS = st.fixed_dictionaries(
    {spec_field.name: field_strategy(spec_field)
     for spec_field in fields(TopologySpec)}
).map(spec_or_none).filter(lambda spec: spec is not None)

#: Fields only one shape realises: a deployment built without them cannot
#: report what the spec said, so :func:`topology_of` reports the default.
ONLY_SHARDED = ("shard_key", "shard_strategy")
ONLY_REPLICATED = ("write_concern", "read_preference", "replication_lag")


def realised(spec: TopologySpec) -> TopologySpec:
    """``spec`` with the fields its shape does not realise at their defaults."""
    ignored = (() if spec.is_sharded else ONLY_SHARDED) + (
        () if spec.is_replicated else ONLY_REPLICATED)
    return TopologySpec(**{name: value for name, value in asdict(spec).items()
                           if name not in ignored})


class TestGeneratedSpecs:
    """Properties over every valid spec, not over hand-picked ones."""

    @settings(max_examples=60, deadline=None)
    @given(SPECS)
    def test_the_reader_inverts_as_dict(self, spec):
        data = spec.as_dict()
        assert data["kind"] == spec.kind
        assert TopologySpec.parse(data) == spec
        assert TopologySpec.parse(json.loads(json.dumps(data))) == spec

    @settings(max_examples=60, deadline=None)
    @given(SPECS)
    def test_the_reader_inverts_parameter_style_strings(self, spec):
        strings = {name: str(value) for name, value in spec.as_dict().items()}
        assert TopologySpec.parse(strings) == spec

    @settings(max_examples=30, deadline=None)
    @given(SPECS)
    def test_topology_of_inverts_build(self, spec):
        deployment = build_topology(spec)
        try:
            assert topology_of(deployment) == realised(spec)
        finally:
            deployment.close()

    @settings(max_examples=60, deadline=None)
    @given(SPECS, st.data())
    def test_layers_resolve_to_the_spec_through_the_agent(self, spec, data):
        # Registration defaults < job parameters < deployment declaration:
        # wherever the fields are split between the three, each is said once
        # and the agent resolves the spec again.
        items = data.draw(st.permutations(list(asdict(spec).items())))
        low, high = sorted(data.draw(st.tuples(
            st.integers(0, len(items)), st.integers(0, len(items)))))
        agent = MongoAgent()
        agent.topology_defaults = dict(items[:low])
        context = JobContext(
            job_id="job-layers",
            parameters={"threads": 4, "record_count": 80, **dict(items[low:high])},
            deployment={"host": "test", "topology": dict(items[high:])},
            metrics=AgentMetrics(SimulatedClock()),
        )
        assert agent.topology_for(context) == spec


class TestParse:
    """The contract of the one reader of a shape from loose data."""

    def test_missing_fields_fall_back_to_defaults(self):
        assert TopologySpec.parse() == TopologySpec()
        assert TopologySpec.parse({"shards": 4}) == TopologySpec(shards=4)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError, match="sharding"):
            TopologySpec.parse({"shards": 2, "sharding": "hash"})
        with pytest.raises(ValidationError, match="threads"):
            TopologySpec.parse({"shards": 2}, {"threads": None})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValidationError):
            TopologySpec.parse([("shards", 2)])
        with pytest.raises(ValidationError):
            TopologySpec.parse({"shards": 2}, "shards=4")

    def test_invalid_values_rejected_on_parse(self):
        with pytest.raises(ValidationError):
            TopologySpec.parse({"shard_strategy": "round-robin"})

    def test_later_layers_win_and_unsaid_values_fall_through(self):
        spec = TopologySpec.parse(
            {"replicas": 3, "shard_key": "region", "storage_engine": "mmapv1"},
            {"shards": "4", "write_concern": "majority", "shard_key": "",
             "storage_engine": None, "kind": "standalone"},
            {"replicas": 2.0},
        )
        assert spec == TopologySpec(
            shards=4, replicas=2, write_concern="majority",
            shard_key="region",             # "" falls through to the weaker layer
            storage_engine="mmapv1")        # and so does None; kind is ignored

    @pytest.mark.parametrize("name,value", [
        ("shards", "many"), ("shards", 2.7), ("shards", "2.7"), ("shards", True),
        ("replicas", 3.5), ("replicas", [3]), ("replication_lag", {"lag": 1}),
        ("shard_key", 7), ("storage_engine", ["x"]), ("read_preference", True),
        ("write_concern", "most"), ("write_concern", 1.5), ("write_concern", False),
    ])
    def test_ill_typed_values_name_their_field(self, name, value):
        with pytest.raises(ValidationError, match=name):
            TopologySpec.parse({name: value})

    def test_replicas_grow_to_cover_a_numeric_write_concern(self):
        assert TopologySpec.parse({"write_concern": 2}) == TopologySpec(
            replicas=2, write_concern=2)
        assert TopologySpec.parse({"replicas": 3}, {"write_concern": "2"}) == (
            TopologySpec(replicas=3, write_concern=2))  # said in any layer
        assert TopologySpec.parse({"write_concern": "majority"}) == (
            TopologySpec(write_concern="majority"))
        with pytest.raises(ValidationError):
            TopologySpec.parse({"write_concern": 0})
        with pytest.raises(ValidationError):
            TopologySpec.parse({"replicas": 3, "write_concern": 5})


class TestBuildTopology:
    def test_standalone(self):
        server = build_topology(TopologySpec(storage_engine="mmapv1"))
        assert isinstance(server, DocumentServer)
        assert server.storage_engine == "mmapv1"

    def test_replica_set(self):
        spec = TopologySpec(replicas=3, write_concern="majority",
                            read_preference="nearest", replication_lag=2)
        server = build_topology(spec)
        assert isinstance(server, ReplicaSet)
        assert server.replica_count == 3
        assert server.write_concern == "majority"
        assert server.read_preference == "nearest"
        assert server.replication_lag == 2

    def test_sharded_cluster(self):
        spec = TopologySpec(shards=4, shard_key="region", shard_strategy="range")
        server = build_topology(spec)
        assert isinstance(server, ShardedCluster)
        assert server.shard_count == 4
        assert server.default_shard_key == "region"
        assert server.default_strategy == "range"
        assert all(isinstance(shard, DocumentServer) for shard in server.shards)

    def test_replicated_cluster_runs_replica_set_shards(self):
        spec = TopologySpec(shards=2, replicas=3, write_concern="majority")
        server = build_topology(spec)
        assert isinstance(server, ShardedCluster)
        assert server.replicated
        for shard in server.shards:
            assert isinstance(shard, ReplicaSet)
            assert shard.replica_count == 3

    def test_topology_of_unknown_object_reports_standalone(self):
        class Fake:
            storage_engine = "mmapv1"

        assert topology_of(Fake()) == TopologySpec(storage_engine="mmapv1")


class TestBenchmarkTopologyReporting:
    """BenchmarkResult shape fields come from the topology layer (not probing)."""

    def test_a_workload_carries_no_shape(self):
        shape = {spec_field.name for spec_field in fields(TopologySpec)}
        workload = {spec_field.name for spec_field in fields(WorkloadSpec)}
        assert not shape & workload

    def test_result_reports_the_built_topology(self):
        topology = TopologySpec(shards=2, replicas=3, write_concern="majority")
        spec = WorkloadSpec(record_count=40, operation_count=60)
        result = DocumentBenchmark.for_topology(topology, spec).execute_full()
        assert result.topology == KIND_REPLICATED_CLUSTER
        assert result.shards == 2
        assert result.replicas == 3
        assert result.as_dict()["topology"] == KIND_REPLICATED_CLUSTER

    def test_hand_built_server_reports_its_real_shape(self):
        # The workload spec says nothing about replication; the reported
        # topology still describes the actual deployment object.
        spec = WorkloadSpec(record_count=40, operation_count=60)
        benchmark = DocumentBenchmark(ReplicaSet(members=3), spec)
        result = benchmark.execute_full()
        assert result.topology == KIND_REPLICA_SET
        assert result.replicas == 3


class TestDifferentialEquivalence:
    """build_topology == the pre-refactor hand construction, document for document."""

    MIX = OperationMix(read=0.5, update=0.3, insert=0.2)

    SPEC = WorkloadSpec(record_count=80, operation_count=160, seed=13,
                        mix=MIX, distribution="zipfian")

    def run(self, server) -> tuple[list[dict], dict]:
        benchmark = DocumentBenchmark(server, self.SPEC)
        result = benchmark.execute_full()
        documents = benchmark.handle.find_with_cost({}).documents
        return (sorted(documents, key=lambda d: d["_id"]),
                result.operation_counts)

    def assert_equivalent(self, topology: TopologySpec, legacy_server) -> None:
        built_documents, built_counts = self.run(build_topology(topology))
        legacy_documents, legacy_counts = self.run(legacy_server)
        assert built_counts == legacy_counts
        assert built_documents == legacy_documents

    def test_standalone_matches_hand_built_server(self):
        self.assert_equivalent(TopologySpec(), DocumentServer("wiredtiger"))

    def test_replica_set_matches_hand_built_replica_set(self):
        topology = TopologySpec(replicas=3, write_concern="majority",
                                replication_lag=2)
        self.assert_equivalent(topology, ReplicaSet(
            members=3, storage_engine="wiredtiger", write_concern="majority",
            read_preference="primary", replication_lag=2))

    def test_sharded_cluster_matches_hand_built_cluster(self):
        for strategy in ("hash", "range"):
            topology = TopologySpec(shards=4, shard_strategy=strategy)
            self.assert_equivalent(topology, ShardedCluster(
                shards=4, storage_engine="wiredtiger", shard_key="_id",
                strategy=strategy))

    def test_replicated_cluster_matches_hand_built_cluster(self):
        topology = TopologySpec(shards=2, replicas=3, write_concern="majority")
        self.assert_equivalent(topology, ShardedCluster(
            shards=2, storage_engine="wiredtiger", shard_key="_id",
            strategy="hash", replicas=3, write_concern="majority",
            read_preference="primary", replication_lag=0))
