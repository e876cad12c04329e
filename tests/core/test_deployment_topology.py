"""Tests for topology-carrying deployments in the control plane."""

from __future__ import annotations

import pytest

from repro.docstore.topology import TopologySpec
from repro.errors import ValidationError


class TestDeploymentTopology:
    def test_register_with_spec_stores_its_dict_form(self, control, mongodb_system):
        spec = TopologySpec(shards=4, shard_strategy="range")
        deployment = control.deployments.register(
            mongodb_system.id, name="sharded", topology=spec)
        assert deployment.environment["topology"] == spec.as_dict()
        assert deployment.environment["topology"]["kind"] == "sharded_cluster"

    def test_register_with_dict_validates_and_normalises(self, control,
                                                         mongodb_system):
        deployment = control.deployments.register(
            mongodb_system.id, name="replicated",
            topology={"replicas": 3, "write_concern": "majority"})
        assert deployment.topology_spec() == TopologySpec(
            replicas=3, write_concern="majority")

    def test_dict_declarations_stay_sparse(self, control, mongodb_system):
        # A dictionary declaration pins exactly the fields it names --
        # storing materialized defaults would freeze e.g. the storage
        # engine against job-parameter sweeps.
        deployment = control.deployments.register(
            mongodb_system.id, name="sparse",
            topology={"shards": 4, "write_concern": "2", "replicas": 3})
        assert deployment.environment["topology"] == {
            "shards": 4, "write_concern": 2, "replicas": 3}

    def test_sparse_declaration_validated_without_default_cross_checks(
            self, control, mongodb_system):
        # {"write_concern": 2} implies at least two members once job
        # parameters complete the shape; it must not be rejected against
        # the one-member class default.
        deployment = control.deployments.register(
            mongodb_system.id, name="w2", topology={"write_concern": 2})
        assert deployment.environment["topology"] == {"write_concern": 2}
        assert deployment.topology_spec() == TopologySpec(replicas=2,
                                                          write_concern=2)

    def test_conflicting_declarations_rejected(self, control, mongodb_system):
        with pytest.raises(ValidationError):
            control.deployments.register(
                mongodb_system.id, name="conflict",
                environment={"topology": {"shards": 4}},
                topology=TopologySpec(replicas=3))

    def test_register_rejects_invalid_topologies(self, control, mongodb_system):
        with pytest.raises(ValidationError):
            control.deployments.register(mongodb_system.id, name="bad",
                                         topology={"shards": 0})
        with pytest.raises(ValidationError):
            control.deployments.register(mongodb_system.id, name="bad",
                                         topology={"sharding": "hash"})

    def test_environment_embedded_topology_is_validated(self, control,
                                                        mongodb_system):
        deployment = control.deployments.register(
            mongodb_system.id, name="embedded",
            environment={"host": "node1", "topology": {"shards": 2}})
        assert deployment.environment["host"] == "node1"
        assert deployment.topology_spec() == TopologySpec(shards=2)
        with pytest.raises(ValidationError):
            control.deployments.register(
                mongodb_system.id, name="bad",
                environment={"topology": {"replicas": -1}})

    def test_topology_spec_round_trips_through_storage(self, control,
                                                       mongodb_system):
        spec = TopologySpec(shards=2, replicas=3, write_concern="majority",
                            replication_lag=2)
        deployment = control.deployments.register(
            mongodb_system.id, name="full", topology=spec)
        reloaded = control.deployments.get(deployment.id)
        assert reloaded.topology_spec() == spec

    def test_deployment_without_topology_reports_none(self, control,
                                                      mongodb_system):
        deployment = control.deployments.register(
            mongodb_system.id, name="plain", environment={"host": "node1"})
        assert deployment.topology_spec() is None


#: One declaration per case, with what the control plane must store for it
#: (``None``: a ValidationError -- a 400 -- whose message names the field).
ILL_TYPED_CASES = [
    ("shards", "4", 4),
    ("replication_lag", "2", 2),
    ("replicas", 2.0, 2),
    ("replicas", 3.5, None),
    ("shards", True, None),
    ("shard_key", 7, None),
    ("storage_engine", ["x"], None),
]


@pytest.mark.parametrize("name,value,stored", ILL_TYPED_CASES)
class TestIllTypedDeclarations:
    """A declaration is coerced like a job parameter or refused: never a
    TypeError, and nothing ill-typed reaches the ``deployments`` table."""

    def test_through_the_service(self, control, mongodb_system, name, value,
                                 stored):
        if stored is None:
            with pytest.raises(ValidationError, match=name):
                control.deployments.register(mongodb_system.id, name="d",
                                             topology={name: value})
            assert control.deployments.list() == []
        else:
            deployment = control.deployments.register(
                mongodb_system.id, name="d", topology={name: value})
            assert deployment.environment["topology"] == {name: stored}

    def test_through_the_rest_api(self, control, client, mongodb_system, name,
                                  value, stored):
        response = client.post("/api/v1/deployments", {
            "system_id": mongodb_system.id, "name": "d",
            "environment": {"topology": {name: value}}})
        if stored is None:
            assert response.status == 400
            assert name in response.json()["error"]["message"]
            assert control.deployments.list() == []
        else:
            assert response.status == 201
            assert (response.json()["deployment"]["environment"]["topology"]
                    == {name: stored})
