"""Tests for the document server (commands) and the driver-style client."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.docstore.client import DocumentClient
from repro.docstore.server import DocumentServer
from repro.errors import DocumentStoreError, NotFoundError
from tests.docstore.deployments import MATRIX, build, distinct

#: A value each engine's constructor refuses.
BAD_VALUES = {"wiredtiger": {"compression_ratio": 0},
              "mmapv1": {"padding_factor": 0.5}}
#: Size options an engine could not bill: ``cache_bytes`` is an ``int`` >= 1,
#: ``memory_bytes`` an ``int`` >= 0, ``compression_ratio`` a real number in
#: (0, 1]; none of them a bool.  ``memory_bytes=-5`` billed a point read
#: nearly twice the default, the strings and ``None`` raised a bare
#: ``TypeError`` on a read that faults, the rest were accepted.
UNBILLABLE = [
    ("wiredtiger", "cache_bytes", value) for value in (0, -1, 1.5, True, "16", None)
] + [
    ("wiredtiger", "compression_ratio", value)
    for value in ("0.5", True, 1.5, -0.5, float("nan"), None)
] + [
    ("mmapv1", "memory_bytes", value) for value in (-5, None, "16", 1.5, False)
]
#: The least of each and some values that are not ``int`` / ``float``.
BILLABLE = [("wiredtiger", {"cache_bytes": 1}),
            ("wiredtiger", {"compression_ratio": 1}),
            ("wiredtiger", {"compression_ratio": Fraction(1, 3)}),
            ("mmapv1", {"memory_bytes": 0})]


class TestDocumentServer:
    def test_engine_selection(self):
        assert DocumentServer("wiredtiger").storage_engine == "wiredtiger"
        assert DocumentServer("mmapv1").storage_engine == "mmapv1"
        with pytest.raises(DocumentStoreError):
            DocumentServer("rocksdb")

    def test_databases_and_collections_created_on_demand(self):
        server = DocumentServer()
        server.database("app").collection("users").insert_one({"a": 1})
        assert server.database_names() == ["app"]
        assert server.database("app").collection_names() == ["users"]

    def test_collections_use_configured_engine(self):
        server = DocumentServer("mmapv1")
        collection = server["app"]["users"]
        assert collection.engine.name == "mmapv1"

    def test_engine_options_forwarded(self):
        server = DocumentServer("mmapv1", padding_factor=2.5)
        assert server["db"]["c"].engine.padding_factor == 2.5

    # Construction fails before a serial entry would close its pool.
    @pytest.mark.parametrize("engine, shape", [
        (engine, shape) for engine in sorted(BAD_VALUES)
        for shape in distinct(engine) if not MATRIX[shape].serial])
    def test_an_option_the_engine_refuses_fails_at_construction(self, shape,
                                                                engine):
        """Engines are built per collection, on first use; the deployment
        builds one at construction, so a misspelt or ill-valued option fails
        there -- not on the first insert."""
        with pytest.raises(TypeError):
            build(shape, engine, cach_bytes=1)
        with pytest.raises(ValueError):
            build(shape, engine, **BAD_VALUES[engine])

    @pytest.mark.parametrize("engine, option, value", UNBILLABLE)
    def test_a_size_the_engine_cannot_bill_fails_at_construction(
            self, engine, option, value):
        with pytest.raises(ValueError, match=option):
            DocumentServer(engine, **{option: value})

    @pytest.mark.parametrize("engine, options", BILLABLE)
    def test_the_least_billable_sizes_are_accepted(self, engine, options):
        handle = DocumentClient(DocumentServer(engine, **options)).collection(
            "db", "c")
        handle.insert_many([{"_id": index, "v": "x" * 300} for index in range(20)])
        assert len(handle.find({})) == 20
        assert handle.find_with_cost({"_id": 3}).ticks > 0

    def test_drop_database_and_collection(self):
        server = DocumentServer()
        server["app"]["users"].insert_one({"a": 1})
        assert server.database("app").drop_collection("users") is True
        assert server.drop_database("app") is True
        assert server.drop_database("app") is False

    def test_ping_and_build_info(self):
        server = DocumentServer()
        assert server.run_command({"ping": 1}) == {"ok": 1}
        info = server.run_command({"buildInfo": 1})
        assert "wiredtiger" in info["storageEngines"]

    def test_server_status(self):
        server = DocumentServer()
        server["app"]["users"].insert_one({"a": 1})
        status = server.run_command({"serverStatus": 1})
        assert status["storageEngine"]["name"] == "wiredtiger"
        assert status["totalDocuments"] == 1

    def test_db_and_coll_stats(self):
        server = DocumentServer()
        server["app"]["users"].insert_one({"a": 1})
        db_stats = server.run_command({"dbStats": "app"})
        assert db_stats["documents"] == 1
        coll_stats = server.run_command({"collStats": "app.users"})
        assert coll_stats["documents"] == 1

    def test_stats_for_missing_namespace(self):
        server = DocumentServer()
        with pytest.raises(NotFoundError):
            server.run_command({"dbStats": "nope"})
        with pytest.raises(NotFoundError):
            server.run_command({"collStats": "nope.missing"})

    def test_unsupported_command(self):
        with pytest.raises(DocumentStoreError):
            DocumentServer().run_command({"shardCollection": "x"})


class TestDocumentClient:
    def test_latencies_recorded_per_operation(self):
        client = DocumentClient(DocumentServer())
        users = client.collection("app", "users")
        users.insert_one({"a": 1})
        users.find_one({"a": 1})
        users.update_one({"a": 1}, {"$set": {"a": 2}})
        assert len(client.latencies("insert")) == 1
        assert len(client.latencies("read")) == 1
        assert len(client.latencies("update")) == 1
        client.reset_latencies()
        assert client.latencies() == []

    def test_find_returns_documents_and_records_latency(self):
        client = DocumentClient(DocumentServer())
        users = client.collection("app", "users")
        users.insert_many([{"n": i} for i in range(3)])
        assert len(users.find()) == 3
        assert client.latencies()  # something was recorded

    def test_empty_query_reads_labelled_scan_consistently(self):
        """find / find_one / find_with_cost agree: empty query = scan."""
        client = DocumentClient(DocumentServer())
        users = client.collection("app", "users")
        users.insert_many([{"n": i} for i in range(3)])
        client.reset_latencies()
        users.find()
        users.find_one()
        users.find_with_cost()
        assert len(client.latencies("scan")) == 3
        assert client.latencies("read") == []
        client.reset_latencies()
        users.find({"n": 1})
        users.find_one({"n": 1})
        users.find_with_cost({"n": 1})
        assert len(client.latencies("read")) == 3
        assert client.latencies("scan") == []

    def test_command_passthrough_and_drop(self):
        client = DocumentClient(DocumentServer())
        client.collection("app", "users").insert_one({"a": 1})
        assert client.command({"ping": 1}) == {"ok": 1}
        assert client.drop_database("app") is True

    def test_engine_property_exposed(self):
        client = DocumentClient(DocumentServer("mmapv1"))
        assert client.collection("app", "users").engine.name == "mmapv1"

    def test_stats_and_index_passthrough(self):
        client = DocumentClient(DocumentServer())
        users = client.collection("app", "users")
        users.insert_one({"city": "basel"})
        users.create_index("city")
        assert "city" in users.stats()["indexes"]
