"""Tests for the aggregation pipeline: stage semantics, planner and shard
pushdown, explain, distinct, sorted cursors, and randomized differential
checks against a brute-force reference and across deployment shapes.

:func:`accumulate_groups` is the per-document ``$group`` loop -- a call to
evaluate the key, and a call to evaluate each operand and one to update each
state, per document -- that the generated kernel
(:func:`~repro.docstore.kernels.group_kernel`) replaced; it is kept here as
that kernel's reference."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore import (
    DocumentClient,
    DocumentServer,
    TopologySpec,
    build_topology,
)
from repro.docstore.aggregation import (
    BULK_SCAN,
    ORDERED_INDEX_WALK,
    GroupSpec,
    finalize_groups,
    parse_group_spec,
    split_pipeline,
)
from repro.docstore.collection import Collection
from repro.docstore.documents import get_path
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.planner import FULL_SCAN, INDEX_EQ, INDEX_RANGE
from repro.docstore.values import key, order, record_id
from repro.docstore.wiredtiger import WiredTigerEngine
from repro.errors import DocumentStoreError
from tests.docstore.test_indexes import tree_node_accesses
from tests.docstore.test_matching import matches


# -- fixtures and helpers ----------------------------------------------------------


@pytest.fixture(params=[WiredTigerEngine, MmapV1Engine], ids=["wiredtiger", "mmapv1"])
def collection(request) -> Collection:
    return Collection("events", request.param())


def make_documents(count: int, seed: int = 7) -> list[dict]:
    """Synthetic analytics documents with mixed, partially missing fields.

    ``score`` uses half-integer floats only, so float sums are exact under
    any accumulation order and differential comparisons can be equality.
    """
    rng = random.Random(seed)
    documents = []
    for index in range(count):
        document = {
            "_id": f"d{index:04d}",
            "category": f"cat{rng.randrange(4)}",
            "counter": rng.randrange(100),
        }
        roll = rng.random()
        if roll < 0.6:
            document["score"] = rng.randrange(200) / 2
        elif roll < 0.8:
            document["score"] = None
        if rng.random() < 0.8:
            document["active"] = rng.random() < 0.5
        if rng.random() < 0.3:
            document["tags"] = rng.sample(["a", "b", "c", "d"], rng.randrange(1, 3))
        documents.append(document)
    return documents


def canonical(documents: list[dict]) -> list[str]:
    return sorted(json.dumps(document, sort_keys=True, default=repr)
                  for document in documents)


# -- brute-force reference ---------------------------------------------------------


def _ref_eval(document: dict, expression) -> tuple[bool, object]:
    if isinstance(expression, str) and expression.startswith("$"):
        return get_path(document, expression[1:])
    if isinstance(expression, dict):
        return True, {name: _ref_eval(document, entry)[1]
                      for name, entry in expression.items()}
    return True, expression


def _ref_accumulate(operator: str, values: list[tuple[bool, object]]):
    if operator == "$count":
        return len(values)
    if operator in ("$sum", "$avg"):
        numbers = [value for found, value in values
                   if found and isinstance(value, (int, float))
                   and not isinstance(value, bool)]
        if operator == "$sum":
            return sum(numbers) if numbers else 0
        return sum(numbers) / len(numbers) if numbers else None
    present = [value for found, value in values
               if found and value is not None]
    if not present:
        return None
    picker = min if operator == "$min" else max
    return picker(present, key=order)


def _ref_group(documents: list[dict], spec: dict) -> list[dict]:
    groups: dict[object, dict] = {}
    for document in documents:
        found, value = _ref_eval(document, spec["_id"])
        value = value if found else None
        entry = groups.setdefault(key(value), {"key": value, "docs": []})
        entry["docs"].append(document)
    rows = []
    for entry in sorted(groups.values(), key=lambda entry: order(entry["key"])):
        row = {"_id": entry["key"]}
        for name, accumulator in spec.items():
            if name == "_id":
                continue
            (operator, operand), = accumulator.items()
            row[name] = _ref_accumulate(
                operator,
                [(True, operand) if not (isinstance(operand, str)
                                         and operand.startswith("$"))
                 else _ref_eval(document, operand)
                 for document in entry["docs"]])
        rows.append(row)
    return rows


def _ref_sort(documents: list[dict], sort_spec: dict) -> list[dict]:
    ordered = sorted(documents, key=lambda doc: record_id(doc.get("_id")))
    for field, direction in reversed(list(sort_spec.items())):
        ordered.sort(key=lambda doc: order(get_path(doc, field)[1]),
                     reverse=direction < 0)
    return ordered


def _ref_project(documents: list[dict], projection: dict) -> list[dict]:
    include = [name for name, flag in projection.items() if flag]
    exclude = {name for name, flag in projection.items() if not flag}
    out = []
    for document in documents:
        if include:
            row = {name: document[name] for name in include if name in document}
            if "_id" not in exclude and "_id" in document:
                row["_id"] = document["_id"]
        else:
            row = {name: value for name, value in document.items()
                   if name not in exclude}
        out.append(row)
    return out


def reference_pipeline(documents: list[dict], pipeline: list[dict]) -> list[dict]:
    """Brute-force evaluation over plain Python lists."""
    current = list(documents)
    for stage in pipeline:
        (name, spec), = stage.items()
        if name == "$match":
            current = [doc for doc in current if matches(doc, spec)]
        elif name == "$project":
            current = _ref_project(current, spec)
        elif name == "$group":
            current = _ref_group(current, spec)
        elif name == "$sort":
            current = _ref_sort(current, spec)
        elif name == "$limit":
            current = current[:spec]
    return current


def ordered_output(pipeline: list[dict]) -> bool:
    """Whether the pipeline's output order is part of the contract: the last
    order-establishing stage ($sort/$group) is followed only by stages that
    preserve order."""
    deterministic = False
    for stage in pipeline:
        kind = next(iter(stage))
        if kind in ("$sort", "$group"):
            deterministic = True
        elif kind == "$match":
            pass  # filters preserve relative order
    return deterministic


# -- validation --------------------------------------------------------------------


class TestParseValidation:
    def test_rejects_unknown_stage(self, collection):
        with pytest.raises(DocumentStoreError):
            collection.aggregate([{"$lookup": {}}])

    def test_rejects_multi_key_stage(self, collection):
        with pytest.raises(DocumentStoreError):
            collection.aggregate([{"$match": {}, "$limit": 1}])

    def test_rejects_group_without_id(self, collection):
        with pytest.raises(DocumentStoreError):
            collection.aggregate([{"$group": {"n": {"$count": {}}}}])

    def test_rejects_unknown_accumulator(self, collection):
        with pytest.raises(DocumentStoreError):
            collection.aggregate([{"$group": {"_id": None, "n": {"$median": "$x"}}}])

    def test_rejects_count_with_operand(self, collection):
        with pytest.raises(DocumentStoreError):
            collection.aggregate([{"$group": {"_id": None, "n": {"$count": "$x"}}}])

    def test_rejects_bad_limit(self, collection):
        for bad in (0, -1, True, "3"):
            with pytest.raises(DocumentStoreError):
                collection.aggregate([{"$limit": bad}])

    def test_rejects_bad_sort_direction(self, collection):
        with pytest.raises(DocumentStoreError):
            collection.aggregate([{"$sort": {"a": 2}}])

    def test_rejects_operator_expression_in_accumulator(self, collection):
        with pytest.raises(DocumentStoreError):
            collection.aggregate(
                [{"$group": {"_id": None, "n": {"$sum": {"$add": [1, 2]}}}}])


# -- accumulator semantics ---------------------------------------------------------


class TestAccumulators:
    def load(self, collection):
        collection.insert_many([
            {"_id": "a", "g": 1, "v": 10, "f": 2.5},
            {"_id": "b", "g": 1, "v": True},          # bool: not a number
            {"_id": "c", "g": 1, "v": None},
            {"_id": "d", "g": 1},                      # missing v
            {"_id": "e", "g": 2, "v": 4, "f": 1.5},
            {"_id": "f", "g": 2, "v": 6},
        ])

    def test_sum_avg_skip_non_numeric(self, collection):
        self.load(collection)
        rows = collection.aggregate([{"$group": {
            "_id": "$g", "total": {"$sum": "$v"}, "mean": {"$avg": "$v"},
        }}]).documents
        assert rows == [
            {"_id": 1, "total": 10, "mean": 10.0},
            {"_id": 2, "total": 10, "mean": 5.0},
        ]

    def test_sum_of_constant_counts_documents(self, collection):
        self.load(collection)
        rows = collection.aggregate(
            [{"$group": {"_id": "$g", "n": {"$sum": 1}}}]).documents
        assert rows == [{"_id": 1, "n": 4}, {"_id": 2, "n": 2}]

    def test_min_max_ignore_null_and_missing(self, collection):
        self.load(collection)
        rows = collection.aggregate([{"$group": {
            "_id": "$g", "lo": {"$min": "$f"}, "hi": {"$max": "$f"},
        }}]).documents
        assert rows == [
            {"_id": 1, "lo": 2.5, "hi": 2.5},
            {"_id": 2, "lo": 1.5, "hi": 1.5},
        ]

    def test_empty_accumulators(self, collection):
        self.load(collection)
        rows = collection.aggregate([
            {"$match": {"g": 1}},
            {"$group": {"_id": None, "lo": {"$min": "$f2"},
                        "total": {"$sum": "$f2"}, "mean": {"$avg": "$f2"}}},
        ]).documents
        assert rows == [{"_id": None, "lo": None, "total": 0, "mean": None}]

    def test_bool_and_int_group_keys_stay_distinct(self, collection):
        collection.insert_many([
            {"_id": "a", "k": True}, {"_id": "b", "k": 1}, {"_id": "c", "k": 1.0},
        ])
        rows = collection.aggregate(
            [{"$group": {"_id": "$k", "n": {"$count": {}}}}]).documents
        assert [(row["_id"], row["n"]) for row in rows] == [(True, 1), (1, 2)]

    def test_compound_group_key(self, collection):
        self.load(collection)
        rows = collection.aggregate([{"$group": {
            "_id": {"g": "$g", "has": "$f"}, "n": {"$count": {}},
        }}]).documents
        assert {json.dumps(row["_id"], sort_keys=True, default=repr): row["n"]
                for row in rows} == {
            json.dumps({"g": 1, "has": 2.5}, sort_keys=True): 1,
            json.dumps({"g": 1, "has": None}, sort_keys=True): 3,
            json.dumps({"g": 2, "has": 1.5}, sort_keys=True): 1,
            json.dumps({"g": 2, "has": None}, sort_keys=True): 1,
        }


# -- the generated $group loop, held to the per-document one -----------------------


def accumulate_groups(stream, spec: GroupSpec) -> dict:
    """``key -> (key value, accumulator states)``, one evaluation and one
    update call per field per document."""
    groups: dict = {}
    for document in stream:
        found, key_value = spec.key_expr.evaluate(document)
        if not found:
            key_value = None
        entry = groups.get(key(key_value))
        if entry is None:
            entry = (key_value, {name: accumulator.initial()
                                 for name, accumulator, __ in spec.fields})
            groups[key(key_value)] = entry
        states = entry[1]
        for name, accumulator, operand in spec.fields:
            operand_found, value = operand.evaluate(document)
            states[name] = accumulator.update(states[name], operand_found, value)
    return groups


#: Bools and numbers, ``1`` and ``1.0``, ``-0.0``, floats whose sum depends
#: on the order they are added in, strings, ``None``, arrays, sub-documents.
GROUP_LEAVES = st.sampled_from([1, 1.0, True, False, 0, -0.0, 0.1, 0.7, 2.5,
                                1e16, "1", "x", None])
GROUP_VALUES = GROUP_LEAVES | st.recursive(
    GROUP_LEAVES,
    lambda children: st.lists(children, max_size=2) | st.dictionaries(
        st.sampled_from(["a", "b"]), children, max_size=2),
    max_leaves=4)
GROUP_DOCUMENTS = st.lists(
    st.dictionaries(st.sampled_from(["a", "b", "c"]), GROUP_VALUES, max_size=3),
    max_size=15)
#: A flat and a dotted field reference (into a sub-document or an array), a
#: field no document holds, or a constant.
OPERANDS = st.sampled_from(["$a", "$b", "$a.b", "$c.0", "$z"]) | GROUP_LEAVES
GROUP_KEYS = st.one_of(OPERANDS, st.dictionaries(st.sampled_from(["x", "y"]),
                                                 OPERANDS, min_size=1, max_size=2))
ACCUMULATORS = st.one_of(
    st.builds(lambda operator, operand: {operator: operand},
              st.sampled_from(["$sum", "$avg", "$min", "$max"]), OPERANDS),
    st.just({"$count": {}}))
GROUPS = st.builds(lambda group_key, fields: {"_id": group_key, **fields},
                   GROUP_KEYS, st.dictionaries(st.sampled_from(["f", "g", "h", "i"]),
                                               ACCUMULATORS, max_size=4))


@settings(max_examples=300, deadline=None)
@given(GROUP_DOCUMENTS, GROUPS)
def test_the_group_kernel_is_the_per_document_loop(documents, raw):
    """Every accumulator over every key form: the same groups in the same
    order, each state the same value of the same type (a float ``$sum`` /
    ``$avg`` added in the same order), from a list or from an iterator."""
    spec = parse_group_spec(raw)
    expected = accumulate_groups(documents, spec)
    for stream in (documents, iter(documents)):
        generated = spec.accumulate(stream)
        assert generated == expected
        assert repr(list(generated.items())) == repr(list(expected.items()))
        assert (repr(finalize_groups(generated, spec))
                == repr(finalize_groups(expected, spec)))


#: Every value a key or an operand may read, nothing included.
GROUP_HELD = [1, 1.0, True, False, 0, -0.0, 0.1, 2.5, "1", "x", None, [1],
              {"b": 1}]


@pytest.mark.parametrize("group_key", ["$g", "$n.g", None, True, 1.0,
                                       {"x": "$g", "y": "$n.v"}])
def test_every_accumulator_over_every_held_value(group_key):
    """Exhaustive where the group kernel inlines: each key form over keys
    of every kind, each accumulator over a flat, a dotted and a missing
    operand and over constants of every kind."""
    documents = [{"g": held, "v": value, "n": {"g": held, "v": value}}
                 for held in GROUP_HELD for value in GROUP_HELD] + [{}]
    fields = {"count": {"$count": {}}}
    for operator in ("$sum", "$avg", "$min", "$max"):
        for index, operand in enumerate(["$v", "$n.v", "$z", 1, 1.0, True, 2.5,
                                         None, "x"]):
            fields[f"{operator[1:]}{index}"] = {operator: operand}
    spec = parse_group_spec({"_id": group_key, **fields})
    generated, expected = spec.accumulate(documents), accumulate_groups(documents, spec)
    assert repr(list(generated.items())) == repr(list(expected.items()))


@pytest.mark.parametrize("name", ["it's", 'say "hi"', "back\\slash",
                                  "new\nline", "{brace}", "_k0", "states"])
def test_any_field_or_output_name_compiles_into_a_group(name):
    documents = [{name: "g", "v": 2}, {name: "g", "v": 3.5}, {"v": 1}]
    raw = {"_id": "$" + name, name: {"$sum": "$v"}, "n": {"$sum": 1},
           "top": {"$max": "$" + name}}
    spec = parse_group_spec(raw)
    assert finalize_groups(spec.accumulate(documents), spec) == [
        {"_id": None, name: 1, "n": 1, "top": None},
        {"_id": "g", name: 5.5, "n": 2, "top": "g"}]
    assert spec.accumulate(documents) == accumulate_groups(documents, spec)


# -- pushdown and explain ----------------------------------------------------------


class TestPushdownExplain:
    def test_indexed_leading_match_avoids_full_scan(self, collection):
        collection.insert_many(make_documents(80))
        collection.create_index("category")
        report = collection.explain(
            [{"$match": {"category": "cat1"}},
             {"$group": {"_id": "$active", "n": {"$count": {}}}}])
        assert report["winning_plan"]["access_path"] == INDEX_EQ
        assert report["stages"][0]["pushdown"] == "planner"

    def test_indexed_range_match_uses_index_range(self, collection):
        collection.insert_many(make_documents(80))
        collection.create_index("counter")
        report = collection.explain(
            [{"$match": {"counter": {"$gte": 50}}},
             {"$group": {"_id": None, "n": {"$count": {}}}}])
        assert report["winning_plan"]["access_path"] == INDEX_RANGE

    def test_full_collection_source_is_bulk_scan(self, collection):
        collection.insert_many(make_documents(30))
        report = collection.explain(
            [{"$group": {"_id": "$category", "n": {"$count": {}}}}])
        assert report["source"]["mode"] == "bulk_scan"
        assert report["winning_plan"]["access_path"] == BULK_SCAN

    def test_sort_limit_rides_ordered_index_walk(self, collection):
        collection.insert_many(make_documents(80))
        collection.create_index("counter")
        pipeline = [{"$match": {"counter": {"$gte": 40}}},
                    {"$sort": {"counter": 1}}, {"$limit": 5}]
        report = collection.explain(pipeline)
        assert report["winning_plan"]["access_path"] == ORDERED_INDEX_WALK
        assert report["winning_plan"]["limit_pushdown"] == 5
        assert [entry["pushdown"] for entry in report["stages"]] == [
            "index_walk_filter", "ordered_index_walk", "source_limit"]
        result = collection.aggregate(pipeline)
        expected = reference_pipeline(
            collection.find({}).to_list(), pipeline)
        assert result.documents == expected

    def test_walk_not_used_when_index_does_not_cover(self, collection):
        collection.insert_many(make_documents(80))
        collection.create_index("score")  # score is missing/None on many docs
        report = collection.explain([{"$sort": {"score": 1}}, {"$limit": 5}])
        assert report["winning_plan"]["access_path"] != ORDERED_INDEX_WALK

    def test_descending_sort_stays_in_memory(self, collection):
        collection.insert_many(make_documents(40))
        collection.create_index("counter")
        report = collection.explain([{"$sort": {"counter": -1}}, {"$limit": 5}])
        assert report["winning_plan"]["access_path"] != ORDERED_INDEX_WALK

    def test_walk_seeks_into_matched_interval(self, collection):
        documents = [{"_id": f"d{index:03d}", "counter": index}
                     for index in range(200)]
        collection.insert_many(documents)
        collection.create_index("counter")
        index = collection.index_for("counter")
        before = tree_node_accesses(index)
        result = collection.aggregate(
            [{"$match": {"counter": {"$gte": 190}}},
             {"$sort": {"counter": 1}}, {"$limit": 3}])
        walked = tree_node_accesses(index) - before
        assert [doc["counter"] for doc in result.documents] == [190, 191, 192]
        # A seek touches a descent plus a few leaves, not the whole tree.
        assert walked < 40

    def test_leading_match_rides_the_plan_cache(self, collection):
        collection.insert_many(make_documents(60))
        collection.create_index("category")
        baseline = collection.planner.cache_stats()["hits"]
        for value in ("cat0", "cat1", "cat2", "cat0"):
            collection.aggregate(
                [{"$match": {"category": value}},
                 {"$group": {"_id": None, "n": {"$count": {}}}}])
        assert collection.planner.cache_stats()["hits"] >= baseline + 3

    def test_aggregation_cost_is_accounted(self, collection):
        collection.insert_many(make_documents(50))
        result = collection.aggregate(
            [{"$group": {"_id": "$category", "n": {"$count": {}}}}])
        assert result.simulated_seconds > 0
        # Bulk scan with a pushed limit charges only what it consumed.
        limited = collection.aggregate([{"$limit": 5}])
        assert 0 < limited.simulated_seconds < result.simulated_seconds


class TestSourceStopsEarly:
    """A pipeline source is a stream: when the pipeline stops pulling, the
    source has examined -- and charged -- only what was consumed.  Neither
    limit below lets the planner stop the source, so a source materialised
    before the stages ran would examine every candidate; the simulated costs
    are those of the tree before the read loops were stated once (ISSUE
    17)."""

    #: ``$limit`` behind a second ``$match``: not pushable into the source.
    UNPUSHABLE = [{"$match": {"counter": {"$gte": 10}}},
                  {"$match": {"category": "cat1"}}, {"$limit": 5}]
    #: ``$sort`` + ``$limit`` on a covering index: the walk stops at the limit.
    ORDERED_WALK = [{"$match": {"category": "cat2"}},
                    {"$sort": {"counter": 1}}, {"$limit": 5}]
    #: seed -> (examined, simulated ticks) of each, wiredTiger, 300 documents.
    EXPECTED = {
        7: ((21, 318_000_000), (20, 301_500_000)),
        17: ((21, 318_000_000), (18, 271_500_000)),
        42: ((32, 481_500_000), (10, 153_000_000)),
    }

    @pytest.mark.parametrize("seed", sorted(EXPECTED))
    def test_examined_and_charged_only_what_was_consumed(self, seed):
        server = DocumentServer("wiredtiger")
        collection = server.database("db").collection("events")
        collection.insert_many(make_documents(300, seed))
        collection.create_index("counter")
        server.set_profiling(2, slow_ms=0.0)
        for pipeline, (examined, ticks) in zip(
                (self.UNPUSHABLE, self.ORDERED_WALK), self.EXPECTED[seed]):
            result = collection.aggregate(pipeline)
            assert len(result.documents) == 5
            span = server.get_slow_ops()[-1]
            assert span["docs_examined"] == examined < 300
            assert result.ticks == ticks

    #: A full-collection (``BULK_SCAN``) source cut by a ``$limit`` the source
    #: stops at itself, and by one it cannot see (behind a ``$match``).
    BULK_PUSHABLE = [{"$limit": 3}]
    BULK_UNPUSHABLE = [{"$project": {"counter": 1}},
                       {"$match": {"counter": {"$gte": 30}}}, {"$limit": 3}]

    @staticmethod
    def _bill(engine) -> int:
        return engine.scan_cost_per_document() + engine.point_read_cost_estimate()

    @pytest.mark.parametrize("pipeline", [BULK_PUSHABLE, BULK_UNPUSHABLE],
                             ids=["pushable", "unpushable"])
    def test_a_stopped_bulk_scan_bills_every_document_it_examined(self, pipeline):
        """The consumer closes the source while it is suspended at its
        ``yield``: the document it had just handed over used to go unbilled
        (``$limit 3`` examined 3, charged 2)."""
        server = DocumentServer("wiredtiger")
        collection = server.database("db").collection("events")
        collection.insert_many(make_documents(300))
        engine = collection.engine
        server.set_profiling(2, slow_ms=0.0)
        scans = engine.costs.counts.get("scan", 0)
        result = collection.aggregate(pipeline)
        assert len(result.documents) == 3
        span = server.get_slow_ops()[-1]
        assert span["access_path"] == BULK_SCAN
        examined = span["docs_examined"]
        assert 3 <= examined < 300 and (examined == 3) == (pipeline[0] == {"$limit": 3})
        assert engine.costs.counts["scan"] - scans == examined
        assert result.ticks == self._bill(engine) * examined

    @pytest.mark.parametrize("pipeline", [BULK_PUSHABLE, BULK_UNPUSHABLE],
                             ids=["pushable", "unpushable"])
    def test_so_does_every_shard_the_merge_stopped(self, pipeline):
        cluster = build_topology(TopologySpec(shards=4))
        handle = DocumentClient(cluster).collection("db", "events")
        handle.insert_many(make_documents(200))
        engines = [shard.database("db").collection("events").engine
                   for shard in cluster.shards]
        scans = [engine.costs.counts.get("scan", 0) for engine in engines]
        recorded = len(cluster.get_slow_ops())
        cluster.set_profiling(2, slow_ms=0.0)
        result = handle.aggregate_with_cost(pipeline)
        cluster.set_profiling(0)
        assert len(result.documents) == 3
        spans = {span["source"]: span for span in cluster.get_slow_ops()[recorded:]
                 if span["source"] != "router"}
        assert len(spans) == 4
        for index, engine in enumerate(engines):
            examined = spans[f"shard{index}"]["docs_examined"]
            assert 1 <= examined < 50  # its share, not its fifty documents
            assert engine.costs.counts["scan"] - scans[index] == examined
            assert (result.shard_costs[f"shard{index}"]
                    == self._bill(engine) * examined)
        cluster.close()


# -- randomized differential -------------------------------------------------------


def random_pipeline(rng: random.Random) -> list[dict]:
    pipeline: list[dict] = []
    if rng.random() < 0.6:
        pipeline.append({"$match": rng.choice([
            {"category": "cat1"},
            {"counter": {"$gte": rng.randrange(80)}},
            {"active": True},
            {"score": {"$ne": None}},
            {"category": {"$in": ["cat0", "cat2"]}},
        ])})
    shape = rng.random()
    if shape < 0.45:
        spec = {"_id": rng.choice(["$category", "$active", None,
                                   {"c": "$category", "a": "$active"}])}
        for name, accumulator in (
            ("n", {"$count": {}}), ("total", {"$sum": "$counter"}),
            ("mean", {"$avg": "$counter"}), ("lo", {"$min": "$score"}),
            ("hi", {"$max": "$score"}), ("ones", {"$sum": 1}),
        ):
            if rng.random() < 0.5:
                spec[name] = accumulator
        pipeline.append({"$group": spec})
        if rng.random() < 0.3:
            pipeline.append({"$limit": rng.randrange(1, 4)})
    elif shape < 0.8:
        field = rng.choice(["counter", "score", "category"])
        pipeline.append({"$sort": {field: rng.choice([1, -1])}})
        if rng.random() < 0.7:
            pipeline.append({"$limit": rng.randrange(1, 25)})
    else:
        pipeline.append({"$project": rng.choice([
            {"category": 1, "counter": 1},
            {"tags": 0, "score": 0},
            {"counter": 1, "_id": 0},
        ])})
    return pipeline


class TestRandomizedDifferential:
    def test_pipeline_matches_brute_force(self, collection):
        documents = make_documents(120)
        collection.insert_many(documents)
        collection.create_index("category")
        collection.create_index("counter")
        rng = random.Random(2024)
        for __ in range(60):
            pipeline = random_pipeline(rng)
            result = collection.aggregate(pipeline).documents
            expected = reference_pipeline(documents, pipeline)
            if ordered_output(pipeline):
                assert result == expected, pipeline
            else:
                assert canonical(result) == canonical(expected), pipeline

    def test_sharded_matches_standalone(self):
        documents = make_documents(150, seed=11)
        single = DocumentClient(DocumentServer()).collection("db", "events")
        cluster = build_topology(
            TopologySpec(shards=3, shard_key="_id", shard_strategy="hash"))
        sharded = DocumentClient(cluster).collection("db", "events")
        for handle in (single, sharded):
            handle.insert_many(documents)
            handle.create_index("category")
            handle.create_index("counter")
        cluster.maintain("db", "events")
        rng = random.Random(99)
        for __ in range(60):
            pipeline = random_pipeline(rng)
            alone = single.aggregate(pipeline)
            routed = sharded.aggregate(pipeline)
            if ordered_output(pipeline):
                assert routed == alone, pipeline
            else:
                assert canonical(routed) == canonical(alone), pipeline

    def test_replicated_matches_standalone(self):
        documents = make_documents(80, seed=3)
        single = DocumentClient(DocumentServer()).collection("db", "events")
        replica_set = build_topology(TopologySpec(replicas=3))
        replicated = DocumentClient(replica_set).collection("db", "events")
        for handle in (single, replicated):
            handle.insert_many(documents)
            handle.create_index("counter")
        rng = random.Random(5)
        for __ in range(20):
            pipeline = random_pipeline(rng)
            alone = single.aggregate(pipeline)
            routed = replicated.aggregate(pipeline)
            if ordered_output(pipeline):
                assert routed == alone, pipeline
            else:
                assert canonical(routed) == canonical(alone), pipeline


# -- the shard split ---------------------------------------------------------------


class TestShardSplit:
    def test_group_is_pushed_down(self):
        split = split_pipeline(
            [{"$match": {"a": 1}},
             {"$group": {"_id": "$c", "n": {"$count": {}}}},
             {"$sort": {"n": -1}}])
        assert split.mode == "group"
        assert split.shard_stages.raw == [{"$match": {"a": 1}}]
        assert split.router_stages.raw == [{"$sort": {"n": -1}}]

    def test_sort_before_group_blocks_group_pushdown(self):
        split = split_pipeline(
            [{"$sort": {"counter": 1}}, {"$limit": 10},
             {"$group": {"_id": "$category", "n": {"$count": {}}}}])
        assert split.mode == "sort"
        assert split.merge_limit == 10
        assert split.router_stages.raw == [
            {"$group": {"_id": "$category", "n": {"$count": {}}}}]

    def test_limit_before_group_blocks_group_pushdown(self):
        split = split_pipeline(
            [{"$limit": 10},
             {"$group": {"_id": "$category", "n": {"$count": {}}}}])
        assert split.mode == "stream"
        assert split.merge_limit == 10

    def test_top_k_before_group_is_still_correct_sharded(self):
        # The differential guarantee for exactly the shape that would go
        # wrong if $group were pushed below a global top-k.
        documents = make_documents(120, seed=21)
        single = DocumentClient(DocumentServer()).collection("db", "events")
        cluster = build_topology(TopologySpec(shards=4, shard_key="_id"))
        sharded = DocumentClient(cluster).collection("db", "events")
        for handle in (single, sharded):
            handle.insert_many(documents)
        pipeline = [{"$sort": {"counter": 1}}, {"$limit": 15},
                    {"$group": {"_id": "$category", "n": {"$count": {}},
                                "total": {"$sum": "$counter"}}}]
        assert sharded.aggregate(pipeline) == single.aggregate(pipeline)

    def test_sharded_explain_reports_split_and_shard_plans(self):
        cluster = build_topology(TopologySpec(shards=3, shard_key="_id"))
        handle = DocumentClient(cluster).collection("db", "events")
        handle.insert_many(make_documents(60))
        handle.create_index("category")
        report = handle.explain(
            [{"$match": {"category": "cat1"}},
             {"$group": {"_id": "$active", "n": {"$count": {}}}}])
        assert report["sharded"] is True
        assert report["split"]["mode"] == "group"
        assert report["split"]["partial_group"] == {
            "_id": "$active", "n": {"$count": {}}}
        assert len(report["shard_plans"]) == report["shard_count"]
        for plan in report["shard_plans"].values():
            assert plan["winning_plan"]["access_path"] == INDEX_EQ
            assert plan["winning_plan"]["access_path"] != FULL_SCAN


# -- distinct ----------------------------------------------------------------------


class TestDistinct:
    def test_distinct_semantics(self, collection):
        collection.insert_many([
            {"_id": "a", "v": 1}, {"_id": "b", "v": None}, {"_id": "c"},
            {"_id": "d", "v": [2, 3, 2]}, {"_id": "e", "v": 1.0},
            {"_id": "f", "v": True},
        ])
        values = collection.distinct("v")
        # Missing contributes nothing; null is a value; arrays unwind;
        # 1 and 1.0 collapse; True stays distinct from 1; None sorts first.
        assert values == [None, True, 1, 2, 3]

    def test_distinct_with_query(self, collection):
        collection.insert_many(make_documents(60))
        values = collection.distinct("category", {"counter": {"$gte": 50}})
        expected = sorted(
            {doc["category"] for doc in make_documents(60)
             if doc["counter"] >= 50})
        assert values == expected

    def test_sharded_distinct_matches_standalone(self):
        documents = make_documents(100, seed=13)
        single = DocumentClient(DocumentServer()).collection("db", "events")
        cluster = build_topology(TopologySpec(shards=3, shard_key="_id"))
        sharded = DocumentClient(cluster).collection("db", "events")
        for handle in (single, sharded):
            handle.insert_many(documents)
        for field in ("category", "score", "tags", "active"):
            assert sharded.distinct(field) == single.distinct(field)
        assert (sharded.distinct("category", {"active": True})
                == single.distinct("category", {"active": True}))


# -- client cursors ----------------------------------------------------------------


class TestFindCursor:
    def test_sort_limit_matches_find_plus_sort(self):
        server = DocumentServer()
        handle = DocumentClient(server).collection("db", "events")
        documents = make_documents(60)
        handle.insert_many(documents)
        handle.create_index("counter")
        cursor = handle.find_cursor({"active": True}).sort("counter", -1).limit(5)
        expected = _ref_sort(
            [doc for doc in documents if doc.get("active") is True],
            {"counter": -1})[:5]
        assert cursor.to_list() == expected

    def test_ascending_sort_uses_ordered_walk(self):
        server = DocumentServer()
        handle = DocumentClient(server).collection("db", "events")
        handle.insert_many([{"_id": f"d{index:03d}", "counter": index}
                            for index in range(100)])
        handle.create_index("counter")
        collection = server.database("db").collection("events")
        index = collection.index_for("counter")
        before = tree_node_accesses(index)
        rows = handle.find_cursor().sort("counter").limit(4).to_list()
        assert [row["counter"] for row in rows] == [0, 1, 2, 3]
        # The walk stops after 4 documents instead of touching the tree for
        # a full materialise-and-sort.
        assert tree_node_accesses(index) - before < 30

    def test_cursor_returns_copies(self):
        handle = DocumentClient(DocumentServer()).collection("db", "events")
        handle.insert_many([{"_id": "a", "counter": 1, "inner": {"x": 1}}])
        row = handle.find_cursor().sort("counter").to_list()[0]
        row["inner"]["x"] = 99
        assert handle.find_one({"_id": "a"})["inner"]["x"] == 1

    def test_sharded_cursor_sort_matches_standalone(self):
        documents = make_documents(90, seed=17)
        single = DocumentClient(DocumentServer()).collection("db", "events")
        cluster = build_topology(TopologySpec(shards=3, shard_key="_id"))
        sharded = DocumentClient(cluster).collection("db", "events")
        for handle in (single, sharded):
            handle.insert_many(documents)
            handle.create_index("counter")
        alone = single.find_cursor().sort("counter").limit(20).to_list()
        routed = sharded.find_cursor().sort("counter").limit(20).to_list()
        assert routed == alone

    def test_skip_composes_with_ordered_fetch(self):
        handle = DocumentClient(DocumentServer()).collection("db", "events")
        handle.insert_many([{"_id": f"d{index}", "counter": index}
                            for index in range(20)])
        handle.create_index("counter")
        rows = handle.find_cursor().sort("counter").skip(5).limit(3).to_list()
        assert [row["counter"] for row in rows] == [5, 6, 7]
