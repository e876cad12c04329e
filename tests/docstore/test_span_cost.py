"""A recorded span costs what it records -- and records what it did (ISSUE 24).

Four paths of ``observability.py`` were replaced by cheaper ones; each old
path is kept *here*, as the reference the new one must equal:

(i)   the slow-op log keeps finished spans and renders them when read -- the
      reference renders every span at ``finish`` time, as the log used to, and
      books it the way ``Profiler.finish`` used to (separate registry calls,
      ``setdefault`` for ``top``);
(ii)  ``render_query_shape`` answers a repeated shape from a memo -- the
      reference is the un-memoised ``json.dumps`` of the type-marker walk;
(iii) a histogram finds its bucket by ``bisect`` -- the reference is the loop;
(iv)  a span is booked in one registry round -- the reference is the separate
      ``increment`` / ``observe`` calls.
"""

from __future__ import annotations

import enum
import json
import math
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore import observability
from repro.docstore.client import DocumentClient
from repro.docstore.cost import TICKS_PER_SECOND
from repro.docstore.observability import (
    HISTOGRAM_BUCKETS_MS,
    LatencyHistogram,
    MetricsRegistry,
    Profiler,
    render_query_shape,
)
from repro.docstore.operations import ROUTED
from repro.docstore.sharding import ShardedCluster
from repro.errors import DocumentStoreError
from tests.docstore.deployments import build
from tests.docstore.reference import every_row

# -- (i) read from the ring == rendered at finish ----------------------------------

TICKS_PER_MS = TICKS_PER_SECOND // 1000


def book_as_before(registry: MetricsRegistry, top: dict, entry: dict,
                   slow_ms: float) -> None:
    """What ``Profiler.finish`` did with a span at level 2, from its record."""
    op, simulated_ms = entry["op"], entry["simulated_ms"]
    registry.increment(f"operations.{op}")
    registry.observe(f"latency.{op}", simulated_ms)
    if entry["lock_wait_ms"]:
        registry.observe("lock_wait", entry["lock_wait_ms"])
    if "errored" in entry:
        registry.increment(f"errors.{op}")
    slot = top.setdefault(entry["ns"], {}).setdefault(op, {"count": 0, "ticks": 0})
    slot["count"] += 1
    slot["ticks"] += round(simulated_ms * TICKS_PER_MS)  # summed as ticks
    if simulated_ms > slow_ms:
        registry.increment("slow_ops")


def render_top(top: dict) -> dict:
    """``top`` as ``Profiler.top`` reports it: milliseconds."""
    return {namespace: {op: {"count": slot["count"],
                             "simulated_ms": slot["ticks"] / TICKS_PER_MS}
                        for op, slot in sorted(ops.items())}
            for namespace, ops in sorted(top.items())}


def merge_as_before(sources, limit=None):
    """``merge_slow_ops`` while it copied every entry to tag it."""
    merged = []
    for source, entries in sources:
        for entry in entries:
            tagged = dict(entry)
            tagged["source"] = source
            merged.append(tagged)
    merged.sort(key=lambda entry: entry.get("started", 0.0))
    return merged if limit is None else merged[-limit:]


@pytest.fixture
def rendered_at_finish(monkeypatch) -> dict[int, list[dict]]:
    """``id(profiler)`` -> the record of every span it finished, rendered then."""
    rendered: dict[int, list[dict]] = defaultdict(list)
    finish = Profiler.finish

    def finish_and_render(self, span):
        finish(self, span)
        rendered[id(self)].append(span.as_dict())

    monkeypatch.setattr(Profiler, "finish", finish_and_render)
    return rendered


def drive(handle, seed: int) -> None:
    """``reference.every_row``, a point read, an operation that raises and
    two limited reads (a ``ShardStream`` ends its span) taking turns before
    every second call."""
    rng = random.Random(seed)

    def refused():
        with pytest.raises(DocumentStoreError):
            handle.update_one({}, {"$bogus": {"score": 1}})

    between = [
        lambda: handle.find_with_cost({"_id": f"user{rng.randrange(40):03d}"}),
        refused,
        lambda: handle.find_with_cost(
            {"_id": {"$gte": f"user{rng.randrange(40):03d}"}}, limit=5),
        lambda: handle.aggregate_with_cost([
            {"$match": {"score": {"$gte": rng.randrange(50)}}},
            {"$sort": {"score": 1}}, {"$limit": 4}]),
    ]
    every_row(handle, seed, dict(zip(range(0, 78, 2), between * 10)))


@pytest.mark.parametrize("capacity", [10_000, 7], ids=["all kept", "ring of 7"])
def test_the_log_read_later_is_the_log_rendered_at_finish(
        deployment, capacity, rendered_at_finish):
    handle = DocumentClient(deployment).collection("db", "users")
    handle.create_index("score")
    slow_ms = 0.02  # some spans are slow and some are not
    deployment.set_profiling(2, slow_ms=slow_ms, capacity=capacity)
    rendered_at_finish.clear()
    try:
        drive(handle, seed=24)
    finally:
        deployment.set_profiling(0)

    assert deployment.current_ops() == []
    expected = []
    for source, profiler in deployment.profilers():
        finished = rendered_at_finish[id(profiler)]
        expected.append((source, finished[-capacity:]))
        assert profiler.slow_ops() == finished[-capacity:]
        assert profiler.slow_ops() is not profiler.slow_ops()  # fresh each time
        registry, top = MetricsRegistry(), {}
        for entry in finished:
            book_as_before(registry, top, entry, slow_ms)
        assert profiler.registry.snapshot() == registry.snapshot()
        assert profiler.top() == render_top(top)
        described = profiler.describe()
        assert described["slow_ops_recorded"] == len(finished)
        assert described["slow_ops_dropped"] == max(0, len(finished) - capacity)
    if not deployment.children():  # a server's log is its profiler's, untagged
        assert deployment.get_slow_ops() == expected[0][1]
    else:
        assert deployment.get_slow_ops() == merge_as_before(expected)
        assert deployment.get_slow_ops(5) == merge_as_before(expected, 5)

    if capacity == 7:  # the ring did turn over
        assert deployment.metrics_snapshot()["profiler"]["slow_ops_dropped"] > 0
        return
    entries = deployment.get_slow_ops()
    assert {entry["op"] for entry in entries} == {
        row.span for row in ROUTED if row.span is not None}
    assert any(entry.get("errored") == "DocumentStoreError" for entry in entries)
    if isinstance(deployment, ShardedCluster):
        scatters = [entry for entry in entries if entry["source"] == "router"
                    and entry.get("targeting") == "scatter"]
        measured = [entry for entry in scatters
                    if all("wall_ms" in child for child in entry["shards"])]
        assert measured and all(
            entry["straggler"] in {child["shard"] for child in entry["shards"]}
            and entry["parallel"] for entry in measured)
        assert any(entry["targeting"] == "targeted" and len(entry["shards"]) == 1
                   for entry in entries if entry["source"] == "router")


def test_a_rendered_entry_is_the_readers_own():
    """Whatever a reader does to an entry, the log renders the span again."""
    deployment = build("four-shards")
    handle = DocumentClient(deployment).collection("db", "c")
    handle.insert_many([{"_id": f"k{index}"} for index in range(20)])
    deployment.set_profiling(2, slow_ms=0)
    handle.find_with_cost({})
    untouched = deployment.get_slow_ops()
    for entry in deployment.get_slow_ops():
        entry["op"] = "mine"
        for child in entry.get("shards", ()):
            child.clear()
    assert deployment.get_slow_ops() == untouched


# -- (ii) a memoised shape == the rendered one -------------------------------------


def shape_of(value):
    """The type-marker walk ``render_query_shape`` has always dumped."""
    if isinstance(value, dict):
        return {key: shape_of(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [shape_of(item) for item in value]
    if value is None:
        return "n"
    if isinstance(value, bool):
        return "b"
    if isinstance(value, (int, float)):
        return "#"
    if isinstance(value, str):
        return "s"
    return "D"


def rendered(query) -> str:
    return json.dumps(shape_of(query), sort_keys=True, default=str,
                      separators=(",", ":"))


class Colour(enum.IntEnum):
    RED = 1


class Name(str):
    pass


class Document(dict):
    pass


OPERANDS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5),
    st.binary(max_size=3), st.just(Colour.RED), st.just(Name("n")),
    st.just(object()), st.builds(Document, a=st.integers()))
FIELDS = st.one_of(st.sampled_from(["a", "b", "a.b", "$gte", "$in", "$and", "_id"]),
                   st.text(max_size=4))
VALUES = st.recursive(
    OPERANDS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(FIELDS, children, max_size=4)),
    max_leaves=12)
FILTERS = st.dictionaries(FIELDS, VALUES, max_size=4)
PIPELINES = st.lists(
    st.dictionaries(st.sampled_from(["$match", "$group", "$sort", "$limit"]),
                    VALUES, min_size=1, max_size=1), max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.one_of(FILTERS, PIPELINES))
def test_a_memoised_shape_is_the_rendered_shape(query):
    expected = rendered(query)
    assert render_query_shape(query) == expected
    assert render_query_shape(query) == expected  # from the memo, if it took it
    observability._SHAPES.clear()
    assert render_query_shape(query) == expected


def test_field_names_json_would_coerce_are_not_confused():
    """``1``, ``True`` and ``1.0`` are one dict key and three JSON names."""
    for query in ({1: "x"}, {True: "x"}, {1.0: "x"}, {None: "x"}, {"1": "x"},
                  {"a": {1: "x"}}, {"a": {True: "x"}}, {"a": [{1.0: 2}]}):
        assert render_query_shape(query) == rendered(query)
        assert render_query_shape(query) == rendered(query)
    with pytest.raises(TypeError):
        rendered({1: "x", "a": "y"})
    with pytest.raises(TypeError):
        render_query_shape({1: "x", "a": "y"})


def test_a_shape_is_its_structure_and_its_operand_types():
    observability._SHAPES.clear()
    assert (render_query_shape({"a": 1, "b": {"$in": ["x", "y"]}})
            == render_query_shape({"a": 2.5, "b": {"$in": ["p", "q"]}}))
    assert len(observability._SHAPES) == 1
    shapes = [render_query_shape(query) for query in (
        {"a": 1}, {"a": "1"}, {"a": None}, {"a": True}, {"a": [1]}, {"a": {}},
        {"a": []}, {"b": 1}, [{"a": 1}], {"a": {"b": 1}}, {"a": ["b", 1]})]
    assert len(set(shapes)) == len(shapes)


def leaves(key):
    if isinstance(key, tuple):
        for part in key:
            yield from leaves(part)
    else:
        yield key


def test_the_memo_keeps_no_operand():
    observability._SHAPES.clear()
    operands = ["".join(["secret", str(index)]) for index in range(3)]
    query = {"name": operands[0], "tags": {"$in": operands[1:]}, "n": 12345}
    render_query_shape(query)
    (key,) = observability._SHAPES
    kept = list(leaves(key))
    assert all(leaf in (dict, list) or type(leaf) is str for leaf in kept)
    assert not any(leaf is operand or leaf == operand
                   for leaf in kept for operand in (*operands, 12345, query))
    assert render_query_shape(query) == rendered(query)


# -- (iii) the bucket bisect finds == the bucket the loop found -------------------------


def bucket_by_loop(value_ms: float) -> int:
    index = 0
    for bound in HISTOGRAM_BUCKETS_MS:
        if value_ms <= bound:
            break
        index += 1
    return index


def bucket_observed(value_ms: float) -> int:
    histogram = LatencyHistogram()
    histogram.observe(value_ms)
    assert sum(histogram.counts) == histogram.count == 1
    return histogram.counts.index(1)


def test_bisect_finds_the_bucket_the_loop_found():
    values = [0.0, -1.0, math.inf, 5e-324, 1e9]
    for bound in HISTOGRAM_BUCKETS_MS:
        values += [bound, math.nextafter(bound, 0.0), math.nextafter(bound, math.inf)]
    for value in values:
        assert bucket_observed(value) == bucket_by_loop(value), value
    assert bucket_observed(HISTOGRAM_BUCKETS_MS[0]) == 0
    assert bucket_observed(math.inf) == len(HISTOGRAM_BUCKETS_MS)


@given(st.floats(min_value=0.0, allow_nan=False))
def test_bisect_finds_the_loops_bucket_for_any_latency(value_ms):
    assert bucket_observed(value_ms) == bucket_by_loop(value_ms)


# -- (iv) one registry round == the separate calls -----------------------------------


def test_one_registry_round_books_what_the_separate_calls_booked():
    rng = random.Random(24)
    one_round, separate = MetricsRegistry(), MetricsRegistry()
    for __ in range(500):
        op = rng.choice(["query", "update", "insert", "count"])
        simulated_ms = rng.choice([0.0, rng.random() * 10 ** rng.randrange(-4, 4)])
        lock_wait_ms = rng.choice([0.0, 0.0, rng.random()])
        errored, slow = rng.random() < 0.2, rng.random() < 0.5
        one_round.record_span(op, simulated_ms, lock_wait_ms, errored, slow)
        separate.increment(f"operations.{op}")
        separate.observe(f"latency.{op}", simulated_ms)
        if lock_wait_ms:
            separate.observe("lock_wait", lock_wait_ms)
        if errored:
            separate.increment(f"errors.{op}")
        if slow:
            separate.increment("slow_ops")
    assert one_round.snapshot() == separate.snapshot()
    assert MetricsRegistry.merge([one_round.snapshot()]) == MetricsRegistry.merge(
        [separate.snapshot()])
