"""What the engine tests share: twin engines after the same writes, the
state a read may leave behind, the reference engine that bills every miss
by formula, and the counters a test reads below the client -- B-tree shape,
index node accesses, Python calls.

``churn`` writes one seeded history on an engine (documents keyed by
``_id``) or a collection; ``assert_same_engine`` compares two engines by
everything a pass may leave behind; ``assert_billed_alike`` holds a pass of
wiredTiger to :class:`FormulaBilled`'s.
"""

from __future__ import annotations

import gc
import random
import sys
from typing import Any

from repro.docstore.engine_base import StorageEngine
from repro.docstore.indexes import SecondaryIndex
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.wiredtiger import WiredTigerEngine
from tests.docstore.reference import measure_document

#: A cache smaller than the data (every pass evicts) and one larger; mmapv1's
#: page-fault surcharge starts once the padded data outgrows ``memory_bytes``.
ENGINES = {
    "wiredtiger-small-cache": lambda: WiredTigerEngine(cache_bytes=6_000),
    "wiredtiger-large-cache": lambda: WiredTigerEngine(cache_bytes=1 << 24),
    "mmapv1-small-memory": lambda: MmapV1Engine(memory_bytes=20_000),
    "mmapv1-large-memory": lambda: MmapV1Engine(),
}


def store_one(engine: StorageEngine, record_id: str,
              document: dict | None = None) -> int:
    """``store_batch`` of one record: an insert or an update of ``document``
    (sized here), a delete without one."""
    size = 0 if document is None else measure_document(document)
    return engine.store_batch([(record_id, document, size)])


def document(index: int, rng: random.Random) -> dict[str, Any]:
    return {"_id": f"k{index:04d}", "n": index, "active": bool(index % 2),
            "category": f"cat{index % 5}", "pad": "x" * rng.randrange(10, 400)}


def churn(store: Any, seed: int, count: int = 300) -> None:
    """Inserts, then updates (some grow the document) and deletes: internal
    B-tree entries are deleted, mmapv1 records move, caches hold stale sizes.
    ``store`` is an engine (documents keyed by ``_id``) or a collection."""
    rng = random.Random(seed)
    documents = [document(index, rng) for index in range(count)]
    on_engine = isinstance(store, StorageEngine)
    if on_engine:
        for each in documents:
            store_one(store, each["_id"], each)
    else:
        store.insert_many(documents)
    for index in rng.sample(range(count), count // 3):
        changed = dict(documents[index], pad="y" * rng.randrange(10, 900))
        if on_engine:
            store_one(store, changed["_id"], changed)
        else:
            store.replace_one({"_id": changed["_id"]}, changed)
    for index in rng.sample(range(count), count // 5):
        if on_engine:
            store_one(store, f"k{index:04d}")
        else:
            store.delete_one({"_id": f"k{index:04d}"})


def engine_state(engine: StorageEngine) -> dict[str, Any]:
    """Everything a pass may leave behind."""
    engine.verify_accounting()
    state: dict[str, Any] = {
        "totals": dict(engine.costs.totals),
        "counts": dict(engine.costs.counts),
        "documents": list(engine.scan_uncharged()),
    }
    if isinstance(engine, WiredTigerEngine):
        state["cache"] = engine._cache.stats.snapshot()
        state["resident"] = list(engine._cache._entries.items())  # LRU order
        state["node_accesses"] = engine._tree.node_accesses
    return state


def assert_same_engine(engine: StorageEngine, reference: StorageEngine) -> None:
    assert engine_state(engine) == engine_state(reference)


class FormulaBilled(WiredTigerEngine):
    """wiredTiger with every cache miss billed by a call of ``_miss_cost``,
    as before the engine memoised miss ticks by size: the reference its
    read paths are compared with.  ``read_scan`` and ``read_ids`` are the
    base loops over this ``read``, ``drain`` those loops drained, and the
    memo is a stub that raises, so the reference and the engine share no
    memo."""

    read_scan = StorageEngine.read_scan
    read_ids = StorageEngine.read_ids
    drain = StorageEngine.drain

    def __init__(self, **options):
        super().__init__(**options)
        self._miss_ticks = self._no_memo

    @staticmethod
    def _no_memo(size: int) -> int:
        raise AssertionError(f"the reference billed a {size}-byte miss from a memo")

    def read(self, record_id: str) -> tuple[dict | None, int]:
        found, record, visited = self._tree.search(record_id)
        cost = self.tick_costs.base_operation + visited * self.tick_costs.node_access
        if not found:
            return None, self.costs.charge("read_miss", cost)
        document, size = record
        if not self._cache.admit(record_id, size):
            cost += self._miss_cost(size)
        return document, self.costs.charge("read", cost)


#: About a quarter of the bytes ``churn(seed=13)`` leaves stored (86,056).
BILLED_CACHE = 20_000


def billed_twins() -> tuple[WiredTigerEngine, FormulaBilled]:
    """wiredTiger and the reference that bills every miss with a call of
    ``_miss_cost``, after the same writes: at least four times the bytes
    their caches hold."""
    pair = (WiredTigerEngine(cache_bytes=BILLED_CACHE),
            FormulaBilled(cache_bytes=BILLED_CACHE))
    for engine in pair:
        churn(engine, seed=13)
    stored = sum(size for __, (__, size) in pair[0]._tree.items())
    assert stored >= 4 * BILLED_CACHE
    return pair


def assert_billed_alike(way: Any) -> None:
    """Three rounds, each a few point reads of the same ids (a pass meets
    them resident: hits beside the misses) and then the pass ``way(engine)``
    returns the yield of: the engine and the reference yield the same
    documents at the same cost, each pass's ticks are what its yield says,
    and they end in the same state -- totals and counts, cache hits /
    misses / evictions, residency in LRU order, node accesses.  The engine
    billed its misses through its memo; the reference has none."""
    engine, reference = billed_twins()
    hot = [record_id for record_id, __ in engine.scan_uncharged()][::25]
    for __ in range(3):
        for each in engine, reference:
            for record_id in hot:
                each.read(record_id)
        ticks = sum(engine.costs.totals.values())
        yielded = way(engine)
        assert yielded == way(reference)
        assert sum(engine.costs.totals.values()) - ticks == sum(
            cost for __, cost in yielded)
    assert_same_engine(engine, reference)
    stats = engine._cache.stats
    assert stats.hits > 0 and stats.misses > 0 and stats.evictions > 0
    assert engine._miss_ticks.cache_info().hits > 0


def shape(node: Any) -> tuple:
    """A node and everything under it, by value: what "node for node"
    compares."""
    return (tuple(node.keys), tuple(node.values),
            tuple(shape(child) for child in node.children))


def tree_node_accesses(index: SecondaryIndex) -> int:
    """An index tree's cumulative node-access counter: every reader's and
    writer's visits so far (a walk's own cost is its ``visited`` cell)."""
    return index._tree.node_accesses


def calls(operation, handle: Any, of: str | None = None,
          made_in: str = "") -> int:
    """Python ``call`` events of one ``operation(handle)``, its own excluded
    -- or, given ``of``, only the calls of the function of that name (made
    from a file whose path ends in ``made_in``).  This thread's only.

    The collector is held off meanwhile: a finalizer of some earlier test's
    garbage (a cluster's closes its executor) would be counted as well.
    """
    count = -1 if of is None else 0

    def profile(frame, event, argument) -> None:
        nonlocal count
        if event == "call" and (of is None or (
                frame.f_code.co_name == of
                and frame.f_back.f_code.co_filename.endswith(made_in))):
            count += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        operation(handle)
    finally:
        sys.setprofile(None)
        gc.enable()
    return count
