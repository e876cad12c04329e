"""Tests for the B-tree used by the wiredTiger-like engine."""

from __future__ import annotations

import bisect
import random
from types import SimpleNamespace
from typing import Any, Iterator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore import btree
from repro.docstore.btree import BTree
from tests.docstore.engine_helpers import shape

#: A mix of writes over a few keys: inserts -- an overwrite when the key is
#: present -- and deletes, which at order 4 hit internal entries often.
WRITES = st.lists(st.tuples(st.sampled_from(["insert", "insert", "delete"]),
                            st.integers(0, 60)), max_size=150)


def apply(tree: BTree, writes: list[tuple[str, int]], step: int = 0) -> list[tuple]:
    """Each write in order on ``tree`` (or on a run of it); what each answered."""
    return [tree.insert(key, step + position) if operation == "insert"
            else tree.delete(key)
            for position, (operation, key) in enumerate(writes)]



def runs(tree: BTree) -> list[tuple[int, list, list]]:
    return [(depth, list(keys), list(values)) for depth, keys, values in tree.runs()]


class TestBasicOperations:
    def test_insert_and_get(self):
        tree = BTree(order=4)
        tree.insert("b", 2)
        tree.insert("a", 1)
        assert tree.get("a") == (True, 1)
        assert tree.get("b") == (True, 2)
        assert tree.get("c") == (False, None)

    def test_overwrite_keeps_size(self):
        tree = BTree(order=4)
        tree.insert("a", 1)
        tree.insert("a", 2)
        assert len(tree) == 1
        assert tree.get("a") == (True, 2)

    def test_len_tracks_inserts(self):
        tree = BTree(order=4)
        for index in range(50):
            tree.insert(index, index)
        assert len(tree) == 50

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            BTree(order=3)


class TestOrderingAndIteration:
    def test_items_in_order_after_random_inserts(self):
        tree = BTree(order=6)
        keys = list(range(200))
        random.Random(1).shuffle(keys)
        for key in keys:
            tree.insert(key, key * 10)
        assert [key for key, _ in tree.items()] == sorted(range(200))

    def test_range_scan(self):
        tree = BTree(order=6)
        for key in range(100):
            tree.insert(key, key)
        assert [key for key, _ in tree.range(10, 15)] == [10, 11, 12, 13, 14, 15]

    def test_depth_grows_logarithmically(self):
        tree = BTree(order=8)
        for key in range(500):
            tree.insert(key, key)
        assert 2 <= tree.depth() <= 6

    def test_node_accesses_counted(self):
        tree = BTree(order=4)
        for key in range(100):
            tree.insert(key, key)
        before = tree.node_accesses
        tree.get(57)
        assert tree.node_accesses > before

    def test_interleaved_walks_each_count_their_own_visits(self):
        """A suspended walk is not billed for what others do to the tree
        meanwhile: ``visited`` holds the nodes *this* walk went through."""
        tree = BTree(order=4)
        for key in range(200):
            tree.insert(key, key)

        def alone(low: int, high: int) -> int:
            visited = [0]
            assert len(list(tree.range(low, high, visited))) == high - low + 1
            return visited[0]

        short, long = alone(10, 19), alone(50, 149)
        assert 0 < short < long
        first, second = [0], [0]
        one, other = tree.range(10, 19, first), tree.range(50, 149, second)
        next(one)
        descent = first[0]
        assert descent == tree.depth() and second[0] == 0  # not started yet
        for step in range(100):  # the long walk, an insert and a lookup between
            next(other)
            tree.insert(1000 + step, step)
            tree.get(step)
        assert first[0] == descent  # ... moved nothing of the suspended one's
        assert len(list(one)) == 9 and list(other) == []
        assert (first[0], second[0]) == (short, long)
        assert tree.node_accesses > short + long  # the tree-wide counter: everyone's


class TestDeletion:
    def test_delete_leaf_key(self):
        tree = BTree(order=4)
        for key in range(20):
            tree.insert(key, key)
        found = tree.search(7)  # what the delete's own descent learns
        assert tree.delete(7) == found == (True, 7, found[2])
        assert tree.get(7) == (False, None)
        assert len(tree) == 19

    def test_delete_internal_key(self):
        tree = BTree(order=4)
        for key in range(50):
            tree.insert(key, key)
        # Delete every third key, including internal separators.
        for key in range(0, 50, 3):
            assert tree.delete(key)[:2] == (True, key)
        remaining = [key for key, _ in tree.items()]
        assert remaining == [key for key in range(50) if key % 3 != 0]

    def test_delete_missing_returns_false(self):
        tree = BTree(order=4)
        tree.insert(1, 1)
        assert tree.delete(99) == (False, None, 1)
        assert len(tree) == 1

    def test_invariants_hold_after_mixed_operations(self):
        tree = BTree(order=5)
        rng = random.Random(7)
        present = set()
        for _ in range(500):
            key = rng.randrange(200)
            if key in present and rng.random() < 0.4:
                tree.delete(key)
                present.discard(key)
            else:
                tree.insert(key, key)
                present.add(key)
        tree.check_invariants()
        assert sorted(present) == [key for key, _ in tree.items()]


class TestRunsKnowTheDepthOfEveryKey:
    """``runs()`` is the in-order walk a full scan is billed from: the depth
    it reports for a key must be what ``search(key)`` would have visited --
    this is a classic B-tree, internal nodes hold entries, so it varies."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["insert", "insert", "delete"]),
                              st.integers(0, 60)), max_size=200))
    def test_depth_equals_search_after_any_mix_of_writes(self, operations):
        tree = BTree(order=4)  # the smallest order: splits and internal
        model: dict[int, int] = {}  # entries after a handful of keys
        for step, (operation, key) in enumerate(operations):
            if operation == "insert":  # an overwrite when the key is present
                tree.insert(key, step)
                model[key] = step
            else:  # an internal hit swaps in a predecessor / successor
                assert tree.delete(key)[:2] == (key in model, model.get(key))
                model.pop(key, None)
        walked = [(key, value, depth) for depth, keys, values in tree.runs()
                  for key, value in zip(keys, values)]
        assert [(key, value) for key, value, __ in walked] == sorted(model.items())
        assert walked == [(key, *tree.search(key)[1:]) for key in sorted(model)]
        assert list(tree.items()) == sorted(model.items())

    def test_internal_entries_are_shallower_than_leaf_entries(self):
        tree = BTree(order=4)
        for key in range(100):
            tree.insert(key, key)
        depths = {depth for depth, keys, __ in tree.runs() if keys}
        assert depths == set(range(1, tree.depth() + 1))


class TestASortedSearchIsTheSearches:
    """``search_sorted`` is how an index read finds its record ids: one
    descent for all of them, answering each as ``search`` would."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["insert", "insert", "delete"]),
                              st.integers(0, 60)), max_size=200),
           st.lists(st.integers(-5, 65), max_size=80))
    def test_it_answers_what_the_searches_answer(self, operations, asked):
        """Found, value and the depth visited, per key -- present and absent,
        duplicates included, after deletes that leave entries in internal
        nodes.  (``node_accesses`` is the consumer's to move, as with
        ``runs()``: the engine's pass lands the visits of what it took.)"""
        tree = BTree(order=4)
        for step, (operation, key) in enumerate(operations):
            if operation == "insert":
                tree.insert(key, step)
            else:
                tree.delete(key)
        keys = sorted(asked)
        answered = list(tree.search_sorted(keys))
        assert answered == [tree.search(key) for key in keys]

    def test_each_node_is_entered_once(self, monkeypatch):
        """A bisect of a node's keys either answers a key or enters one of
        its children, so entering each node once makes the bisects at most
        one per key plus one per node below the root -- where a search per
        key makes one per node on each key's path."""
        tree = BTree(order=4)
        for key in range(0, 400, 2):
            tree.insert(key, key)
        keys = list(range(-1, 402))  # every key and the absent one beside it
        node_bisects = 0

        def bisect_left(items, key, low=0, high=None):
            nonlocal node_bisects
            node_bisects += items is not keys
            return bisect.bisect_left(
                items, key, low, len(items) if high is None else high)

        monkeypatch.setattr(btree, "bisect", SimpleNamespace(bisect_left=bisect_left))
        answered = list(tree.search_sorted(keys))
        monkeypatch.undo()

        def nodes(node) -> int:
            return 1 + sum(nodes(child) for child in node.children)

        assert answered == [tree.search(key) for key in keys]
        assert node_bisects <= len(keys) + nodes(tree._root) - 1
        assert node_bisects < sum(visited for __, __value, visited in answered)

    def test_a_cut_search_bills_only_the_keys_it_answered(self):
        tree = BTree(order=4)
        for key in range(200):
            tree.insert(key, key)
        keys = list(range(0, 200, 3))
        searches = tree.search_sorted(keys)
        first = [next(searches) for __ in range(7)]
        searches.close()
        # the visits of the keys answered are their depths, for the consumer
        # to land (test_read_ids.py: a cut pass charges only what it yielded)
        assert first == [tree.search(key) for key in keys[:7]]


# -- a run of writes and the loop of single writes it replaces ------------------------


class TestARunIsTheLoop:
    """``BTree.writer()`` mutates in place the nodes it copied itself and
    publishes once; the per-record loop it replaces, ``tree.insert`` /
    ``tree.delete`` one record at a time, is the reference."""

    @settings(max_examples=200, deadline=None)
    @given(WRITES, WRITES, st.integers(0, 150))
    def test_a_run_leaves_the_tree_the_loop_leaves(self, before, run, cut):
        """The same nodes, entries, depths, answers per record, size and node
        accesses -- also for a run published halfway and then continued --
        while the published tree stays untouched until the run publishes."""
        looped, batched = BTree(order=4), BTree(order=4)
        for tree in looped, batched:
            apply(tree, before)
        published, frozen, items = batched._root, shape(batched._root), list(batched.items())
        expected = apply(looped, run, step=1000)
        writer = batched.writer()
        answered = apply(writer, run[:cut], step=1000)
        assert batched._root is published and list(batched.items()) == items
        writer.publish()
        answered += apply(writer, run[cut:], step=1000 + len(run[:cut]))
        writer.publish()
        assert answered == expected
        assert shape(batched._root) == shape(looped._root)
        assert runs(batched) == runs(looped)
        assert list(batched.items()) == list(looped.items())
        assert (len(batched), batched.depth()) == (len(looped), looped.depth())
        assert batched.node_accesses == looped.node_accesses
        assert shape(published) == frozen  # no node a reader could hold moved
        batched.check_invariants()

    def test_a_search_between_two_records_sees_the_tree_before_the_run(self):
        tree = BTree(order=4)
        apply(tree, [("insert", key) for key in range(0, 100, 2)])
        before = [tree.search(key) for key in range(100)]
        writer = tree.writer()
        for key in range(100):
            if key % 3:
                writer.insert(key, -key)
            else:
                writer.delete(key)
            assert [tree.search(each) for each in range(100)] == before
        writer.publish()
        assert [key for key, __ in tree.items()] == [
            key for key in range(100) if key % 3]
        assert len(tree) == len(list(tree.items()))

    def test_a_run_copies_each_node_once(self, monkeypatch):
        """A thousand ascending keys: the loop copies a root-to-leaf path per
        key, a run only the nodes it has not copied yet."""
        copies = 0
        clone = btree._clone

        def counted(node, owned):
            nonlocal copies
            copies += 1
            return clone(node, owned)

        monkeypatch.setattr(btree, "_clone", counted)
        looped, batched = BTree(order=8), BTree(order=8)
        apply(looped, [("insert", key) for key in range(1000)])
        looped_copies, copies = copies, 0
        writer = batched.writer()
        apply(writer, [("insert", key) for key in range(1000)])
        writer.publish()
        assert shape(batched._root) == shape(looped._root)
        assert copies == 1  # the published empty root; the rest the run made
        assert looped_copies > 2 * 1000


# -- the replacement entry of an internal delete ---------------------------------------


def _first_entry(items: Iterator[tuple[Any, Any]]) -> tuple[Any, Any] | None:
    for item in items:
        return item
    return None


def _last_entry(items: Iterator[tuple[Any, Any]]) -> tuple[Any, Any] | None:
    last = None
    for item in items:
        last = item
    return last


def reference_end_entry(node: Any, end: int) -> tuple[Any, Any] | None:
    """How an internal delete found its replacement before: the in-order
    predecessor by walking every entry under the left subtree, the successor
    by walking the right one up to its first entry."""
    entries = BTree()._entries(node)
    return _first_entry(entries) if end == 0 else _last_entry(entries)


class TestAnInternalDeleteWalksOneSpine:
    @settings(max_examples=200, deadline=None)
    @given(WRITES)
    def test_it_finds_what_the_in_order_walk_found(self, writes):
        tree, reference = BTree(order=4), BTree(order=4)
        assert apply(tree, writes) == _applied_with_reference(reference, writes)
        assert shape(tree._root) == shape(reference._root)
        assert list(tree.items()) == list(reference.items())
        assert runs(tree) == runs(reference)
        keys = range(-1, 62)
        assert [tree.search(key) for key in keys] == [
            reference.search(key) for key in keys]

    def test_it_backs_up_past_emptied_nodes_and_stops_at_the_first_entry(self):
        tree = BTree(order=4)
        apply(tree, [("insert", key) for key in range(200)])
        apply(tree, [("delete", key) for key in range(150, 200)])  # empties
        apply(tree, [("delete", key) for key in range(0, 40)])  # the spines
        entered = 0
        end_entry = btree._end_entry

        def counted(node, end):
            nonlocal entered
            entered += 1
            return end_entry(node, end)

        for node in _nodes(tree._root):
            for end in (0, -1):
                entered = 0
                with mock.patch.object(btree, "_end_entry", counted):
                    found = btree._end_entry(node, end)
                assert found == reference_end_entry(node, end)
                assert entered <= _height(node)  # one node a level


def _applied_with_reference(tree: BTree, writes: list[tuple[str, int]]) -> list[tuple]:
    with mock.patch.object(btree, "_end_entry", reference_end_entry):
        return apply(tree, writes)


def _nodes(node: Any) -> Iterator[Any]:
    yield node
    for child in node.children:
        yield from _nodes(child)


def _height(node: Any) -> int:
    return 1 + max((_height(child) for child in node.children), default=0)
