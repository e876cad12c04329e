"""A copy-on-write B-tree keyed by record identifier.

The tree stores ``key -> value`` pairs in order, splits nodes when they exceed
the configured order and tracks the number of node accesses so the cost model
can charge for tree depth.  It deliberately implements only what the engine
needs: insert, point lookup, a lookup of many sorted keys in one descent,
delete, in-order iteration and range scans.

**Concurrency model (PR 6).**  Mutations never touch published nodes: they
copy the root-to-leaf path they descend (path copying), build the change on
the private copies and then publish the new tree with a single atomic
assignment of ``self._root``.  Readers grab ``self._root`` once and traverse
a frozen snapshot, so point lookups, iteration and range scans are
*latch-free* -- they can run concurrently with any number of mutations and
always observe a consistent tree (the state as of their root load).  Writers
do NOT serialise each other; the owning engine must hold its own mutation
latch around ``insert``/``delete`` (concurrent unserialised writers would
publish over each other and lose updates).

**A run of writes copies each node once.**  :meth:`BTree.writer` opens a
run: ``insert``, ``delete`` and ``depth`` as on the tree, applied to the
run's own root, which ``publish`` stores in the tree (root and size, once).
A node the run copied -- or split off, or grew as a new root -- belongs to
the run, and no reader can hold it yet, so the run mutates it in place
instead of copying it again (the "transient" of persistent data
structures).  Records are applied in run order through the one descent
:meth:`insert` and :meth:`delete` use, so the published tree, node for node,
and every ``visited`` count are those a loop of single writes leaves.
Readers see the tree before a run or after it, never between.  A run is a
writer like any other: the caller serialises it with every other writer of
the tree, from :meth:`BTree.writer` to ``publish``.

``node_accesses`` is a best-effort cumulative counter: under concurrent
readers its increments can race, and every other reader and writer of the
tree moves it too (a run's visits land when it publishes), so per-operation
costs use the exact per-call counts :meth:`search`, :meth:`insert` and
:meth:`delete` return (per key for :meth:`search_sorted`) and the per-walk
count :meth:`range` keeps in the ``visited`` cell its caller hands it (a
walk may stay suspended for as long as its consumer likes -- a before/after
delta of the cumulative counter would bill it for everyone else's visits).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator

#: What :meth:`BTree._insert_cow` reports replacing when the key was new.
_ABSENT = object()


class _Node:
    """One tree node.  Once reachable from a published root it is immutable;
    mutation paths only ever modify nodes the write owns: copies made by
    :func:`_clone`, split halves and new roots."""

    __slots__ = ("keys", "values", "children")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.values: list[Any] = []
        self.children: list["_Node"] = []

    @property
    def is_leaf(self) -> bool:
        return not self.children


def _clone(node: _Node, owned: set[_Node]) -> _Node:
    """A private copy of ``node``, owned from now on."""
    copy = _Node()
    copy.keys = list(node.keys)
    copy.values = list(node.values)
    copy.children = list(node.children)
    owned.add(copy)
    return copy


class BTree:
    """An order-``order`` copy-on-write B-tree (max ``order - 1`` keys/node)."""

    def __init__(self, order: int = 32):
        if order < 4:
            raise ValueError("B-tree order must be at least 4")
        self._order = order
        self._root = _Node()
        self._size = 0
        self.node_accesses = 0
        # The nodes a write may mutate in place: a run's own (see writer());
        # None on the tree itself, whose every write is a run of one.
        self._owned: set[_Node] | None = None

    # -- public API ---------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def node_keys(self) -> int:
        """The most keys one node holds: ``order - 1``."""
        return self._order - 1

    def writer(self) -> "_Run":
        """Open a run of writes: ``insert``, ``delete`` and ``depth`` as on
        this tree, on the run's own root, until ``publish()`` stores that
        root and the size here -- each node copied once for the whole run.
        The caller serialises the run with every other writer of the tree.
        """
        return _Run(self)

    def insert(self, key: Any, value: Any) -> tuple[bool, Any, int]:
        """Insert or overwrite ``key``; returns ``(replaced, previous value,
        nodes visited)`` -- what a :meth:`search` before it would have found,
        learnt on the insert's own descent.

        The mutation is built on path copies and published atomically, so
        concurrent readers see either the old or the new tree, never a
        partial one.  Concurrent *writers* must be serialised by the caller.
        """
        owned = set() if self._owned is None else self._owned
        root = self._root
        if len(root.keys) >= self._order - 1:
            new_root = _Node()
            new_root.children.append(root)
            self._split_child(new_root, 0, owned)
            owned.add(new_root)
            root = new_root
        new_root, previous, visited = self._insert_cow(root, key, value, owned)
        self._root = new_root
        self.node_accesses += visited
        if previous is _ABSENT:
            self._size += 1
            return False, None, visited
        return True, previous, visited

    def get(self, key: Any) -> tuple[bool, Any]:
        """Return ``(found, value)``; latch-free snapshot lookup."""
        found, value, __ = self.search(key)
        return found, value

    def search(self, key: Any) -> tuple[bool, Any, int]:
        """Return ``(found, value, nodes visited)`` from one root snapshot.

        The per-call visited count is what concurrent readers must use for
        cost accounting (before/after deltas of ``node_accesses`` are torn
        by other readers).
        """
        node = self._root
        visited = 0
        while True:
            visited += 1
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                self.node_accesses += visited
                return True, node.values[index], visited
            if node.is_leaf:
                self.node_accesses += visited
                return False, None, visited
            node = node.children[index]

    def search_sorted(self, keys: list[Any]) -> Iterator[tuple[bool, Any, int]]:
        """What ``[search(key) for key in keys]`` answers, for ascending
        ``keys``, from one root snapshot: ``(found, value, nodes visited)``
        per key, in order, each node entered at most once.

        The keys bound for one child are split off by a ``bisect`` over
        ``keys`` and searched in that child before its parent moves on.  The
        answers stream: ``node_accesses`` moves, when the walk ends or is
        closed, by the visits of the keys answered -- what those searches
        would have added.
        """
        visited = 0
        position = 0
        # (node, its depth, the end of the keys bound for it)
        stack = [(self._root, 1, len(keys))]
        try:
            while stack:
                node, depth, stop = stack[-1]
                if position == stop:
                    stack.pop()
                    continue
                key = keys[position]
                node_keys = node.keys
                index = bisect.bisect_left(node_keys, key)
                if index < len(node_keys) and node_keys[index] == key:
                    visited += depth
                    position += 1
                    yield True, node.values[index], depth
                elif not node.children:
                    visited += depth
                    position += 1
                    yield False, None, depth
                else:
                    bound = (stop if index == len(node_keys) else
                             bisect.bisect_left(keys, node_keys[index], position, stop))
                    stack.append((node.children[index], depth + 1, bound))
        finally:
            self.node_accesses += visited

    def delete(self, key: Any) -> tuple[bool, Any, int]:
        """Delete ``key``; returns ``(removed, removed value, nodes
        visited)`` -- what a :meth:`search` before it would have found, learnt
        on the delete's own descent.

        Deletion uses a simple tombstone-free strategy: the key is removed
        from its (path-copied) node; under-full nodes are tolerated (the
        tree never rebalances on delete).  Lookup and iteration remain
        correct, which is all the engine requires.  Like :meth:`insert`,
        the new tree is published atomically; callers serialise writers.
        """
        owned = set() if self._owned is None else self._owned
        new_root, previous, visited = self._delete_cow(self._root, key, owned)
        self.node_accesses += visited
        if previous is _ABSENT:
            return False, None, visited
        while not new_root.keys and new_root.children:
            new_root = new_root.children[0]
        self._root = new_root
        self._size -= 1
        return True, previous, visited

    def items(self) -> Iterator[tuple[Any, Any]]:
        """In-order iteration over one consistent snapshot of the tree."""
        return self._entries(self._root)

    def runs(self) -> Iterator[tuple[int, list[Any], list[Any]]]:
        """One snapshot in order, as runs of entries that share a node:
        ``(depth, keys, values)``, where ``depth`` is what :meth:`search`
        counts as visited for each of the run's keys -- internal nodes hold
        entries, so it varies per key, and an in-order walk knows it without
        searching.  The lists may be a published node's own: read-only.
        """
        return self._runs(self._root, 1)

    def range(self, low: Any, high: Any,
              visited: list[int] | None = None) -> Iterator[tuple[Any, Any]]:
        """Yield pairs with ``low <= key <= high`` in order.

        This is a true range scan: it descends from the root snapshot to the
        first key ``>= low`` (recording the node accesses on the way down,
        as ``get`` does) and walks in order from there, stopping at the
        first key ``> high`` -- it never touches the part of the tree before
        ``low``.  The whole walk sees the tree as of the initial root load.
        ``visited`` is a one-element cell the walk adds every node *it*
        visits to, as it goes: what a lazy consumer is charged for.
        """
        if visited is None:
            visited = [0]
        # Descend to the start position, remembering the path.  Each stack
        # entry is (node, index): for a leaf, the next key slot to emit; for
        # an internal node, the separator key to emit once its child at that
        # index has been exhausted.
        stack: list[tuple[_Node, int]] = []
        node = self._root
        while True:
            self.node_accesses += 1
            visited[0] += 1
            index = 0 if low is None else bisect.bisect_left(node.keys, low)
            stack.append((node, index))
            if node.is_leaf:
                break
            node = node.children[index]
        # In-order walk from the start position.
        while stack:
            node, index = stack.pop()
            if node.is_leaf:
                while index < len(node.keys):
                    key = node.keys[index]
                    if high is not None and key > high:
                        return
                    yield key, node.values[index]
                    index += 1
            elif index < len(node.keys):
                key = node.keys[index]
                if high is not None and key > high:
                    return
                yield key, node.values[index]
                stack.append((node, index + 1))
                child = node.children[index + 1]
                while True:
                    self.node_accesses += 1
                    visited[0] += 1
                    stack.append((child, 0))
                    if child.is_leaf:
                        break
                    child = child.children[0]

    def depth(self) -> int:
        """Height of the tree (1 for a lone root leaf)."""
        depth = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            depth += 1
        return depth

    def check_invariants(self) -> None:
        """Raise AssertionError if ordering or fan-out invariants are violated."""
        self._check_node(self._root, lower=None, upper=None, is_root=True)

    # -- internals ------------------------------------------------------------

    def _insert_cow(self, node: _Node, key: Any, value: Any,
                    owned: set[_Node]) -> tuple[_Node, Any, int]:
        """Insert into ``node``'s subtree, copying each node of the path that
        ``owned`` does not hold and mutating the ones it does in place.

        Returns ``(the subtree's node, the value replaced or _ABSENT, nodes
        visited)``.
        """
        if node not in owned:
            node = _clone(node, owned)
        index = bisect.bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            previous, node.values[index] = node.values[index], value
            return node, previous, 1
        if node.is_leaf:
            node.keys.insert(index, key)
            node.values.insert(index, value)
            return node, _ABSENT, 1
        if len(node.children[index].keys) >= self._order - 1:
            self._split_child(node, index, owned)
            if key > node.keys[index]:
                index += 1
            elif key == node.keys[index]:
                previous, node.values[index] = node.values[index], value
                return node, previous, 1
        child, previous, visited = self._insert_cow(node.children[index], key,
                                                    value, owned)
        node.children[index] = child
        return node, previous, visited + 1

    def _split_child(self, parent: _Node, index: int, owned: set[_Node]) -> None:
        """Split ``parent.children[index]`` into two fresh halves, owned.

        ``parent`` must be owned; the full child is never mutated -- both
        halves are new nodes.
        """
        child = parent.children[index]
        middle = len(child.keys) // 2
        left = _Node()
        left.keys = child.keys[:middle]
        left.values = child.values[:middle]
        right = _Node()
        right.keys = child.keys[middle + 1:]
        right.values = child.values[middle + 1:]
        if not child.is_leaf:
            left.children = child.children[: middle + 1]
            right.children = child.children[middle + 1:]
        parent.keys.insert(index, child.keys[middle])
        parent.values.insert(index, child.values[middle])
        parent.children[index] = left
        parent.children.insert(index + 1, right)
        owned.add(left)
        owned.add(right)
        owned.discard(child)  # unreachable now: a run need not keep it alive

    def _delete_cow(self, node: _Node, key: Any,
                    owned: set[_Node]) -> tuple[_Node, Any, int]:
        """Delete ``key`` from ``node``'s subtree, copying each node of the
        path that ``owned`` does not hold and mutating the ones it does.

        Returns ``(the subtree's node, the value removed or _ABSENT, nodes
        visited)``.  When the key is absent the untouched node is returned,
        so no garbage copies are published.
        """
        index = bisect.bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            if node not in owned:
                node = _clone(node, owned)
            previous = node.values[index]
            if node.is_leaf:
                node.keys.pop(index)
                node.values.pop(index)
            else:
                self._delete_internal(node, index, owned)
            return node, previous, 1
        if node.is_leaf:
            return node, _ABSENT, 1
        child, previous, visited = self._delete_cow(node.children[index], key, owned)
        if previous is not _ABSENT:
            if node not in owned:
                node = _clone(node, owned)
            node.children[index] = child
        return node, previous, visited + 1

    def _delete_internal(self, node: _Node, index: int, owned: set[_Node]) -> None:
        """Delete ``node.keys[index]`` from an owned internal node.

        The key is replaced by its in-order predecessor (or successor) which
        is then removed from the corresponding subtree.  When both adjacent
        subtrees hold no keys at all (possible because deletes never
        rebalance), the key and one empty child are dropped instead.
        """
        for position, end in ((index, -1), (index + 1, 0)):
            entry = _end_entry(node.children[position], end)
            if entry is not None:
                node.keys[index], node.values[index] = entry
                node.children[position] = self._delete_cow(
                    node.children[position], entry[0], owned)[0]
                return
        node.keys.pop(index)
        node.values.pop(index)
        node.children.pop(index + 1)

    def _entries(self, node: _Node) -> Iterator[tuple[Any, Any]]:
        for __, keys, values in self._runs(node, 1):
            yield from zip(keys, values)

    def _runs(self, node: _Node, depth: int) -> Iterator[tuple[int, list, list]]:
        if node.is_leaf:
            yield depth, node.keys, node.values
            return
        for position in range(len(node.keys)):
            yield from self._runs(node.children[position], depth + 1)
            yield (depth, node.keys[position:position + 1],
                   node.values[position:position + 1])
        yield from self._runs(node.children[-1], depth + 1)

    def _check_node(self, node: _Node, lower: Any, upper: Any, is_root: bool) -> None:
        assert len(node.keys) == len(node.values)
        assert len(node.keys) <= self._order - 1, "node exceeds maximum fan-out"
        assert node.keys == sorted(node.keys), "keys within a node must be sorted"
        for key in node.keys:
            if lower is not None:
                assert key > lower, "key violates lower bound from parent"
            if upper is not None:
                assert key < upper, "key violates upper bound from parent"
        if not node.is_leaf:
            assert len(node.children) == len(node.keys) + 1
            bounds = [lower] + list(node.keys) + [upper]
            for position, child in enumerate(node.children):
                self._check_node(child, bounds[position], bounds[position + 1], False)


class _Run(BTree):
    """A run of writes to one tree (:meth:`BTree.writer`): the tree's writes,
    on a root of its own that owns every node the run made."""

    def __init__(self, tree: BTree):
        self._tree = tree
        self._order, self._root, self._size = tree._order, tree._root, tree._size
        self._owned = set()
        self.node_accesses = 0

    def publish(self) -> None:
        """Store the run's root and size in the tree.  The nodes published
        are frozen from now on, so the run owns none; it may go on."""
        tree = self._tree
        tree._root, tree._size = self._root, self._size
        tree.node_accesses += self.node_accesses
        self._owned, self.node_accesses = set(), 0


def _end_entry(node: _Node, end: int) -> tuple[Any, Any] | None:
    """The first (``end`` 0) or last (``end`` -1) entry under ``node``: a walk
    down that spine, backing up past nodes that deletes have emptied."""
    if node.children:
        entry = _end_entry(node.children[end], end)
        if entry is not None or not node.keys:
            return entry
    elif not node.keys:
        return None
    return node.keys[end], node.values[end]
