"""Tests for the chunk map: routing, coverage invariants and splitting."""

from __future__ import annotations

from typing import Any, Iterable

import pytest

from repro.docstore.sharding.chunks import (
    HASH_SPACE_SIZE,
    Chunk,
    ChunkManager,
    hash_shard_key,
)
from repro.errors import DocumentStoreError


def owners_of(manager: ChunkManager,
              shard_key_values: Iterable[Any]) -> dict[Any, list[Chunk]]:
    """Map each value to every chunk covering it (exactly one when valid)."""
    owners: dict[Any, list[Chunk]] = {}
    for value in shard_key_values:
        point = manager.routing_point(value)
        owners[value] = [chunk for chunk in manager.chunks() if chunk.covers(point)]
    return owners


class TestHashing:
    def test_hash_is_deterministic(self):
        assert hash_shard_key("user1") == hash_shard_key("user1")

    def test_hash_spreads_values(self):
        points = {hash_shard_key(f"user{index}") for index in range(100)}
        assert len(points) == 100

    def test_hash_fits_the_routing_space(self):
        for index in range(50):
            assert 0 <= hash_shard_key(f"user{index}") < HASH_SPACE_SIZE

    @pytest.mark.parametrize("value, point", [
        # Golden values: every seeded placement, the E9 table and the chunk
        # tests stand on the hash of a ``str`` or an ``int`` staying what it is.
        ("user0", 13430502611082251549),
        ("user1", 12062834877984188723),
        ("user42", 12850489695061118722),
        ("", 16644636754038533631),
        ("a", 15639087204001178014),
        ("Ünïcode", 2035822734263396755),
        ("1", 8274723208164183962),
        (0, 14973660089898329583),
        (1, 14180219187711517570),
        (-1, 7761424248648632625),
        (42, 11660038136054051623),
        (2 ** 40, 15965622288733269112),
        (10 ** 30, 10110086406560362928),
        (True, 17881488745847489677),
        (None, 7701040980221191251),
        (1.5, 6919891270253167948),
    ])
    def test_str_and_int_hashes_are_pinned(self, value, point):
        assert hash_shard_key(value) == point

    def test_values_the_matcher_holds_equal_share_a_hash(self):
        assert hash_shard_key(1.0) == hash_shard_key(1)
        assert hash_shard_key(-0.0) == hash_shard_key(0)
        assert hash_shard_key(2.0 ** 70) == hash_shard_key(2 ** 70)
        assert hash_shard_key({"a": 1, "b": [2.0, "x"]}) == hash_shard_key(
            {"b": [2, "x"], "a": 1.0})
        # ... and the ones it tells apart stay apart (``_scalar_equal``).
        assert hash_shard_key(True) != hash_shard_key(1)
        assert hash_shard_key("1") != hash_shard_key(1)
        assert hash_shard_key(1.5) != hash_shard_key(1)
        for odd in (float("inf"), float("-inf"), float("nan")):
            assert 0 <= hash_shard_key(odd) < HASH_SPACE_SIZE


class TestChunkManager:
    def test_invalid_configuration_rejected(self):
        with pytest.raises(DocumentStoreError):
            ChunkManager(4, strategy="round-robin")
        with pytest.raises(DocumentStoreError):
            ChunkManager(0)
        with pytest.raises(DocumentStoreError):
            ChunkManager(4, split_threshold=1)

    def test_hash_strategy_pre_splits_one_chunk_per_shard(self):
        manager = ChunkManager(4, strategy="hash")
        manager.validate()
        assert len(manager.chunks()) == 4
        assert manager.chunk_counts() == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_range_strategy_starts_with_a_single_chunk(self):
        manager = ChunkManager(4, strategy="range")
        manager.validate()
        assert len(manager.chunks()) == 1
        assert manager.chunks()[0].shard_id == 0

    def test_every_key_owned_by_exactly_one_chunk(self):
        for strategy in ("hash", "range"):
            manager = ChunkManager(4, strategy=strategy)
            owners = owners_of(manager, [f"user{index}" for index in range(200)])
            assert all(len(chunks) == 1 for chunks in owners.values())

    def test_chunk_for_agrees_with_shard_for(self):
        manager = ChunkManager(4, strategy="hash")
        for index in range(50):
            value = f"user{index}"
            assert manager.chunk_for(value).shard_id == manager.shard_for(value)


class TestSplitting:
    def test_oversized_chunk_is_split_at_the_median(self):
        manager = ChunkManager(1, strategy="range", split_threshold=4)
        points = list(range(10))
        performed = manager.split_oversized({0: points})
        assert performed >= 1
        manager.validate()
        assert all(
            len([p for p in points if chunk.covers(p)]) <= 4
            for chunk in manager.chunks()
        )

    def test_split_keeps_ownership_unique(self):
        manager = ChunkManager(2, strategy="range", split_threshold=4)
        values = [f"user{index:03d}" for index in range(40)]
        manager.split_oversized({0: [manager.routing_point(v) for v in values]})
        owners = owners_of(manager, values)
        assert all(len(chunks) == 1 for chunks in owners.values())

    def test_identical_points_cannot_be_split(self):
        manager = ChunkManager(1, strategy="range", split_threshold=2)
        assert manager.split_oversized({0: ["same"] * 50}) == 0
        assert len(manager.chunks()) == 1

    def test_split_halves_stay_on_the_parent_shard(self):
        manager = ChunkManager(2, strategy="range", split_threshold=2)
        manager.split_oversized({0: list(range(10))})
        assert {chunk.shard_id for chunk in manager.chunks()} == {0}

    def test_splits_are_counted(self):
        manager = ChunkManager(1, strategy="range", split_threshold=2)
        manager.split_oversized({0: list(range(16))})
        assert manager.splits_performed == len(manager.chunks()) - 1


class TestAssignment:
    def test_assign_moves_a_chunk(self):
        manager = ChunkManager(2, strategy="range")
        chunk = manager.chunks()[0]
        manager.assign(chunk, 1)
        assert manager.chunk_counts() == {0: 0, 1: 1}

    def test_assign_to_missing_shard_rejected(self):
        manager = ChunkManager(2, strategy="range")
        with pytest.raises(DocumentStoreError):
            manager.assign(manager.chunks()[0], 5)
