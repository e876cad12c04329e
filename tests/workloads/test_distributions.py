"""Tests for the key-access distributions and the record generator."""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct

import pytest

from repro.errors import ValidationError
from repro.workloads.distributions import (
    HotspotGenerator,
    LatestGenerator,
    UniformGenerator,
    ZipfianGenerator,
    chi_square_uniformity,
    make_distribution,
)
from repro.workloads import generator as generator_module
from repro.workloads.generator import (
    _ALPHABET,
    RecordGenerator,
    _characters,
    _lane_index,
    draw,
)


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("uniform", UniformGenerator), ("zipfian", ZipfianGenerator),
        ("latest", LatestGenerator), ("hotspot", HotspotGenerator),
    ])
    def test_make_distribution(self, name, cls):
        assert isinstance(make_distribution(name, 100), cls)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            make_distribution("gaussian", 100)

    def test_item_count_must_be_positive(self):
        with pytest.raises(ValidationError):
            UniformGenerator(0)


class TestDistributionBehaviour:
    def draw(self, distribution, count=3000, seed=11):
        rng = random.Random(seed)
        return [distribution.next_key(rng) for _ in range(count)]

    def test_all_keys_within_bounds(self):
        for name in ("uniform", "zipfian", "latest", "hotspot"):
            samples = self.draw(make_distribution(name, 50))
            assert all(0 <= key < 50 for key in samples)

    def test_uniform_covers_key_space_evenly(self):
        samples = self.draw(UniformGenerator(20))
        statistic = chi_square_uniformity(samples, 20)
        assert statistic < 60  # well below a heavily skewed distribution

    def test_zipfian_is_much_more_skewed_than_uniform(self):
        uniform = chi_square_uniformity(self.draw(UniformGenerator(100)), 20)
        zipfian = chi_square_uniformity(self.draw(ZipfianGenerator(100)), 20)
        assert zipfian > uniform * 3

    def test_zipfian_hot_key_dominates(self):
        samples = self.draw(ZipfianGenerator(1000), count=5000)
        counts = {}
        for key in samples:
            counts[key] = counts.get(key, 0) + 1
        top_share = max(counts.values()) / len(samples)
        assert top_share > 0.05  # a single key takes a visible share

    def test_latest_prefers_recent_keys(self):
        distribution = LatestGenerator(1000)
        samples = self.draw(distribution, count=4000)
        recent = sum(1 for key in samples if key >= 900)
        assert recent / len(samples) > 0.3

    def test_hotspot_fraction_respected(self):
        distribution = HotspotGenerator(1000, hot_fraction=0.1, hot_operation_fraction=0.9)
        samples = self.draw(distribution, count=4000)
        hot = sum(1 for key in samples if key < 100)
        assert 0.8 < hot / len(samples) < 0.99

    def test_hotspot_invalid_fractions(self):
        with pytest.raises(ValidationError):
            HotspotGenerator(100, hot_fraction=0.0)

    def test_grow_extends_key_space(self):
        distribution = ZipfianGenerator(10)
        distribution.grow(100)
        assert distribution.item_count == 100
        samples = self.draw(distribution, count=500)
        assert all(key < 100 for key in samples)
        # growing never shrinks
        distribution.grow(50)
        assert distribution.item_count == 100

    def test_same_seed_reproducible(self):
        distribution = ZipfianGenerator(100)
        assert self.draw(distribution, seed=3) == self.draw(distribution, seed=3)


class TestRecordGenerator:
    def test_record_shape(self):
        generator = RecordGenerator(field_count=3, field_length=10)
        record = generator.record(7, random.Random(1))
        assert record["_id"] == "user7"
        assert {"field0", "field1", "field2", "counter", "category", "active"} <= set(record)
        assert len(record["field0"]) == 10

    def test_keys_are_stable(self):
        generator = RecordGenerator()
        assert generator.key(3) == "user3"

    def test_update_fragment_targets_existing_field(self):
        generator = RecordGenerator(field_count=2, field_length=5)
        fragment = generator.update_fragment(random.Random(1))
        field = next(iter(fragment["$set"]))
        assert field in ("field0", "field1")

    def test_approximate_record_bytes_scales(self):
        small = RecordGenerator(field_count=2, field_length=10).approximate_record_bytes()
        large = RecordGenerator(field_count=10, field_length=100).approximate_record_bytes()
        assert large > small

    @pytest.mark.parametrize("arguments,named", [
        ({"field_count": 0}, "field_count"), ({"field_length": 0}, "field_length"),
        ({"categories": 0}, "categories"), ({"categories": -3}, "categories"),
    ])
    def test_invalid_configuration_rejected(self, arguments, named):
        with pytest.raises(ValidationError, match=named):
            RecordGenerator(**arguments)

    def test_payload_hook_draws_from_fixed_points(self):
        """``benchmarks/perf/inputs.py::_Records`` overrides ``_payload`` to
        make the harness's records; its ``stream_sha`` stays put only while
        ``record`` calls the hook once per field in field order,
        ``update_fragment`` calls it once, and nothing else draws between."""
        class Hooked(RecordGenerator):
            def __init__(self):
                super().__init__(field_count=4, field_length=6)
                self.states = []

            def _payload(self, rng):
                self.states.append(rng.getstate())
                return f"payload{len(self.states) - 1}"

        generator, rng = Hooked(), random.Random(5)
        before = rng.getstate()
        document = generator.record(3, rng)
        assert generator.states == [before] * 4
        assert rng.getstate() == before
        assert [document[f"field{index}"] for index in range(4)] == [
            "payload0", "payload1", "payload2", "payload3"]

        expected_field = random.Random(5).randrange(4)
        fragment = generator.update_fragment(rng)
        assert fragment == {"$set": {f"field{expected_field}": "payload4"}}
        assert len(generator.states) == 5
        assert rng.getstate() == generator.states[-1] != before


class _ChoicesGenerator(RecordGenerator):
    """The reference: each payload from ``rng.choices``, one ``random()`` a
    character."""

    def _payload(self, rng):
        return "".join(rng.choices(_ALPHABET, k=self.field_length))


def _seeded_data_digest(generator: RecordGenerator) -> str:
    rng = random.Random(42)
    data = ([generator.record(index, rng) for index in range(1000)]
            + [generator.update_fragment(rng) for _ in range(500)])
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


class TestPayloadKernel:
    """``draw`` returns ``rng.choices``' characters and leaves ``rng`` where
    ``choices`` would, from one ``getrandbits``."""

    def test_draw_equals_choices_and_state(self):
        """A draw that left the generator anywhere but where ``choices`` did
        fails the ``random()`` right after it; the states are compared whole
        once a seed."""
        lengths = list(range(301)) + [1000]
        for seed in range(200):
            kernel, reference = random.Random(seed), random.Random(seed)
            for k in lengths:
                assert draw(kernel, k) == "".join(reference.choices(_ALPHABET, k=k))
                assert kernel.random() == reference.random()
                if k % 11 == 0:
                    assert kernel.randrange(k + 3) == reference.randrange(k + 3)
            assert kernel.getstate() == reference.getstate()

    def test_lanes_near_every_boundary(self, monkeypatch):
        """Every 53-bit ``N`` within 2**14 of each of the 35 index boundaries,
        against ``random()``'s own float expression; the lanes the +32 guard
        catches, and only those, take the fallback."""
        fallbacks = []

        def counting(w0, w1):
            fallbacks.append((w0, w1))
            return _lane_index(w0, w1)

        monkeypatch.setattr(generator_module, "_lane_index", counting)
        radius, low26 = 2 ** 14, 2 ** 26 - 1
        guarded = rounded_up = 0
        for boundary in range(1, len(_ALPHABET)):
            first = -(-boundary * 2 ** 53 // len(_ALPHABET)) - radius
            ns = range(first, first + 2 * radius + 1)
            # the bits random() drops hold junk, which must not matter
            lanes = [((n >> 26) << 5 | n & 31) | ((n & low26) << 6 | n % 61) << 32
                     for n in ns]
            bits = int.from_bytes(struct.pack(f"<{len(lanes)}Q", *lanes), "little")
            expected = [math.floor(((n >> 26) * 67108864.0 + (n & low26))
                                   * (1.0 / 9007199254740992.0) * 36.0) for n in ns]
            assert _characters(bits, len(lanes)) == "".join(
                _ALPHABET[index] for index in expected)
            # the N whose 36 * N lies within 32 below the boundary
            for n in range(-(-(boundary * 2 ** 53 - 32) // 36),
                           -(-boundary * 2 ** 53 // 36)):
                guarded += 1
                rounded_up += expected[n - first] == boundary
        assert len(fallbacks) == guarded > 0
        assert rounded_up > 0  # the guard is needed, not only safe

    @pytest.mark.parametrize("shape", [(10, 100), (2, 8), (4, 40), (3, 1)])
    def test_generator_equals_choices_reference(self, shape):
        kernel, reference = RecordGenerator(*shape), _ChoicesGenerator(*shape)
        for seed in range(20):
            a, b = random.Random(seed), random.Random(seed)
            for index in range(50):
                assert kernel.record(index, a) == reference.record(index, b)
                assert kernel.update_fragment(a) == reference.update_fragment(b)
            assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("shape,digest", [
        ((10, 100), "b6dffc06a8548dd9344ebbea503d11ccd75ee851ee1395efb3f765bf51e3dfec"),
        ((2, 8), "1efef4f114de061e8dc336552bd53a540b9b5648e00d60ee0ce70a4ed3bb6088"),
        ((4, 40), "4d93819650517151bf83a143fdc21ea668198af9e9b38dfd16a1ded6c8c33231"),
    ])
    def test_seeded_data_is_golden(self, shape, digest):
        """Records 0-999 and 500 update fragments at seed 42, as ``rng.choices``
        made them: the demo's shape, ``repro explain``'s and E14's.  A Python
        whose ``choices``, ``random()`` or ``getrandbits`` draws differently
        fails here by name."""
        assert _seeded_data_digest(RecordGenerator(*shape)) == digest
        assert _seeded_data_digest(_ChoicesGenerator(*shape)) == digest
