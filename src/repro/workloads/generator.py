"""Synthetic record generation for the document-store benchmarks.

A payload is the ``k`` characters ``Random.choices(_ALPHABET, k=k)`` would
pick, joined, and it leaves ``rng`` in the state that call would; ``rng``
must be a ``random.Random``.  :func:`draw` gets it from one
``rng.getrandbits(64 * k)`` instead of ``k`` Python-level ``random()``
calls, and is exact for this reason:

* **Word order.**  ``random()`` takes two 32-bit Mersenne Twister words,
  ``w0`` then ``w1``.  ``getrandbits`` fills its integer with 32-bit words
  least significant first, in generation order, so 64-bit lane *i* of
  ``getrandbits(64 * k)`` holds ``w0`` in its low half and ``w1`` in its
  high half: exactly the words of the *i*-th ``random()`` call.
* **N.**  ``random()`` returns ``N / 2**53`` with the 53-bit integer
  ``N = (w0 >> 5) << 26 | (w1 >> 6)``; shifts and masks on the one big int
  put every lane's ``N`` in that lane.
* **The index.**  ``choices`` picks ``floor(random() * 36.0)``.  Were the
  product exact, that would be ``(36 * N) >> 53``; ``36 * N`` is below
  ``2**59``, so one multiplication of the big int computes it in every lane
  with no carry into the next.
* **The +32 guard.**  ``random() * 36.0`` rounds ``36 * N`` to 53 bits; below
  ``2**59`` half an ulp is at most 32.  Rounding can only carry a value up onto
  the next integer, never down below one, so a lane whose index is the same
  with 32 added is exact.  A lane whose index changes is recomputed with
  ``random()``'s own float expression (:func:`_lane_index`).
"""

from __future__ import annotations

import functools
import math
import random
import string
from typing import Any

from repro.errors import ValidationError

_ALPHABET = string.ascii_lowercase + string.digits
#: byte ``i`` -> the ``i``-th character of the alphabet
_TRANSLATION = bytes(_ALPHABET, "ascii").ljust(256, b"\0")
_SCALE = 1.0 / 2 ** 53


def draw(rng: random.Random, k: int) -> str:
    """The characters ``Random.choices(_ALPHABET, k=k)`` would pick, joined,
    from one ``getrandbits``."""
    return _characters(rng.getrandbits(64 * k), k)


def _characters(bits: int, k: int) -> str:
    """The characters ``choices`` picks from the ``k`` 64-bit lanes of ``bits``."""
    low, high, guard, carry = _masks(k)
    # w0 bits 5..31 up to lane bits 26..52, w1 bits 38..63 down to 0..25
    scaled = len(_ALPHABET) * (((bits & low) << 21) | ((bits & high) >> 38))
    # byte 0 of each lane of ``scaled >> 53`` is the lane's bits 53..60: the index
    indices = (scaled >> 53).to_bytes(8 * k, "little")[::8]
    carried = ((scaled + guard) ^ scaled) & carry
    if carried:
        lanes = bytearray(indices)
        flags = (carried >> 53).to_bytes(8 * k, "little")[::8]
        for lane, flag in enumerate(flags):
            if flag:
                words = bits >> (64 * lane)
                lanes[lane] = _lane_index(words & 0xFFFFFFFF,
                                          (words >> 32) & 0xFFFFFFFF)
        indices = bytes(lanes)
    return indices.translate(_TRANSLATION).decode("ascii")


def _lane_index(w0: int, w1: int) -> int:
    """``floor(random() * 36.0)`` for the ``random()`` made of words ``w0, w1``."""
    return math.floor(((w0 >> 5) * 67108864.0 + (w1 >> 6)) * _SCALE
                      * float(len(_ALPHABET)))


@functools.lru_cache(maxsize=8)
def _masks(k: int) -> tuple[int, int, int, int]:
    """Per-lane constants for ``k`` lanes: the bits of ``w0 >> 5``, of
    ``w1 >> 6``, the guard's 32, and the bit a carry past it reaches."""
    def repeated(lane: int) -> int:
        return int.from_bytes(lane.to_bytes(8, "little") * k, "little")
    return (repeated(0xFFFFFFE0), repeated(0xFFFFFFC0 << 32),
            repeated(32), repeated(1 << 53))


class RecordGenerator:
    """Generates YCSB-style documents: ``user<N>`` keys with payload fields.

    Each record has ``field_count`` string fields of ``field_length``
    characters, plus a small set of typed attributes (numeric counter,
    category, flag) so that query-based workloads have something meaningful
    to filter and aggregate on.

    ``record`` calls :meth:`_payload` once per field, in field order, and
    ``update_fragment`` calls it once, with no other draw in between: a
    subclass that overrides it draws its payloads from the same points of
    the stream.
    """

    def __init__(self, field_count: int = 10, field_length: int = 100,
                 categories: int = 10):
        if field_count <= 0 or field_length <= 0:
            raise ValidationError("field_count and field_length must be positive")
        if categories < 1:
            raise ValidationError("categories must be positive")
        self.field_count = field_count
        self.field_length = field_length
        self.categories = categories

    def key(self, index: int) -> str:
        """The primary key of record ``index``."""
        return f"user{index}"

    def record(self, index: int, rng: random.Random) -> dict[str, Any]:
        """Generate the document for record ``index``."""
        document: dict[str, Any] = {"_id": self.key(index)}
        for field_index in range(self.field_count):
            document[f"field{field_index}"] = self._payload(rng)
        document["counter"] = index
        document["category"] = f"cat{index % self.categories}"
        document["active"] = bool(index % 2)
        return document

    def update_fragment(self, rng: random.Random) -> dict[str, Any]:
        """An update document replacing one random payload field."""
        field_index = rng.randrange(self.field_count)
        return {"$set": {f"field{field_index}": self._payload(rng)}}

    def _payload(self, rng: random.Random) -> str:
        return draw(rng, self.field_length)
