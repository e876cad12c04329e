"""Value identity: when two docstore values are equal, how they sort, and
which record id an ``_id`` is stored under.

One rule, the matcher's: a bool equals only a bool; numbers are equal by
value (``1 == 1.0``); a sub-document equals one with the same fields holding
equal values, in any key order; an array equals one with equal elements in
the same order -- at any depth.  Everything that asks whether two values are
the same, or which comes first, asks this module:

* :func:`key` -- one hashable key per value; two values get equal keys
  exactly when the rule holds them equal.  The matcher's equality, a
  secondary index's hash entries, ``$group`` / ``distinct`` and the router's
  ``_id`` dedup compare keys.
* :func:`order` -- one total order, consistent with :func:`key`: ``None`` <
  bool < number < string < sub-document < array, sub-documents field by
  field in name order and arrays element by element.  The ordered index's
  tree keys, the interval analysis, ``$sort``, ``$min`` / ``$max``, the
  router's merge and the ``$group`` output order compare by it.
* :func:`text` -- the canonical text of a value's key: what a hashed shard
  key hashes.
* :func:`record_id` -- the record id an ``_id`` is stored under, injective
  over the rule's classes: two ``_id`` values share a record id exactly when
  they are equal, so an ``_id`` lookup is one exact probe.

A ``str`` is its own key and, unless it starts with :data:`ESCAPE`, its own
record id -- the same object, so string keys, group keys and record ids
allocate nothing.
"""

from __future__ import annotations

from typing import Any

#: The ranks of :func:`order`, lowest first.  The ordered index holds the
#: scalar ranks, ``RANK_NONE`` to ``RANK_STRING``; a range predicate compares
#: a value with an operand of its own rank, bool to string, and nothing else.
(RANK_NONE, RANK_BOOL, RANK_NUMBER, RANK_STRING, RANK_DOCUMENT, RANK_ARRAY,
 RANK_OTHER) = range(7)

#: The one reserved character of record ids: every record id of a non-string
#: ``_id`` starts with it, followed by a letter, and a string ``_id`` that
#: starts with it is stored with one more in front.
ESCAPE = "\x00"
#: The letter after :data:`ESCAPE` in a non-string ``_id``'s record id, by rank.
_TAGS = "zbnsdao"


def key(value: Any) -> Any:
    """The hashable key of ``value``: equal for two values exactly when the
    rule holds them equal.  A ``str``, a number and ``None`` are their own
    key (``1 == 1.0`` hash alike); a bool, a sub-document and an array are a
    tuple tagged with their rank, a sub-document's fields in name order.  A
    value no document can hold (a query operand such as a tuple) is its
    tagged ``repr``: equal to no stored value."""
    kind = type(value)
    if kind is str or kind is int or kind is float or value is None:
        return value
    if kind is bool:
        return (RANK_BOOL, value)
    if kind is dict:
        return (RANK_DOCUMENT, tuple(sorted(zip(value, map(key, value.values())))))
    if kind is list:
        return (RANK_ARRAY, tuple(map(key, value)))
    if isinstance(value, (str, int, float)):  # a subclass: a bool went above
        return value
    return (RANK_OTHER, repr(value))


def order(value: Any) -> tuple:
    """The sort key of ``value``: ``(rank, payload)``, a scalar's payload the
    value itself (so a bool compares with a bool, a number with a number),
    a sub-document's its ``(name, order)`` pairs in name order, an array's
    its elements' orders.  Two values tie exactly when their keys are equal."""
    kind = type(value)
    if kind is str:
        return (RANK_STRING, value)
    if kind is int or kind is float:
        return (RANK_NUMBER, value)
    if value is None:
        return (RANK_NONE, None)
    if kind is bool:
        return (RANK_BOOL, value)
    if kind is dict:
        return (RANK_DOCUMENT,
                tuple(sorted(zip(value, map(order, value.values())))))
    if kind is list:
        return (RANK_ARRAY, tuple(map(order, value)))
    if isinstance(value, str):  # a subclass
        return (RANK_STRING, value)
    if isinstance(value, (int, float)):
        return (RANK_NUMBER, value)
    return (RANK_OTHER, repr(value))


def text(value: Any) -> str:
    """The canonical text of ``value``'s key: equal for two stored values
    exactly when their keys are.  A scalar reads as its ``repr`` -- an
    integral float as its int (``1.0`` reads ``1``) -- a sub-document as the
    tuple of its ``(name, value)`` pairs in name order, an array as the list
    of its elements."""
    return repr(_plain(value))


def _plain(value: Any) -> Any:
    """The plain value :func:`text` reads: one per key class."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else float(value)
    if isinstance(value, dict):
        return tuple(sorted((name, _plain(item)) for name, item in value.items()))
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if isinstance(value, str):
        return str(value)
    if isinstance(value, int) and type(value) is not bool:
        return int(value)
    return value


def record_id(value: Any) -> str:
    """The record id ``_id`` ``value`` is stored under.  A ``str`` is its own
    record id (the same object), one starting with :data:`ESCAPE` escaped by
    one more; any other value is :data:`ESCAPE`, the letter of its rank and
    its :func:`text`.  Hot paths write the ``str`` case inline::

        _id if type(_id) is str and not _id.startswith(ESCAPE) else record_id(_id)
    """
    if type(value) is str:
        return value if not value.startswith(ESCAPE) else ESCAPE + value
    if isinstance(value, str):
        return record_id(str(value))
    return ESCAPE + _TAGS[order(value)[0]] + text(value)
