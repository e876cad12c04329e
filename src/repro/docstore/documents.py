"""Document validation, identifier handling and size accounting.

Documents are plain dictionaries restricted to JSON-compatible values (the
subset of BSON the benchmarks use).  Every document carries an ``_id`` field
which is generated when absent.  A document's size approximates its BSON
wire size: 5 bytes, plus per field its key's UTF-8 bytes + 2 and its value's
size (1 for ``None`` and booleans, 8 for numbers, UTF-8 bytes + 5 for a
string, 5 + per element its size + 2 for an array, a sub-document counted
like a document).  Both storage engines store it beside the document and
drive their space and I/O cost accounting with it.

Hot-path helpers (the copy-on-write write/read boundary):

* :func:`freeze_document` validates, deep-copies and sizes a document in a
  *single* recursive walk.  An insert and a replacement call it once to
  produce the canonical stored document -- engines store that object
  directly and never copy again.
* :func:`field_size` validates and sizes one top-level field.  An update
  (:func:`~repro.docstore.update_ops.apply_update`) sizes its post-image
  from the stored size with it, measuring only the fields it touched.
* :func:`clone_document` is the defensive copy the *client surface* hands
  out -- a fast recursive copy specialised to JSON-like values (no ``copy``
  module dispatch or memoisation), applied exactly once per returned
  document -- and the copy an update makes of a top-level value it changes.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any

from repro.errors import DocumentStoreError

_COUNTER = itertools.count(1)
_COUNTER_LOCK = threading.Lock()


def new_object_id() -> str:
    """Return a new unique document identifier.

    Identifiers are sequential (``oid-1``, ``oid-2`` ...) rather than random
    so that test fixtures and workload traces are reproducible.
    """
    with _COUNTER_LOCK:
        value = next(_COUNTER)
    return f"oid-{value}"


def with_id(document: dict[str, Any]) -> dict[str, Any]:
    """Return a shallow copy of ``document`` guaranteed to carry an ``_id``:
    its own (:func:`check_id`) or a new one."""
    if "_id" in document:
        if isinstance(document["_id"], list):  # asked inline: no call per insert
            check_id(document)
        return dict(document)
    copied = dict(document)
    copied["_id"] = new_object_id()
    return copied


def check_id(document: dict[str, Any]) -> None:
    """Refuse a document whose ``_id`` is an array, as MongoDB does: an
    ``_id`` names one document, so it is matched whole, never by its
    elements -- which is what keeps an ``_id`` lookup one exact probe."""
    if isinstance(document.get("_id"), list):
        raise DocumentStoreError(
            f"an _id may not be an array, got {document['_id']!r}")


def freeze_document(document: dict[str, Any]) -> tuple[dict[str, Any], int]:
    """Validate, deep-copy and size ``document`` in one recursive walk.

    Returns ``(frozen, size)`` where ``frozen`` is the canonical stored copy
    (sharing nothing mutable with the input) and ``size`` is its size (the
    module docstring's rule).  This is the write boundary of the
    copy-on-write document protocol: the frozen object is stored by the
    engine as-is, indexed as-is and captured by the oplog as-is, and is
    never mutated in place afterwards.
    """
    if not isinstance(document, dict):
        raise DocumentStoreError(
            f"documents must be dictionaries, got {type(document).__name__}"
        )
    return _freeze_dict(document, "")


def _freeze_dict(value: dict[str, Any], path: str) -> tuple[dict[str, Any], int]:
    copied: dict[str, Any] = {}
    size = 5
    for key, item in value.items():
        if not isinstance(key, str):
            raise DocumentStoreError(
                f"document keys must be strings (at {path or '<root>'}), got {key!r}"
            )
        if key.startswith("$"):
            raise DocumentStoreError(
                f"field names may not start with '$' (at {path}.{key})"
            )
        child, child_size = _freeze_value(item, f"{path}.{key}" if path else key)
        copied[key] = child
        size += len(key.encode("utf-8")) + 2 + child_size
    return copied, size


def _freeze_value(value: Any, path: str) -> tuple[Any, int]:
    if value is None or value is True or value is False:
        return value, 1
    if isinstance(value, str):
        return value, len(value.encode("utf-8")) + 5
    if isinstance(value, (int, float)):
        return value, 8
    if isinstance(value, list):
        copied_list: list[Any] = []
        size = 5
        for position, item in enumerate(value):
            child, child_size = _freeze_value(item, f"{path}[{position}]")
            copied_list.append(child)
            size += child_size + 2
        return copied_list, size
    if isinstance(value, dict):
        return _freeze_dict(value, path)
    raise DocumentStoreError(
        f"unsupported value type {type(value).__name__} at {path or '<root>'}"
    )


def field_size(key: str, value: Any) -> int:
    """What the top-level field ``key: value`` adds to its document's size,
    validating it as :func:`freeze_document` does (one walk, no copy).

    The update path sizes a post-image from the stored size: it takes off
    what each field the update touched added before and adds what it adds
    now, so only the touched values are validated and measured again.
    """
    if key.startswith("$"):
        raise DocumentStoreError(f"field names may not start with '$' (at .{key})")
    return len(key.encode("utf-8")) + 2 + _measure_value(value, key)


def _measure_dict(value: dict[str, Any], path: str) -> int:
    size = 5
    for key, item in value.items():
        if not isinstance(key, str):
            raise DocumentStoreError(
                f"document keys must be strings (at {path or '<root>'}), got {key!r}"
            )
        if key.startswith("$"):
            raise DocumentStoreError(
                f"field names may not start with '$' (at {path}.{key})"
            )
        size += len(key.encode("utf-8")) + 2 + _measure_value(
            item, f"{path}.{key}" if path else key)
    return size


def _measure_value(value: Any, path: str) -> int:
    if value is None or value is True or value is False:
        return 1
    if isinstance(value, str):
        return len(value.encode("utf-8")) + 5
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, list):
        size = 5
        for position, item in enumerate(value):
            size += _measure_value(item, f"{path}[{position}]") + 2
        return size
    if isinstance(value, dict):
        return _measure_dict(value, path)
    raise DocumentStoreError(
        f"unsupported value type {type(value).__name__} at {path or '<root>'}"
    )


def clone_document(value: Any) -> Any:
    """Fast deep copy specialised to validated JSON-like document values.

    This is the single defensive copy the client surface applies to every
    document it returns; scalars are immutable and shared.  Frozen documents
    contain only plain ``dict``/``list`` containers (``freeze_document``
    rebuilds them), so exact ``type`` checks inlined at each level are safe
    and markedly faster than ``isinstance`` dispatch per scalar.
    """
    tp = type(value)
    if tp is dict:
        return {
            key: (item if type(item) is not dict and type(item) is not list
                  else clone_document(item))
            for key, item in value.items()
        }
    if tp is list:
        return [item if type(item) is not dict and type(item) is not list
                else clone_document(item)
                for item in value]
    return value


def check_field_path(path: Any) -> str:
    """``path`` if it names a field -- a non-empty ``str`` of non-empty
    dot-separated parts -- else a ``DocumentStoreError`` naming it: what
    ``distinct``, ``create_index`` and ``drop_index`` ask of their path on
    every deployment, before they read, lock or log anything."""
    if not isinstance(path, str) or "" in path.split("."):
        raise DocumentStoreError(
            f"a field path must be a non-empty string of non-empty "
            f"dot-separated parts, not {path!r}")
    return path


def get_path(document: dict[str, Any], path: str) -> tuple[bool, Any]:
    """Resolve a dotted ``path`` in ``document``.

    Returns ``(found, value)``; ``found`` is False when any intermediate
    segment is missing or not a dictionary/list.
    """
    current: Any = document
    for segment in path.split("."):
        if isinstance(current, dict):
            if segment not in current:
                return False, None
            current = current[segment]
        elif isinstance(current, list):
            if not segment.isdigit() or int(segment) >= len(current):
                return False, None
            current = current[int(segment)]
        else:
            return False, None
    return True, current


def set_path(document: dict[str, Any], path: str, value: Any) -> None:
    """Set ``value`` at dotted ``path``, creating intermediate objects."""
    segments = path.split(".")
    current: Any = document
    for segment in segments[:-1]:
        if isinstance(current, list) and segment.isdigit():
            index = int(segment)
            while len(current) <= index:
                current.append({})
            current = current[index]
            continue
        if not isinstance(current, dict):
            raise DocumentStoreError(f"cannot descend into {segment!r} on {path!r}")
        if segment not in current:
            current[segment] = {}
        elif not isinstance(current[segment], (dict, list)):
            raise DocumentStoreError(
                f"cannot set {path!r}: {segment!r} is not a document or array"
            )
        current = current[segment]
    last = segments[-1]
    if isinstance(current, list) and last.isdigit():
        index = int(last)
        while len(current) <= index:
            current.append(None)
        current[index] = value
    elif isinstance(current, dict):
        current[last] = value
    else:
        raise DocumentStoreError(f"cannot set {path!r} on a scalar value")


def unset_path(document: dict[str, Any], path: str) -> bool:
    """Remove the value at dotted ``path``; returns True if something was removed."""
    segments = path.split(".")
    current: Any = document
    for segment in segments[:-1]:
        if isinstance(current, dict) and segment in current:
            current = current[segment]
        elif isinstance(current, list) and segment.isdigit() and int(segment) < len(current):
            current = current[int(segment)]
        else:
            return False
    last = segments[-1]
    if isinstance(current, dict) and last in current:
        del current[last]
        return True
    return False
