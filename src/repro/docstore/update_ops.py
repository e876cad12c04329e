"""Update operators: ``$set``, ``$unset``, ``$inc``, ``$mul``, ``$push`` ...

`apply_update` produces a *new* document; storage engines decide afterwards
whether the new version fits in place (mmapv1 padding) or requires a rewrite.
"""

from __future__ import annotations

import copy
from typing import Any

from repro.docstore.documents import (
    clone_document,
    get_path,
    set_path,
    unset_path,
    validate_document,
)
from repro.errors import DocumentStoreError

_SUPPORTED = {
    "$set",
    "$unset",
    "$inc",
    "$mul",
    "$min",
    "$max",
    "$rename",
    "$push",
    "$pull",
    "$addToSet",
    "$pop",
}


def is_update_document(update: dict[str, Any]) -> bool:
    """True when ``update`` uses operators rather than whole-document replacement."""
    return isinstance(update, dict) and any(key.startswith("$") for key in update)


def apply_update(document: dict[str, Any], update: dict[str, Any]) -> dict[str, Any]:
    """Return a new document with ``update`` applied to ``document``.

    Whole-document replacement preserves the original ``_id``; operator
    updates are applied field by field.  ``document`` is a stored one --
    frozen, plain ``dict``/``list`` containers -- so the cheap
    :func:`~repro.docstore.documents.clone_document` copies it (sharing the
    scalars the update leaves alone, which is what lets index maintenance
    skip them by identity); what the caller owns, operand values and
    replacement documents, is still deep-copied and validated.
    """
    if not is_update_document(update):
        replacement = copy.deepcopy(update)
        validate_document(replacement)
        replacement["_id"] = document["_id"]
        return replacement

    result = clone_document(document)
    for operator, spec in update.items():
        if operator not in _SUPPORTED:
            raise DocumentStoreError(f"unknown update operator {operator!r}")
        if not isinstance(spec, dict):
            raise DocumentStoreError(f"{operator} expects an object of field updates")
        for path, operand in spec.items():
            if path == "_id":
                raise DocumentStoreError("the _id field cannot be modified")
            _apply_one(result, operator, path, operand)
    return result


def _apply_one(document: dict[str, Any], operator: str, path: str, operand: Any) -> None:
    if operator == "$set":
        set_path(document, path, copy.deepcopy(operand))
        return
    if operator == "$unset":
        unset_path(document, path)
        return
    if operator == "$rename":
        found, value = get_path(document, path)
        if found:
            unset_path(document, path)
            set_path(document, str(operand), value)
        return

    found, current = get_path(document, path)

    if operator in ("$inc", "$mul"):
        if found and not isinstance(current, (int, float)) or isinstance(current, bool):
            if found:
                raise DocumentStoreError(
                    f"cannot apply {operator} to non-numeric field {path!r}"
                )
        if not isinstance(operand, (int, float)) or isinstance(operand, bool):
            raise DocumentStoreError(f"{operator} requires a numeric operand")
        if operator == "$inc":
            base = current if found else 0
            set_path(document, path, base + operand)
        else:
            base = current if found else 0
            set_path(document, path, base * operand)
        return

    if operator in ("$min", "$max"):
        if not found:
            set_path(document, path, copy.deepcopy(operand))
            return
        if operator == "$min" and operand < current:
            set_path(document, path, copy.deepcopy(operand))
        if operator == "$max" and operand > current:
            set_path(document, path, copy.deepcopy(operand))
        return

    # Array operators below.
    if operator == "$push":
        array = current if found and isinstance(current, list) else []
        if found and not isinstance(current, list):
            raise DocumentStoreError(f"cannot $push to non-array field {path!r}")
        array = list(array)
        if isinstance(operand, dict) and "$each" in operand:
            array.extend(copy.deepcopy(operand["$each"]))
        else:
            array.append(copy.deepcopy(operand))
        set_path(document, path, array)
        return

    if operator == "$addToSet":
        array = current if found and isinstance(current, list) else []
        if found and not isinstance(current, list):
            raise DocumentStoreError(f"cannot $addToSet to non-array field {path!r}")
        array = list(array)
        if operand not in array:
            array.append(copy.deepcopy(operand))
        set_path(document, path, array)
        return

    if operator == "$pull":
        if not found or not isinstance(current, list):
            return
        set_path(document, path, [item for item in current if item != operand])
        return

    if operator == "$pop":
        if not found or not isinstance(current, list) or not current:
            return
        array = list(current)
        if operand == -1:
            array.pop(0)
        else:
            array.pop()
        set_path(document, path, array)
        return

    raise DocumentStoreError(f"unknown update operator {operator!r}")
