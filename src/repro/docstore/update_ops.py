"""Update operators: ``$set``, ``$unset``, ``$inc``, ``$mul``, ``$min``,
``$max``, ``$rename``, ``$push``, ``$addToSet``, ``$pull`` and ``$pop``.

:func:`apply_update` builds a post-image from what the update changes: it
copies, validates and sizes only the top-level fields its operators touch,
and every other top-level value is the stored object itself.  Storage
engines decide afterwards whether the new version fits in place (mmapv1
padding) or requires a rewrite.  An operand an operator cannot apply is
refused with a :class:`~repro.errors.DocumentStoreError` naming the
operator and the field, before anything is stored.  ``$addToSet`` and
``$pull`` tell two values apart by :func:`~repro.docstore.values.key`.
"""

from __future__ import annotations

from typing import Any

from repro.docstore.documents import (
    clone_document,
    field_size,
    freeze_document,
    get_path,
    set_path,
    unset_path,
)
from repro.docstore.values import key
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
    if isinstance(update, dict):
        for key in update:
            if isinstance(key, str) and key.startswith("$"):
                return True
    return False


def apply_update(document: dict[str, Any], size: int, update: dict[str, Any]
                 ) -> tuple[dict[str, Any], int]:
    """Return ``(post_image, size)``: ``update`` applied to the stored
    ``document`` of ``size`` bytes.

    ``document`` is frozen and never mutated.  An operator update copies its
    top level and deep-copies a top-level value only when an operator's path
    starts in it (for ``$rename``, both ends), so every value it leaves
    alone is the same object in both versions -- what lets index maintenance
    skip it by identity.  A scalar operand is stored as it is, a container
    operand copied.  The size is ``size`` less what each touched field added
    before, plus what it adds now: the new values are validated and measured
    in post-image key order, so an invalid one raises the error a walk of the
    whole post-image would (the others were validated when stored).

    A whole-document replacement is frozen from the caller's document in one
    walk and keeps the stored ``_id``.
    """
    if not is_update_document(update):
        return _replace(document, update)
    result = dict(document)
    touched: dict[str, int] = {}  # top-level field -> what it added before
    for operator, spec in update.items():
        if operator not in _SUPPORTED:
            raise DocumentStoreError(f"unknown update operator {operator!r}")
        if not isinstance(spec, dict):
            raise DocumentStoreError(f"{operator} expects an object of field updates")
        for path, operand in spec.items():
            _touch(result, touched, operator, path)
            if operator == "$rename":
                _check_rename(path, operand)
                _touch(result, touched, operator, operand)
            _apply_one(result, operator, path, operand)
    size -= sum(touched.values())
    in_key_order = (touched if len(touched) == 1
                    else [field for field in result if field in touched])
    for field in in_key_order:
        if field in result:
            size += field_size(field, result[field])
    return result, size


def _replace(document: dict[str, Any], replacement: dict[str, Any]
             ) -> tuple[dict[str, Any], int]:
    frozen, size = freeze_document(replacement)
    if "_id" in frozen:
        size -= field_size("_id", frozen["_id"])
    frozen["_id"] = document["_id"]
    return frozen, size + field_size("_id", frozen["_id"])


def _touch(result: dict[str, Any], touched: dict[str, int], operator: str,
           path: Any) -> None:
    """Make the top-level field ``path`` starts in the post-image's own: its
    stored value deep-copied, what it added to the size noted."""
    if not isinstance(path, str):
        raise DocumentStoreError(f"{operator} field paths must be strings, got {path!r}")
    field = path.partition(".")[0]
    if field == "_id":
        raise DocumentStoreError("the _id field cannot be modified")
    if field in touched:
        return
    if field not in result:
        touched[field] = 0
        return
    value = result[field]
    touched[field] = field_size(field, value)
    if type(value) is dict or type(value) is list:
        result[field] = clone_document(value)


def _check_rename(path: str, target: Any) -> None:
    if not isinstance(target, str):
        raise DocumentStoreError(f"$rename target of {path!r} must be a string")
    if (target == path or target.startswith(path + ".")
            or path.startswith(target + ".")):
        raise DocumentStoreError(
            f"$rename source {path!r} and target {target!r} overlap")


def _copy_operand(value: Any) -> Any:
    """A caller's operand as the post-image holds it: containers copied into
    plain ones, anything else as it is (validation refuses what is not
    JSON-like)."""
    if isinstance(value, dict):
        return {key: _copy_operand(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_operand(item) for item in value]
    return value


def _apply_one(document: dict[str, Any], operator: str, path: str, operand: Any) -> None:
    if operator == "$set":
        set_path(document, path, _copy_operand(operand))
        return
    if operator == "$unset":
        unset_path(document, path)
        return
    if operator == "$rename":
        found, value = get_path(document, path)
        if found:
            unset_path(document, path)
            set_path(document, operand, value)
        return

    found, current = get_path(document, path)

    if operator in ("$inc", "$mul"):
        if found and (not isinstance(current, (int, float)) or isinstance(current, bool)):
            raise DocumentStoreError(
                f"cannot apply {operator} to non-numeric field {path!r}")
        if not isinstance(operand, (int, float)) or isinstance(operand, bool):
            raise DocumentStoreError(f"{operator} requires a numeric operand")
        base = current if found else 0
        set_path(document, path, base + operand if operator == "$inc" else base * operand)
        return

    if operator in ("$min", "$max"):
        if found:
            try:
                replaces = operand < current if operator == "$min" else operand > current
            except TypeError:
                raise DocumentStoreError(
                    f"cannot apply {operator} to field {path!r}: "
                    f"{type(operand).__name__} and {type(current).__name__} "
                    f"do not compare") from None
            if not replaces:
                return
        set_path(document, path, _copy_operand(operand))
        return

    if operator in ("$push", "$addToSet"):
        if found and not isinstance(current, list):
            raise DocumentStoreError(f"cannot {operator} to non-array field {path!r}")
        if isinstance(operand, dict) and "$each" in operand:
            items = operand["$each"]
            if not isinstance(items, list):
                raise DocumentStoreError(
                    f"{operator} $each on field {path!r} requires an array")
        else:
            items = [operand]
        array = list(current) if found else []
        held = set(map(key, array)) if operator == "$addToSet" else None
        for item in items:
            if held is not None:
                item_key = key(item)
                if item_key in held:
                    continue
                held.add(item_key)
            array.append(_copy_operand(item))
        set_path(document, path, array)
        return

    if operator == "$pull":
        if not found or not isinstance(current, list):
            return
        pulled = key(operand)
        set_path(document, path, [item for item in current if key(item) != pulled])
        return

    if operator == "$pop":
        if operand not in (1, -1) or isinstance(operand, bool):
            raise DocumentStoreError(
                f"$pop on field {path!r} takes 1 or -1, got {operand!r}")
        if not found or not isinstance(current, list) or not current:
            return
        set_path(document, path, current[1:] if operand == -1 else current[:-1])
        return

    raise DocumentStoreError(f"unknown update operator {operator!r}")
