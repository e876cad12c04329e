#!/usr/bin/env python3
"""Definitions and imports of src/repro that nothing in src/repro names.

    python tools/unnamed.py    # allow-list size per reason, then every failure

A ``def`` or ``class`` is *named* when its name occurs in the code of
src/repro other than at its own definition: as a ``Name``, an ``Attribute``,
an import alias, a keyword, or an identifier inside a string that becomes
code.  Two kinds of string do:

* a source passed to a compiler (:data:`COMPILERS`: ``codegen.define``,
  ``operations.generated``), written in the call or bound to a module-level
  name the call passes (``@generated(_GATED_OPERATION)``);
* an operation name dispatched through ``getattr``: the attribute argument
  of ``getattr`` itself, or a string handed to a parameter that reaches
  one (``_run_on_owner(..., "distinct", ...)`` passes ``operation`` on to
  ``_run_on_shard``, whose ``getattr(target, operation)`` calls it).

A string annotation (``-> "ShardedCluster"``) is code as well.

Any other string -- a message, an op code, a label -- names nothing, nor
do a docstring, a comment, a package's re-exports (``__init__.py``
imports) and an ``__all__`` entry.  Python's own protocol names
(``__dunder__``) are never listed.  Every row name of
``operations.OPERATIONS`` counts as named, and so do the
``Collection._<name>`` bodies of the rows: the templates put each row's name
into the code they generate.  So does every attribute of a dotted call of
``core/api/routes.py``'s ``ROUTES`` (``Row(..., "jobs.get", ...)``): each
route resolves its call from it.  The scan goes by name alone, so a
definition whose name is also used for something else counts as named.

An import is *unused* when its module never names the binding, an
``__all__`` entry included; an ``__init__.py``'s imports are re-exports and
are not checked.

Every unnamed definition must be on the committed allow-list
(``unnamed_allowed.txt`` beside this file) under one of the closed
``REASONS``.  An entry fails when its definition is named or gone, so the
list only shrinks, and a ``harness`` entry also fails when nothing in
examples/ or benchmarks/perf/ names it.  The exit status is 1 on any failure.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, NamedTuple

REPO = Path(__file__).resolve().parent.parent
ALLOWED = Path(__file__).resolve().parent / "unnamed_allowed.txt"

#: Why a definition may stay with no caller in src/: the closed set.
REASONS = {
    "chronos": "the paper's Chronos service, agent or analysis surface",
    "dispatch": "dispatched by name (BaseHTTPRequestHandler's do_* / log_message)",
    "driver": "the pymongo-style driver surface",
    "harness": "read by examples/ or benchmarks/perf/",
    "checker": "a kept reference checker",
    "fault": "a fault of the failure injector's alphabet, for schedules to inject",
}
#: Where a ``harness`` entry's reader lives.
HARNESS = ("examples", "benchmarks/perf")

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: The calls whose first argument is source text that becomes code.
COMPILERS = {"define", "generated"}
_OPERATIONS = "repro/docstore/operations.py"
_COLLECTION = "repro/docstore/collection.py"
_ROUTES = "repro/core/api/routes.py"


def _all_entries(tree: ast.Module) -> list[ast.Constant]:
    """The string constants inside the module's ``__all__``."""
    return [constant for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets)
            for constant in ast.walk(node.value) if isinstance(constant, ast.Constant)]


def _called(call: ast.Call) -> str | None:
    """The name a call calls: ``f`` of ``f(...)`` and of ``x.f(...)``."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    return call.func.attr if isinstance(call.func, ast.Attribute) else None


def _argument(call: ast.Call, position: int) -> ast.expr | None:
    """The argument a call passes at ``position``, unless a ``*`` comes first."""
    if position >= len(call.args) or any(
            isinstance(argument, ast.Starred) for argument in call.args[:position + 1]):
        return None
    return call.args[position]


def dispatchers(trees: Iterable[ast.Module]) -> dict[str, set[int]]:
    """Function name -> the positions (``self`` not counted) of the
    parameters it dispatches through ``getattr``: hands it as the attribute
    name, or passes it on to such a position of another call -- a nested
    function of it included."""
    functions = [node for tree in trees for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    table: dict[str, set[int]] = {"getattr": {1}}
    changed = True
    while changed:
        changed = False
        for function in functions:
            params = [each.arg for each in function.args.posonlyargs + function.args.args]
            params = params[1:] if params[:1] in (["self"], ["cls"]) else params
            for call in ast.walk(function):
                if not isinstance(call, ast.Call):
                    continue
                for position in table.get(_called(call), set()).copy():
                    argument = _argument(call, position)
                    if isinstance(argument, ast.Name) and argument.id in params:
                        index = params.index(argument.id)
                        if index not in table.setdefault(function.name, set()):
                            table[function.name].add(index)
                            changed = True
    return table


def _annotations(node: ast.AST) -> list[ast.expr]:
    """The annotations a function or an annotated assignment carries."""
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    every = node.args
    arguments = [*every.posonlyargs, *every.args, *every.kwonlyargs,
                 *filter(None, (every.vararg, every.kwarg))]
    return [each for each in [node.returns, *(argument.annotation for argument
                                                in arguments)] if each is not None]


def _code_strings(tree: ast.Module, dispatch: dict[str, set[int]]) -> list[str]:
    """The string constants of the module that become code: a compiler's
    source (a module-level name it is passed resolves to its value), an
    operation name at a dispatching position, and a string annotation."""
    bound = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)}
    sources: list[ast.AST] = []
    for node in ast.walk(tree):
        sources += _annotations(node)
        if not isinstance(node, ast.Call):
            continue
        if _called(node) in COMPILERS and node.args:
            source = node.args[0]
            sources.append(bound.get(source.id, source)
                           if isinstance(source, ast.Name) else source)
        for position in dispatch.get(_called(node), ()):
            argument = _argument(node, position)
            if argument is not None:
                sources.append(argument)
    return [constant.value for source in sources for constant in ast.walk(source)
            if isinstance(constant, ast.Constant) and isinstance(constant.value, str)]


def names_used(tree: ast.Module, aliases: bool = True,
               dispatch: dict[str, set[int]] | None = None) -> Counter[str]:
    """Every name the module's code uses, once per occurrence, its strings
    that become code included (``dispatch``: :func:`dispatchers` of every
    module scanned; by default this module's own).  Import aliases count
    unless ``aliases`` is false."""
    used: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            used[node.arg] += 1
        elif isinstance(node, ast.alias) and aliases:
            used.update({node.name.rpartition(".")[2], node.asname} - {None})
    for text in _code_strings(tree, dispatchers([tree]) if dispatch is None else dispatch):
        used.update(_IDENTIFIER.findall(text))
    return used


def definitions(tree: ast.Module, path: str) -> list[str]:
    """``path::qualname`` of every ``def`` and ``class`` of the module (``path``
    relative to src/), nested ones included."""
    found: list[str] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append(f"{path}::{prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def name_of(entry: str) -> str:
    """The name a ``path::qualname`` defines."""
    return entry.partition("::")[2].rpartition(".")[2]


def table_strings(tree: ast.Module, table: str, row: str, position: int) -> set[str]:
    """The string at ``position`` of every ``row(...)`` of the module-level
    table ``table``."""
    (value,) = [node.value for node in tree.body if isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name) and node.target.id == table]
    return {argument.value for call in ast.walk(value)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == row
            for argument in [_argument(call, position)]
            if isinstance(argument, ast.Constant) and isinstance(argument.value, str)}


def operation_names(tree: ast.Module) -> set[str]:
    """The ``name`` of every ``OperationSpec`` row of ``OPERATIONS``."""
    return table_strings(tree, "OPERATIONS", "OperationSpec", 0)


def route_calls(tree: ast.Module) -> list[str]:
    """The attribute names of every dotted call of a ``Row`` of ``ROUTES``."""
    return [name for call in table_strings(tree, "ROUTES", "Row", 3)
            for name in call.split(".")]


def unused_imports(tree: ast.Module, path: str) -> list[str]:
    """``path:line binding`` for every import binding the module never uses."""
    used = names_used(tree, aliases=False)
    used.update(constant.value for constant in _all_entries(tree))
    return [f"{path}:{node.lineno} {binding}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            for binding in [alias.asname or alias.name.partition(".")[0]]
            if binding != "*" and not used[binding]]


def _parse(files: list[Path], root: Path) -> dict[str, ast.Module]:
    return {file.relative_to(root).as_posix(): ast.parse(file.read_bytes(), str(file))
            for file in files}


class Scan(NamedTuple):
    unnamed: set[str]           # "path::qualname" of each unnamed definition
    every: set[str]             # "path::qualname" of each definition
    unused_imports: list[str]
    harness_names: Counter[str]


def scan(repo: Path = REPO) -> Scan:
    """Scan the src/repro of ``repo``, and the harness that reads it."""
    source = repo / "src"
    trees = _parse(sorted((source / "repro").rglob("*.py")), source)
    dispatch = dispatchers(trees.values())
    rows = operation_names(trees[_OPERATIONS])
    used: Counter[str] = Counter(rows)
    if _ROUTES in trees:
        used.update(route_calls(trees[_ROUTES]))
    for path, tree in trees.items():
        # An __init__.py's imports re-export; they name nothing.
        used += names_used(tree, not path.endswith("__init__.py"), dispatch)
    every = {each for path, tree in trees.items() for each in definitions(tree, path)}
    generated = {f"{_COLLECTION}::Collection._{name}" for name in rows}
    unnamed = {each for each in every - generated
               if not used[name_of(each)]
               and not (name_of(each).startswith("__") and name_of(each).endswith("__"))}
    harness: Counter[str] = Counter()
    for tree in _parse([file for directory in HARNESS
                        for file in sorted((repo / directory).rglob("*.py"))], repo).values():
        harness += names_used(tree)
    return Scan(unnamed, every,
                [line for path, tree in trees.items() if not path.endswith("__init__.py")
                 for line in unused_imports(tree, path)],
                harness)


def allow_list(path: Path = ALLOWED) -> dict[str, str]:
    """``path::qualname`` → reason, read from the committed allow-list."""
    entries: dict[str, str] = {}
    for line in path.read_text().splitlines():
        line = line.partition("#")[0].strip()
        if line:
            reason, entry = line.split()
            entries[entry] = reason
    return entries


def check(found: Scan, allowed: dict[str, str]) -> list[str]:
    """One line per failure: an unnamed definition not on the allow-list; an
    entry that is named now, gone, gives no known reason, or says
    ``harness`` with no reader there; an unused import."""
    failures = [f"unnamed and not allow-listed: {entry}"
                for entry in sorted(found.unnamed - allowed.keys())]
    failures += [f"allow-listed but {'named in src/' if entry in found.every else 'gone'}: {entry}"
                 for entry in sorted(allowed.keys() - found.unnamed)]
    for entry, reason in sorted(allowed.items()):
        if reason not in REASONS:
            failures.append(f"allow-listed for an unknown reason {reason!r}: {entry}")
        elif reason == "harness" and not found.harness_names[name_of(entry)]:
            failures.append(f"allow-listed as harness but not named in "
                            f"{' or '.join(HARNESS)}: {entry}")
    failures += [f"unused import: {line}" for line in found.unused_imports]
    return failures


def main() -> int:
    found, allowed = scan(), allow_list()
    sizes = Counter(allowed.values())
    for reason, meaning in REASONS.items():
        print(f"{sizes[reason]:>4}  allow-listed: {meaning}")
    print(f"{sum(sizes.values()):>4}  allow-listed in total")
    print(f"{len(found.unnamed - allowed.keys()):>4}  unnamed and not allow-listed")
    print(f"{len(found.unused_imports):>4}  unused imports")
    failures = check(found, allowed)
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
