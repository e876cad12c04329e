"""No test module imports another.

What several test modules share lives in a shared module, never in a
``test_*.py``: ``tests/docstore/deployments.py`` (the deployment matrix),
``tests/docstore/reference.py`` (the reference docstore),
``tests/docstore/engine_helpers.py`` (engine twins and counters) and
``tests/storage/schemas.py`` (table shapes).  And the reference decides no
value with ``src/``: it names from ``repro`` only the operation table, the
interval types its ``query_intervals`` answers with, and the error types.
"""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent

#: What ``tests/docstore/reference.py`` may import from ``repro``.
REFERENCE_IMPORTS = {
    "repro.docstore.operations": {"OPERATIONS"},
    "repro.docstore.predicates": {"Interval", "IntervalSet"},
    "repro.errors": {"DocumentStoreError", "DuplicateKeyError"},
}


def imported_modules(node: ast.AST) -> list[str]:
    """The modules an import statement names: ``a.b`` of ``import a.b``, and
    ``a`` and ``a.b`` of ``from a import b`` (``b`` may be a module)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return [module] + [f"{module}.{alias.name}" for alias in node.names]
    return []


def cross_imports(root: Path) -> list[str]:
    """``path:line module`` of every import statement, in a ``test_*.py``
    under ``root``, that names a ``test_*`` module (the first it names)."""
    found = []
    for path in sorted(root.rglob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_bytes())):
            tests = [module for module in imported_modules(node)
                     if module.rpartition(".")[2].startswith("test_")]
            if tests:
                found.append(f"{path.relative_to(root).as_posix()}:{node.lineno} {tests[0]}")
    return found


def test_no_test_module_imports_another():
    assert cross_imports(TESTS) == []


def test_every_cross_import_is_found(tmp_path):
    (tmp_path / "docstore").mkdir()
    (tmp_path / "test_a.py").write_text(
        "from tests.test_b import helper\n"
        "import tests.docstore.test_c\n"
        "from tests.docstore import reference, test_c\n"
        "from .test_b import helper\n"
        "from tests.docstore.reference import same\n")
    (tmp_path / "docstore" / "reference.py").write_text("from tests.test_b import x\n")
    assert cross_imports(tmp_path) == [
        "test_a.py:1 tests.test_b",
        "test_a.py:2 tests.docstore.test_c",
        "test_a.py:3 tests.docstore.test_c",
        "test_a.py:4 test_b",
    ]


def test_the_reference_decides_no_value_with_src():
    tree = ast.parse((TESTS / "docstore" / "reference.py").read_bytes())
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [alias.name for alias in node.names
                        if alias.name.split(".")[0] == "repro"]
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "repro":
            imported.setdefault(node.module, set()).update(
                alias.name for alias in node.names)
    assert imported == REFERENCE_IMPORTS
