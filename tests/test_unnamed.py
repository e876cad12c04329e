"""Nothing in ``src/`` that nothing names (``tools/unnamed.py``).

Every ``def`` / ``class`` no code in ``src/repro`` names is on the committed
allow-list ``tools/unnamed_allowed.txt`` under one of the closed reasons, no
entry there is named or gone, and no module keeps an import it never uses.
"""

from __future__ import annotations

import ast
import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("unnamed", ROOT / "tools" / "unnamed.py")
unnamed = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(unnamed)


def test_src_names_every_definition_it_keeps():
    assert unnamed.check(unnamed.scan(ROOT), unnamed.allow_list()) == []


def _tree(root: Path, files: dict[str, str]) -> Path:
    files = {"src/repro/docstore/operations.py":
             'OPERATIONS: tuple = (OperationSpec("find", "query", "read"),)\n',
             "examples/demo.py": "cluster.chunk_map()\n", **files}
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_what_names_a_definition(tmp_path):
    found = unnamed.scan(_tree(tmp_path, {
        "src/repro/__init__.py": 'from repro.a import exported\n__all__ = ["exported"]\n',
        "src/repro/a.py": (
            '"""Mentions documented() in the module docstring."""\n'
            "import os\n"
            "from repro.docstore.collection import Collection\n"
            "def exported(): pass\n"
            "def documented(): pass\n"
            "def called(): pass\n"
            "def by_string(): pass\n"
            "class Shape:\n"
            "    def __init__(self): called()\n"
            "    def chunk_map(self): pass\n"
            "getattr(Shape(), 'by_string'), Collection\n"),
        "src/repro/docstore/collection.py": (
            "class Collection:\n"
            "    def _find(self): pass\n"
            "    def _gone(self): pass\n"),
    }))
    assert found.unnamed == {"repro/a.py::exported", "repro/a.py::documented",
                             "repro/a.py::Shape.chunk_map",
                             "repro/docstore/collection.py::Collection._gone"}
    assert found.unused_imports == ["repro/a.py:2 os"]
    allowed = {"repro/a.py::exported": "chronos", "repro/a.py::documented": "dispatch",
               "repro/a.py::Shape.chunk_map": "harness",
               "repro/docstore/collection.py::Collection._gone": "driver"}
    assert unnamed.check(found, allowed) == ["unused import: repro/a.py:2 os"]
    assert unnamed.check(found, {**allowed, "repro/a.py::called": "chronos",
                                 "repro/a.py::removed": "chronos",
                                 "repro/a.py::exported": "convenient",
                                 "repro/a.py::documented": "harness"}) == [
        "allow-listed but named in src/: repro/a.py::called",
        "allow-listed but gone: repro/a.py::removed",
        "allow-listed as harness but not named in examples or benchmarks/perf: "
        "repro/a.py::documented",
        "allow-listed for an unknown reason 'convenient': repro/a.py::exported",
        "unused import: repro/a.py:2 os",
    ]


@pytest.mark.parametrize("files,named", [
    ({"src/repro/a.py": "def target(): pass\ntarget()\n"}, True),
    ({"src/repro/b.py": "import repro.a\nrepro.a.target()\n"}, True),
    ({"src/repro/b.py": "from repro.a import target\n"}, True),
    ({"src/repro/b.py": "from repro.a import target as other\nother\n"}, True),
    ({"src/repro/b.py": "dict(target=1)\n"}, True),
    ({"src/repro/b.py": "getattr(object, 'target')\n"}, True),
    ({"src/repro/b.py": ("def run(operation):\n    return getattr(object, operation)\n"
                         "def route(op):\n    return run(op)\nroute('target')\n")}, True),
    ({"src/repro/b.py": ('TEMPLATE = "return self.target(value)"\n'
                         "@generated(TEMPLATE)\nclass Facade: pass\n")}, True),
    ({"src/repro/b.py": "define(f'def f(): return target({1})', 'f', {})\n"}, True),
    ({"src/repro/b.py": 'def run(value: "target"): pass\nrun(1)\n'}, True),
    ({"src/repro/core/api/routes.py":
      'ROUTES: tuple = (Row("v1", "GET", "/x", "jobs.target"),)\n'}, True),
    ({"src/repro/core/api/routes.py":
      'ROUTES: tuple = (Row("v1", "GET", "/target", "jobs.get"),)\n'}, False),
    ({"src/repro/b.py": 'raise ValueError("call target() first")\n'}, False),
    ({"src/repro/b.py": 'TEMPLATE = "return self.target(value)"\n'}, False),
    ({"src/repro/a.py": '"""Call target()."""\ndef target(): pass\n'}, False),
    ({"src/repro/b.py": 'def other():\n    """Calls target()."""\nother()\n'}, False),
    ({"src/repro/b.py": "# target()\n"}, False),
    ({"src/repro/b.py": '"target"\n'}, False),
    ({"src/repro/b.py": '__all__ = ["target"]\n'}, False),
    ({"src/repro/__init__.py": "from repro.a import target\n"}, False),
    ({}, False),
], ids=["call", "attribute", "import", "import-as", "keyword", "getattr", "dispatched",
        "template", "define", "annotation", "route", "route-path", "string", "unused-template",
        "module-docstring", "function-docstring", "comment", "bare-string", "all",
        "re-export", "definition-only"])
def test_one_rule_of_naming(tmp_path, files, named):
    files = {"src/repro/a.py": "def target(): pass\n", **files}
    found = unnamed.scan(_tree(tmp_path, files))
    assert ("repro/a.py::target" not in found.unnamed) is named


@pytest.mark.parametrize("path,text,unused", [
    ("a.py", "import os\n", ["repro/a.py:1 os"]),
    ("a.py", "import os\nos.sep\n", []),
    ("a.py", "import os.path\nos.path.join\n", []),
    ("a.py", "import os.path\n", ["repro/a.py:1 os"]),
    ("a.py", "import json as codec\n", ["repro/a.py:1 codec"]),
    ("a.py", "from os import sep, getcwd\nsep\n", ["repro/a.py:1 getcwd"]),
    ("a.py", "from __future__ import annotations\n", []),
    ("a.py", 'from os import sep\n__all__ = ["sep"]\n', []),
    ("a.py", 'from pathlib import Path\nx: "Path"\n', []),
    ("a.py", '"""Uses os."""\nimport os\n', ["repro/a.py:2 os"]),
    ("a.py", "from os import *\n", []),
    ("__init__.py", "import os\n", []),
], ids=["unused", "used", "dotted", "dotted-unused", "as", "from", "future", "all",
        "string-annotation", "docstring-only", "star", "init"])
def test_one_rule_of_unused_imports(tmp_path, path, text, unused):
    found = unnamed.scan(_tree(tmp_path, {f"src/repro/{path}": text}))
    assert found.unused_imports == unused


def test_allow_list_reads_reason_then_entry(tmp_path):
    listed = tmp_path / "allowed.txt"
    listed.write_text("# a header comment\n\n"
                      "chronos   repro/a.py::exported\n"
                      "harness   repro/a.py::Shape.chunk_map   # read by a demo\n")
    assert unnamed.allow_list(listed) == {"repro/a.py::exported": "chronos",
                                          "repro/a.py::Shape.chunk_map": "harness"}


@pytest.mark.parametrize("allowed,status", [({"repro/a.py::exported": "chronos"}, 0),
                                            ({}, 1)], ids=["clean", "unlisted"])
def test_main_prints_the_series_and_exits_on_failure(tmp_path, monkeypatch, capsys,
                                                     allowed, status):
    found = unnamed.scan(_tree(tmp_path, {"src/repro/a.py": "def exported(): pass\n"}))
    monkeypatch.setattr(unnamed, "scan", lambda: found)
    monkeypatch.setattr(unnamed, "allow_list", lambda: allowed)
    assert unnamed.main() == status
    out = capsys.readouterr().out.splitlines()
    assert f"{len(allowed):>4}  allow-listed in total" in out
    assert f"{1 - len(allowed):>4}  unnamed and not allow-listed" in out
    assert ("unnamed and not allow-listed: repro/a.py::exported" in out) is bool(status)


def _delete(path: Path, qualname: str) -> None:
    """Replace the definition ``qualname`` of ``path`` by ``pass``."""
    lines = path.read_text().splitlines(keepends=True)
    scope = ast.parse("".join(lines))
    for part in qualname.split("."):
        (scope,) = [node for node in scope.body if getattr(node, "name", None) == part]
    first = min([scope.lineno] + [decorator.lineno for decorator in scope.decorator_list])
    indent = lines[first - 1][:len(lines[first - 1]) - len(lines[first - 1].lstrip())]
    lines[first - 1:scope.end_lineno] = [f"{indent}pass\n"]
    path.write_text("".join(lines))


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """The failures of a copy of this repository with four planted mutants:
    an unnamed ``def``, an unused import, a caller for the first allow-list
    entry and the deletion of the last one."""
    copy = tmp_path_factory.mktemp("planted")
    for directory in ("src/repro", *unnamed.HARNESS):
        shutil.copytree(ROOT / directory, copy / directory,
                        ignore=shutil.ignore_patterns("__pycache__"))
    source = copy / "src" / "repro"
    with open(source / "util" / "ids.py", "a") as ids:
        ids.write("\n\ndef planted_helper():\n    return None\n")
    with open(source / "docstore" / "cursor.py", "a") as cursor:
        cursor.write("import colorsys\n")
    allowed = unnamed.allow_list()
    called, deleted = sorted(allowed)[0], sorted(allowed)[-1]
    called_path, _, _ = called.partition("::")
    with open(copy / "src" / called_path, "a") as module:
        module.write(f"\ngetattr(object, {unnamed.name_of(called)!r})\n")
    deleted_path, _, qualname = deleted.partition("::")
    _delete(copy / "src" / deleted_path, qualname)
    failures = unnamed.check(unnamed.scan(copy), allowed)
    return failures, called, deleted, len((source / "docstore" / "cursor.py")
                                          .read_text().splitlines())


def test_planted_unnamed_def_fails(planted):
    assert "unnamed and not allow-listed: repro/util/ids.py::planted_helper" in planted[0]


def test_planted_unused_import_fails(planted):
    failures, _, _, line = planted
    assert f"unused import: repro/docstore/cursor.py:{line} colorsys" in failures


def test_allow_listed_definition_given_a_caller_fails(planted):
    failures, called, _, _ = planted
    assert f"allow-listed but named in src/: {called}" in failures


def test_allow_listed_definition_deleted_fails(planted):
    failures, _, deleted, _ = planted
    assert f"allow-listed but gone: {deleted}" in failures
