"""The one bounded memo and the one source compiler (``codegen.py``).

Every process-wide or per-planner memo of the read path is a
``BoundedMemo``: filled through the function that answers from it, it never
holds more than its limit, and a repeat is answered by the object it stored.
Every piece of generated code is compiled by ``codegen.define``: no other
``exec`` or ``compile`` call is left in ``src/``, and all generated code
shares one filename convention.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

from repro.docstore import kernels, matching, observability
from repro.docstore.aggregation import parse_group_spec
from repro.docstore.codegen import BoundedMemo
from repro.docstore.collection import Collection
from repro.docstore.matching import compile_shape, query_shape
from repro.docstore.observability import render_query_shape
from repro.docstore.wiredtiger import WiredTigerEngine

SOURCE = Path(__file__).resolve().parents[2] / "src" / "repro"


# -- every memo: bounded, and a hit is what was stored ------------------------------


def rendered_shapes():
    def request(index):
        query = {f"field{index}": 1}
        render_query_shape(query)
        return observability._shape_key(query)
    return observability._SHAPES, request


def compiled_shapes():
    def request(index):
        shape = query_shape({f"field{index}": {"$gt": index}})[0]
        compile_shape(shape)
        return shape
    return matching._COMPILED, request


def group_kernels():
    def request(index):
        spec = parse_group_spec({"_id": f"$field{index}", "n": {"$sum": 1}})
        return spec.shape
    return kernels._GROUPS, request


def plan_cache():
    collection = Collection("c", WiredTigerEngine())
    collection.insert_many([{"_id": f"k{index}", "v": index} for index in range(8)])

    def request(index):
        query = {f"field{index}": {"$gt": index}}
        collection.planner.plan(query)
        return query_shape(query)[0], None
    return collection.planner._cache, request


@pytest.mark.parametrize("case", [rendered_shapes, compiled_shapes, group_kernels,
                                  plan_cache], ids=lambda case: case.__name__)
def test_a_memo_stays_within_its_limit_and_a_hit_is_what_it_stored(case):
    memo, request = case()
    assert type(memo) is BoundedMemo
    for index in range(memo.limit + 50):
        key = request(index)
        stored = memo.get(key)
        assert stored is not None
        assert len(memo) <= memo.limit
        request(index)  # a repeat, answered from the memo
        assert memo.get(key) is stored


def test_the_answers_are_the_stored_objects():
    shape = query_shape({"a": {"$lt": 3}})[0]
    assert compile_shape(shape) is matching._COMPILED.get(shape)
    spec = parse_group_spec({"_id": "$a", "total": {"$sum": "$b"}})
    assert spec.accumulate is kernels._GROUPS.get(spec.shape)
    query = {"a": [1, "x"]}
    assert render_query_shape(query) is observability._SHAPES.get(
        observability._shape_key(query))


def test_concurrent_stores_never_overfill_a_memo_nor_cross_keys():
    memo = BoundedMemo(16)
    start = threading.Barrier(8)
    faults: list[str] = []

    def work(thread: int) -> None:
        start.wait()
        for index in range(400):
            key = (thread, index % 40)
            value = memo.get(key)
            if value is None:
                value = memo.store(key, ("built for", key))
            if value != ("built for", key):
                faults.append(f"{key}: {value}")
            if len(memo) > 16:
                faults.append(f"{len(memo)} entries")

    threads = [threading.Thread(target=work, args=(thread,)) for thread in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside a store, not between them
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert faults == []
    assert len(memo) <= 16


# -- one source compiler -------------------------------------------------------------


def compiler_calls() -> set[tuple[str, str]]:
    """``(module, enclosing function)`` of every ``exec`` or builtin
    ``compile`` call in ``src/repro``."""
    found = set()

    def walk(node: ast.AST, module: str, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("exec", "compile")):
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            walk(child, module, function)

    for path in sorted(SOURCE.rglob("*.py")):
        walk(ast.parse(path.read_text()), path.relative_to(SOURCE).as_posix(), "")
    return found


def test_define_is_the_only_exec_site():
    assert compiler_calls() == {("docstore/codegen.py", "define")}


def test_generated_code_shares_one_filename_convention():
    kernel = compile_shape(query_shape({"a": 1, "b": {"$gte": 2}})[0])
    accumulate = parse_group_spec({"_id": "$a", "n": {"$count": {}}}).accumulate
    for function in (kernel.match, kernel.select, accumulate,
                     Collection.find_with_cost):
        assert function.__code__.co_filename.startswith("<generated ")
