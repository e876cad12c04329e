#!/usr/bin/env python3
"""Code lines by the rule every ROADMAP size number uses (PR 12's): a line
counts when it carries a token that is neither blank, comment nor docstring.

    python tools/code_lines.py                    # src/, one row per package
    python tools/code_lines.py PATH [PATH ...]    # one row per file, and the total
"""

from __future__ import annotations

import ast
import sys
import tokenize
from collections import Counter
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Number of code lines of the Python file ``path``."""
    docstring_lines: set[int] = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstring_lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    with tokenize.open(path) as source:
        lines = {line for token in tokenize.generate_tokens(source.readline)
                 if token.type not in _NOT_CODE
                 for line in range(token.start[0], token.end[0] + 1)}
    return len(lines - docstring_lines)


def main(arguments: list[str]) -> None:
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    rows: Counter[str] = Counter()
    for path in map(Path, arguments or [root]):
        if not path.exists():
            raise SystemExit(f"no such file or directory: {path}")
        for file in [path] if path.is_file() else sorted(path.rglob("*.py")):
            # A row is a file, or without arguments a package of src/repro.
            name = (str(file) if arguments
                    else (*file.relative_to(root).parts[:-1], "(top level)")[0])
            rows[name] += code_lines(file)
    for name, count in sorted(rows.items(), key=lambda row: (-row[1], row[0])):
        print(f"{count:>7,}  {name}")
    print(f"{sum(rows.values()):>7,}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
