"""Every script under ``examples/`` runs to completion.

Each example is an end-to-end scenario that asserts its own invariants, so
exit code 0 is the whole check.  They run as a user would run them: a
subprocess with ``PYTHONPATH=src``, from a scratch working directory so
nothing an example writes lands in the checkout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(example: Path, tmp_path: Path):
    completed = subprocess.run(
        [sys.executable, str(example)], cwd=tmp_path, capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert completed.returncode == 0, completed.stderr[-2000:]
