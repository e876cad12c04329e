"""The repo's one wall-clock benchmark (see README.md next to this file).

The driver runs ``python3 benchmarks/perf/run.py`` from a bare checkout with
no ``PYTHONPATH``, so the package puts the checkout's ``src`` on the import
path itself; under ``pytest`` (which sets ``PYTHONPATH=src``) this is a no-op.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
