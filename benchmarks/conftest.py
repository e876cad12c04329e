"""Shared helpers for the pytest benchmark harnesses.

Every harness regenerates the rows/series of one experiment (E1-E12: the
demo of Fig. 3d plus the architectural claims of the paper; the wall-clock
scripts E14-E17 sit on ``scaffold.py`` instead).  Because a
plain ``pytest benchmarks/ --benchmark-only`` run captures stdout, each
harness also writes its reproduced table to ``benchmarks/results/<exp>.md``
so the regenerated artefacts survive the run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIRECTORY = Path(__file__).parent / "results"


def write_experiment_report(experiment_id: str, title: str, lines: list[str]) -> Path:
    """Persist the regenerated table/series of one experiment."""
    RESULTS_DIRECTORY.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIRECTORY / f"{experiment_id}.md"
    content = [f"# {experiment_id}: {title}", ""] + lines + [""]
    path.write_text("\n".join(content), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def report_writer():
    """Fixture handing benchmarks the report writer."""
    return write_experiment_report
