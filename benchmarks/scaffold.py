"""The one scaffold under the wall-clock script benchmarks (E14-E17).

A ``bench_*.py`` script declares an :class:`Experiment` -- its sizes for a
smoke and a full run, the scenario function that measures, its gates and
its markdown tables -- and this module is the only place that knows

* how a phase is timed (:func:`phase`, :func:`timed`, :func:`timed_threads`)
  and how rounds are repeated (:func:`mean_seconds`, :func:`best_rates`),
* how a gate is declared and checked (:class:`Gate`),
* how the JSON report and the markdown tables are written, and where:
  only a **full** run may default to the tracked
  ``benchmarks/results/<id>.{json,md}``; a smoke run without ``--json``
  writes under the git-ignored ``.perf_scratch/``,
* what the command line is (``--smoke --json --records --operations``).

An ``Experiment`` is for a wall-clock *ratio* between two configurations
measured in one run (a scaling factor, a pushdown speed-up, an overhead).
Deterministic simulated-seconds claims are pytest harnesses (E1-E12) and
absolute wall-clock speed belongs to ``benchmarks/perf``; see the
"Benchmarks" note in ROADMAP.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

BENCHMARKS = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCHMARKS.parent / "src"))

RESULTS = BENCHMARKS / "results"
SCRATCH = BENCHMARKS.parent / ".perf_scratch"
LOAD_BATCH = 500

Report = dict[str, Any]
#: One markdown table: heading ("" for none), column names, rows of cells.
Table = tuple[str, Sequence[str], Iterable[Sequence[Any]]]


# -- timing -------------------------------------------------------------------


def phase(operations: int, seconds: float) -> dict[str, float]:
    """The record of one timed phase."""
    return {
        "operations": operations,
        "wall_seconds": round(seconds, 6),
        "ops_per_sec": round(operations / seconds, 1) if seconds > 0 else 0.0,
    }


def timed(operations: int, op: Callable[[int], Any]) -> dict[str, float]:
    """Time ``op(0) .. op(operations - 1)`` on the calling thread."""
    started = time.perf_counter()
    for index in range(operations):
        op(index)
    return phase(operations, time.perf_counter() - started)


def timed_threads(threads: int, per_thread: int,
                  worker: Callable[[int], None]) -> dict[str, float]:
    """Time ``worker(thread_id)`` on N client threads, each doing
    ``per_thread`` operations: from their simultaneous release (a barrier)
    to the last join.  A worker's exception is re-raised here."""
    barrier = threading.Barrier(threads + 1)
    errors: list[Exception] = []

    def runner(thread_id: int) -> None:
        try:
            barrier.wait()
            worker(thread_id)
        except Exception as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    pool = [threading.Thread(target=runner, args=(thread_id,))
            for thread_id in range(threads)]
    for thread in pool:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in pool:
        thread.join()
    seconds = time.perf_counter() - started
    if errors:
        raise errors[0]
    return phase(per_thread * threads, seconds)


def mean_seconds(call: Callable[[], Any], rounds: int) -> tuple[float, Any]:
    """Mean wall seconds per call over ``rounds`` calls, after one untimed
    priming call that warms plan and chunk caches; also the last result."""
    result = call()
    started = time.perf_counter()
    for __ in range(rounds):
        result = call()
    return (time.perf_counter() - started) / rounds, result


def best_rates(rounds: int, configurations: Sequence[str],
               rate: Callable[[str], float]) -> dict[str, float]:
    """Best-of-``rounds`` ``rate(configuration)``, the configurations
    interleaved within every round so CPU-frequency drift hits all alike."""
    best = dict.fromkeys(configurations, 0.0)
    for __ in range(rounds):
        for configuration in configurations:
            best[configuration] = max(best[configuration], rate(configuration))
    return best


def load(handle: Any, documents: list[dict[str, Any]]) -> dict[str, float]:
    """Insert pre-built documents in ``LOAD_BATCH``-sized ``insert_many``
    calls (the phase times database work, not document construction)."""
    batches = [documents[start:start + LOAD_BATCH]
               for start in range(0, len(documents), LOAD_BATCH)]
    started = time.perf_counter()
    for batch in batches:
        handle.insert_many(batch)
    return phase(len(documents), time.perf_counter() - started)


# -- gates --------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """One pass/fail claim over a report.

    ``measure`` reads the achieved value out of the report; ``smoke`` and
    ``full`` are its thresholds on a smoke and a full run (``None`` = not
    checked in that mode).  The value must reach the threshold, or stay at
    or under it when ``at_most``.
    """

    label: str
    measure: Callable[[Report], float]
    smoke: float | None
    full: float | None
    at_most: bool = False
    form: str = "{:.2f}x"

    def verdict(self, report: Report) -> tuple[bool, str] | None:
        """``(passed, sentence)`` for the report's mode, ``None`` if unchecked."""
        threshold = self.smoke if report["mode"] == "smoke" else self.full
        if threshold is None:
            return None
        value = self.measure(report)
        passed = value <= threshold if self.at_most else value >= threshold
        return passed, (
            f"{self.label}: {self.form.format(value)} "
            f"({'meets' if passed else 'misses'} the {report['mode']} "
            f"{'budget of at most' if self.at_most else 'floor of at least'} "
            f"{self.form.format(threshold)})")


# -- the experiment -----------------------------------------------------------


def markdown_table(heading: str, columns: Sequence[str],
                   rows: Iterable[Sequence[Any]]) -> list[str]:
    """First column left-aligned, the rest right-aligned."""
    lines = [f"## {heading}", ""] if heading else []
    lines += ["| " + " | ".join(columns) + " |",
              "|--|" + "--:|" * (len(columns) - 1)]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |"
              for row in rows]
    return lines + [""]


@dataclass(frozen=True)
class Experiment:
    """One wall-clock experiment: data plus two functions.

    ``sizes`` holds the keyword arguments of ``run`` for ``"smoke"`` and
    ``"full"``; ``--records`` / ``--operations`` override those two keys.
    ``run(**sizes)`` returns the JSON report, ``intro(report)`` the markdown
    paragraph under the title and ``tables(report)`` the tables after it.
    """

    id: str
    summary: str
    sizes: dict[str, dict[str, Any]]
    run: Callable[..., Report]
    gates: Sequence[Gate]
    intro: Callable[[Report], str]
    tables: Callable[[Report], Iterable[Table]]

    def verdicts(self, report: Report) -> list[tuple[bool, str]]:
        checked = (gate.verdict(report) for gate in self.gates)
        return [verdict for verdict in checked if verdict is not None]

    def markdown(self, report: Report) -> str:
        lines = [f"# {self.summary}", "", self.intro(report), ""]
        for table in self.tables(report):
            lines += markdown_table(*table)
        lines += [f"- {sentence}" for __, sentence in self.verdicts(report)]
        return "\n".join(lines) + "\n"

    def main(self, argv: Sequence[str] | None = None) -> int:
        parser = argparse.ArgumentParser(description=self.summary)
        parser.add_argument("--smoke", action="store_true",
                            help="the small CI run, gated on the smoke floors")
        parser.add_argument("--records", type=int,
                            help="documents loaded per deployment")
        parser.add_argument("--operations", type=int,
                            help="measured operations (or repetitions) per phase")
        parser.add_argument("--json", type=Path,
                            help="where to write the report (default: a full "
                                 f"run {RESULTS.name}/{self.id}.json with its "
                                 f".md beside it, a smoke run {SCRATCH.name}/)")
        arguments = parser.parse_args(argv)

        mode = "smoke" if arguments.smoke else "full"
        sizes = dict(self.sizes[mode])
        for name in ("records", "operations"):
            if getattr(arguments, name) is not None:
                sizes[name] = getattr(arguments, name)
        report = self.run(**sizes)
        report["mode"] = mode

        path = arguments.json or ((SCRATCH if arguments.smoke else RESULTS)
                                  / f"{self.id}.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {path}")
        if not arguments.smoke:
            path.with_suffix(".md").write_text(self.markdown(report))
            print(f"wrote {path.with_suffix('.md')}")

        print(self.intro(report))
        verdicts = self.verdicts(report)
        for passed, sentence in verdicts:
            print(("ok: " if passed else "FAIL: ") + sentence,
                  file=sys.stdout if passed else sys.stderr)
        return 0 if all(passed for passed, __ in verdicts) else 1
