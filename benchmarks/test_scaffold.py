"""The script-benchmark scaffold: gates, output paths, and what E14-E17 declare."""

from __future__ import annotations

import importlib
import json

import pytest

import scaffold


def toy_experiment(ratio: float) -> scaffold.Experiment:
    """A scenario that "measures" a fixed ratio, gated at 1.5x on both modes."""
    def run(records: int, operations: int) -> scaffold.Report:
        return {"benchmark": "E0_toy", "records": records,
                "operations": operations, "ratio": ratio,
                "phase": scaffold.timed(operations, lambda index: None)}

    return scaffold.Experiment(
        id="E0_toy",
        summary="E0 -- a toy",
        sizes={"smoke": {"records": 1, "operations": 2},
               "full": {"records": 10, "operations": 20}},
        run=run,
        gates=[scaffold.Gate("toy ratio", lambda report: report["ratio"],
                             smoke=1.5, full=1.5)],
        intro=lambda report: f"{report['records']} records.",
        tables=lambda report: [("numbers", ["what", "value"],
                                [["ratio", f"{report['ratio']:.2f}x"]])],
    )


@pytest.fixture
def output_directories(tmp_path, monkeypatch):
    """Point the scaffold's two default directories into ``tmp_path``."""
    monkeypatch.setattr(scaffold, "RESULTS", tmp_path / "results")
    monkeypatch.setattr(scaffold, "SCRATCH", tmp_path / "scratch")
    return tmp_path


def test_a_failing_gate_exits_1_with_its_message(output_directories, capsys):
    assert toy_experiment(1.2).main(["--smoke"]) == 1
    assert ("FAIL: toy ratio: 1.20x (misses the smoke floor of at least 1.50x)"
            in capsys.readouterr().err)


def test_a_passing_gate_exits_0(output_directories, capsys):
    assert toy_experiment(1.8).main(["--smoke"]) == 0
    captured = capsys.readouterr()
    assert "1 records.\nok: toy ratio: 1.80x" in captured.out  # intro, verdicts
    assert captured.err == ""


def test_an_at_most_gate_fails_above_its_budget():
    gate = scaffold.Gate("overhead", lambda report: report["overhead"],
                         smoke=0.05, full=None, at_most=True, form="{:+.1%}")
    assert gate.verdict({"mode": "smoke", "overhead": 0.04})[0] is True
    passed, sentence = gate.verdict({"mode": "smoke", "overhead": 0.07})
    assert passed is False
    assert sentence == ("overhead: +7.0% (misses the smoke budget of at most "
                        "+5.0%)")
    assert gate.verdict({"mode": "full", "overhead": 0.07}) is None


def test_a_smoke_run_leaves_the_results_directory_untouched(output_directories):
    assert toy_experiment(1.8).main(["--smoke"]) == 0
    assert not (output_directories / "results").exists()
    written = sorted(path.name for path in
                     (output_directories / "scratch").iterdir())
    assert written == ["E0_toy.json"]


def test_the_default_directories_are_the_tracked_and_the_ignored_one():
    repo = scaffold.BENCHMARKS.parent
    assert scaffold.RESULTS == repo / "benchmarks" / "results"
    assert scaffold.SCRATCH == repo / ".perf_scratch"
    assert ".perf_scratch/" in (repo / ".gitignore").read_text().split()


def test_a_full_run_writes_one_json_and_one_markdown_file(tmp_path):
    target = tmp_path / "out" / "toy.json"
    assert toy_experiment(1.8).main(["--json", str(target), "--records", "7"]) == 0
    assert sorted(path.name for path in target.parent.iterdir()) == [
        "toy.json", "toy.md"]
    report = json.loads(target.read_text())
    assert report["mode"] == "full"
    assert (report["records"], report["operations"]) == (7, 20)
    assert set(report["phase"]) == {"operations", "wall_seconds", "ops_per_sec"}
    assert target.with_suffix(".md").read_text().splitlines() == [
        "# E0 -- a toy", "", "7 records.", "",
        "## numbers", "", "| what | value |", "|--|--:|", "| ratio | 1.80x |", "",
        "- toy ratio: 1.80x (meets the full floor of at least 1.50x)"]


def test_rounds_are_repeated_as_declared():
    calls: list[str] = []

    def rate(configuration: str) -> float:
        calls.append(configuration)
        return float(len(calls))

    assert scaffold.best_rates(2, ("a", "b"), rate) == {"a": 3.0, "b": 4.0}
    assert calls == ["a", "b", "a", "b"]
    seconds, result = scaffold.mean_seconds(lambda: calls.append("m"), 3)
    assert calls.count("m") == 4 and result is None and seconds >= 0.0


def test_timed_threads_runs_every_worker_and_reraises():
    seen: set[int] = set()
    assert scaffold.timed_threads(3, 5, seen.add)["operations"] == 15
    assert seen == {0, 1, 2}
    with pytest.raises(ZeroDivisionError):
        scaffold.timed_threads(2, 1, lambda thread_id: 1 // 0)


#: script -> the smoke / full thresholds of its gates, in declaration order.
DECLARED_GATES = {
    "bench_concurrency": [(1.5, 1.0)],
    "bench_aggregation": [(1.3, 2.0), (0, 0)],
    "bench_observability": [],  # reports its figure; the pin is in calls
    "bench_parallel_router": [(1.8, 2.5), (None, 2.5)],
}


@pytest.mark.parametrize("script", sorted(DECLARED_GATES))
def test_every_script_exposes_its_sizes_and_gates_as_data(script):
    experiment = importlib.import_module(script).EXPERIMENT
    assert set(experiment.sizes) == {"smoke", "full"}
    for sizes in experiment.sizes.values():
        assert {"records", "operations"} <= set(sizes)
    assert (experiment.sizes["smoke"]["records"]
            < experiment.sizes["full"]["records"])
    assert [(gate.smoke, gate.full) for gate in experiment.gates] == \
        DECLARED_GATES[script]
    assert experiment.id.startswith("E1") and experiment.summary.startswith(
        experiment.id.split("_")[0])
