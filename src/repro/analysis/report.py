"""Evaluation reports: the result-analysis page (Fig. 3d) as a document.

The Chronos web UI shows, for a finished evaluation, the job table, the
configured diagrams and summary statistics.  :func:`evaluation_report` builds
the same content as a markdown document (optionally writing the diagrams as
SVG files next to it) directly from a Chronos Control instance, so archived
or scripted evaluations can be reviewed without the UI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.analysis.aggregate import ResultTable, aggregate_metric
from repro.analysis.compare import compare_groups
from repro.analysis.diagrams import Diagram, diagram_from_spec
from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.control import ChronosControl


@dataclass
class EvaluationReport:
    """A rendered evaluation report."""

    evaluation_id: str
    title: str
    markdown: str
    diagrams: dict[str, Diagram] = field(default_factory=dict)
    results: list[dict[str, Any]] = field(default_factory=list)

    def write(self, directory: str | Path) -> Path:
        """Write the report (and its diagrams as SVG) into ``directory``.

        Returns the path of the markdown file.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        body = self.markdown
        for name, diagram in self.diagrams.items():
            svg_path = directory / f"{self.evaluation_id}-{_slug(name)}.svg"
            svg_path.write_text(diagram.render_svg(), encoding="utf-8")
            body += f"\n\n![{name}]({svg_path.name})"
        path = directory / f"{self.evaluation_id}-report.md"
        path.write_text(body + "\n", encoding="utf-8")
        return path


def evaluation_report(control: "ChronosControl", evaluation_id: str,
                      parameter_fields: list[str] | None = None,
                      metric_fields: list[str] | None = None) -> EvaluationReport:
    """Build the result-analysis report for ``evaluation_id``.

    The report uses the system's result configuration (metrics + diagram
    specifications) exactly like the web UI would; ``parameter_fields`` and
    ``metric_fields`` can override the columns of the job table.
    """
    evaluation = control.evaluations.get(evaluation_id)
    experiment = control.experiments.get(evaluation.experiment_id)
    system = control.systems.get(experiment.system_id)
    jobs = control.evaluations.jobs(evaluation_id)
    results = [result.data for result in control.results.for_jobs([job.id for job in jobs])]
    if not results:
        raise ValidationError(f"evaluation {evaluation_id!r} has no results to report on")

    metric_fields = metric_fields or list(system.result_config.get("metrics", []))
    parameter_fields = parameter_fields or sorted(
        {name for result in results for name in result.get("parameters", {})}
    )

    columns = [f"parameters.{name}" for name in parameter_fields] + metric_fields
    table = ResultTable.from_results(results, columns)

    lines = [
        f"# Evaluation report: {evaluation.name}",
        "",
        f"* evaluation: `{evaluation.id}` (status: {evaluation.status.value})",
        f"* experiment: `{experiment.name}` against system `{system.name}`",
        f"* jobs: {len(jobs)} ({sum(1 for j in jobs if j.status.value == 'finished')} finished)",
        "",
        "## Job results",
        "",
        table.to_markdown(),
        "",
        "## Metric summaries",
        "",
    ]
    for metric in metric_fields:
        try:
            stats = aggregate_metric(results, metric)
        except ValidationError:
            continue
        lines.append(f"* **{metric}**: mean {stats['mean']:,.2f}, "
                     f"min {stats['min']:,.2f}, max {stats['max']:,.2f}, "
                     f"p95 {stats['p95']:,.2f}")

    diagrams: dict[str, Diagram] = {}
    for spec in system.result_config.get("diagrams", []):
        resolved = _resolve_spec_fields(spec, results)
        try:
            diagram = diagram_from_spec(resolved, results)
        except ValidationError:
            continue
        diagrams[spec.get("title", spec["kind"])] = diagram
        lines += ["", f"## {spec.get('title', spec['kind'])}", "",
                  "```", diagram.render_ascii(), "```"]

    group_field = _comparison_group(system, results)
    if group_field and metric_fields:
        try:
            comparison = compare_groups(results, group_field, metric_fields[0])
            lines += ["", "## Comparison", "",
                      f"Winner on `{metric_fields[0]}`: **{comparison['winner']}** "
                      f"({comparison['factor']:.2f}x over {comparison['runner_up']})"]
        except ValidationError:
            pass

    return EvaluationReport(
        evaluation_id=evaluation.id,
        title=evaluation.name,
        markdown="\n".join(lines),
        diagrams=diagrams,
        results=results,
    )


def _resolve_spec_fields(spec: dict[str, Any], results: list[dict[str, Any]]) -> dict[str, Any]:
    """Map diagram spec fields onto result-document paths.

    System diagram specifications reference experiment parameters by bare name
    (e.g. ``threads``); results store them under ``parameters.<name>``.
    """
    def resolve(field_name: str | None) -> str | None:
        if field_name is None:
            return None
        if any(field_name in result for result in results):
            return field_name
        return f"parameters.{field_name}"

    resolved = dict(spec)
    resolved["x_field"] = resolve(spec.get("x_field"))
    resolved["y_field"] = resolve(spec.get("y_field"))
    resolved["group_field"] = resolve(spec.get("group_field"))
    return resolved


def _comparison_group(system, results: list[dict[str, Any]]) -> str | None:
    """Pick the grouping field for the winner comparison (first swept checkbox)."""
    for definition in system.parameters:
        if definition.get("kind") == "checkbox":
            name = definition["name"]
            values = {result.get("parameters", {}).get(name) for result in results}
            if len(values) > 1:
                return f"parameters.{name}"
    return None


def _slug(value: str) -> str:
    return "".join(ch if ch.isalnum() else "-" for ch in value.lower()).strip("-")
