"""The agreement tool: do two sets of runs agree within the bounds?

A set is the JSON list ``run.py --out`` appends to.  For every workload and
end-to-end metric the tool prints both medians with their quartiles, how much
worse B's median is than A's (as a share of A's, the base), the bound from
``BENCHMARK.json`` and PASS or FAIL.  It is the check a later change must
pass against its parent, and the one that shows the benchmark agrees with
itself when A and B are the same code.

Two rows follow the issue where ``BENCHMARK.json`` cannot: ``setup_s`` may
worsen by its share or by a quarter of a second, whichever is more, and
``error_ratio`` (failed / attempted over the set's runs) may not rise at all.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Any

SETUP_SLACK_SECONDS = 0.25


def _load(path: Path) -> tuple[dict[str, dict[str, list[float]]],
                               dict[str, list[int]]]:
    """``workload -> metric -> values`` and ``workload -> [failed, attempted]``
    of a set's untraced runs."""
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    errors: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for record in json.loads(path.read_text(encoding="utf-8")):
        if record["trace"]:
            continue
        errors[record["workload"]][0] += record["failed"]
        errors[record["workload"]][1] += record["attempted"]
        for name, metric in record["metrics"].items():
            values[record["workload"]][name].append(metric["value"])
    return values, errors


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, middle, high


def compare(path_a: Path, path_b: Path,
            declared: dict[str, Any]) -> tuple[list[str], dict[str, Any]]:
    """The report lines and a summary (``agree`` is the verdict)."""
    (set_a, errors_a), (set_b, errors_b) = _load(path_a), _load(path_b)
    lines = [f"A = {path_a}   B = {path_b}   (worse = B against base A)",
             f"{'workload':18s} {'metric':22s} {'unit':6s} "
             f"{'A q1 / median / q3':>36s} {'B q1 / median / q3':>36s} "
             f"{'worse':>8s} {'bound':>6s}"]
    summary: dict[str, Any] = {"a": str(path_a), "b": str(path_b),
                               "agree": True, "workloads": {}}
    for workload in (entry["name"] for entry in declared["workloads"]):
        rows = summary["workloads"][workload] = {}
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a, b = set_a[workload][name], set_b[workload][name]
            if not a or not b:
                raise ValueError(f"no runs of {workload} with {name} in both sets")
            qa, qb = _quartiles(a), _quartiles(b)
            worse = (qb[1] - qa[1]) / qa[1]
            if metric["better"] == "higher":
                worse = -worse
            bound = metric["bound"]
            if name == "setup_s":
                bound = max(bound, SETUP_SLACK_SECONDS / qa[1])
            ok = worse <= bound
            summary["agree"] &= ok
            rows[name] = {"unit": metric["unit"], "runs": [len(a), len(b)],
                          "a": qa, "b": qb, "worse": worse,
                          "spread": [(qa[2] - qa[0]) / qa[1],
                                     (qb[2] - qb[0]) / qb[1]],
                          "bound": bound, "pass": ok}
            lines.append(
                f"{workload:18s} {name:22s} {metric['unit']:6s} "
                f"{qa[0]:11.3f} /{qa[1]:11.3f} /{qa[2]:11.3f} "
                f"{qb[0]:11.3f} /{qb[1]:11.3f} /{qb[2]:11.3f} "
                f"{worse:+8.1%} {bound:6.0%}  {'PASS' if ok else 'FAIL'}")
        ratio_a, ratio_b = (failed / attempted for failed, attempted
                            in (errors_a[workload], errors_b[workload]))
        ok = ratio_b <= ratio_a
        summary["agree"] &= ok
        rows["error_ratio"] = {"unit": "ratio", "a": ratio_a, "b": ratio_b,
                               "pass": ok}
        lines.append(f"{workload:18s} {'error_ratio':22s} {'ratio':6s} "
                     f"{ratio_a:36.6f} {ratio_b:36.6f} {'':8s} {'none':>6s}  "
                     f"{'PASS' if ok else 'FAIL'}")
    lines.append("AGREE" if summary["agree"] else "DISAGREE")
    return lines, summary
