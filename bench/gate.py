"""Correctness gate: every structured report is checked before it counts.

A command passes when
  * it exits 0 (every generated input is valid and every generated spec is
    clean, so ``verify`` exits 0 too);
  * its stdout and the files it writes are byte-identical to the first run of
    the same command within the benchmark run (checked by ``run.py``);
  * every estimate and bound endpoint lies within ``SE_LIMIT`` standard
    errors of its population value, and every closed-form quantity the CLI
    reports (``verify`` left-hand sides, the ``.truth.json`` moments) equals
    the benchmark's own closed form to ``EXACT_RTOL``;
  * on the default seed, every number in the report is within
    ``REFERENCE_RTOL`` relative of the report stored under ``reference/``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import Command

# Six standard errors: with about a hundred checked cells per run, a false
# alarm from sampling error alone has probability near 1e-7.
SE_LIMIT = 6.0
EXACT_RTOL = 1e-9
REFERENCE_RTOL = 1e-12

# Left out of the reference comparison. ``cluster_count`` and the covariance
# kind are wrong on unclustered stacked endpoints and are due to change; the
# rest is free text or run metadata, not a reported number.
REFERENCE_IGNORED = frozenset({
    "metadata", "cluster_count", "kind", "method", "warnings", "caveat",
    "recommendation", "note", "assumptions",
})

_LABEL_COLUMN = {"D1": "d1", "D2": "d2", "D∧": "d_and", "D∨": "d_or", "D1+D2": "d_sum",
                 "D∨−D2": "g_or", "D∧−D2": "g_and",
                 "(D∨−D2)Y": "gy_or", "(D∧−D2)Y": "gy_and"}
_SHARE_COLUMN = {"p_full": "d2", "p_dropout": "g_or", "p_late_adopter": "g_and"}


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _cells(node, path=()):
    """Yield ``(path, cell)`` for every estimate cell of a report section."""
    if isinstance(node, dict):
        if "definition" in node and "value" in node:
            yield path, node
            return
        for key, value in node.items():
            yield from _cells(value, path + (key,))


def _expected(path: tuple, cell: dict, report: dict, m: dict) -> float:
    """Population value of the estimate at ``path`` of a report."""
    if "first_stage" in path:
        return m[path[-1]]
    if "iv_estimand" in path:
        return m["y"] / m[path[-1]]
    if path == ("estimates", "reduced_form"):
        return m["y"]
    if path[0] == "shares":
        return m[_SHARE_COLUMN[path[-1]]]
    if path[0] == "diagnostics":
        return m[_LABEL_COLUMN[cell["definition"]]]
    kind, end = path[1], path[-1]
    if kind == "theorem1":
        if end == "lower":
            return m["y"] / m["d1"]
        return m["dand_y"] / m["d_and"] + m["untreated_y"] / m["d1"]
    if kind == "bounded_response":
        payload = report["bounds"]["bounded_response"]
        ymin, ymax = payload["ymin"], payload["ymax"]
        lo = (m["kernel_y"] + ymin * m["g_or"] - ymax * m["g_and"]) / m["d1"]
        hi = (m["kernel_y"] + ymax * m["g_or"] - ymin * m["g_and"]) / m["d1"]
        if payload["flipped"]:
            lo, hi = hi, lo
        return lo if end == "lower" else hi
    if kind == "tau":
        return m["y"] / m[_LABEL_COLUMN[cell["definition"]]]
    raise KeyError(f"no population value for {'/'.join(path)}")


def check_estimates(report: dict, m: dict) -> list[str]:
    problems = []
    cells = 0
    for section in ("estimates", "shares", "diagnostics", "bounds"):
        for path, cell in _cells(report.get(section), (section,)):
            cells += 1
            expected = _expected(path, cell, report, m)
            value, se = cell["value"], cell["se"]
            if se is None:
                ok = _close(value, expected, EXACT_RTOL)
            else:
                ok = math.isfinite(value) and abs(value - expected) <= SE_LIMIT * se
            if not ok:
                problems.append(f"{'/'.join(path)} = {value!r} (se {se!r}), "
                                f"population value {expected!r}")
    if not cells:
        problems.append("report has no estimates")
    return problems


def check_verify(report: dict, m: dict) -> list[str]:
    verification = report["verification"]
    problems = [] if verification["clean"] else ["verify report is not clean"]
    for check in verification["checks"]:
        prefix = "first-stage-decomposition."
        if check["name"].startswith(prefix):
            column = check["name"][len(prefix):]
            if not _close(check["lhs"], m[column], EXACT_RTOL):
                problems.append(f"{check['name']} lhs {check['lhs']!r}, "
                                f"closed form {m[column]!r}")
    return problems


def check_simulate(report: dict, m: dict, work: Path, rows: int) -> list[str]:
    simulation = report["simulation"]
    problems = []
    sidecar = json.loads((work / simulation["truth_path"]).read_text(encoding="utf-8"))
    if sidecar != simulation["truth"]:
        problems.append("truth sidecar differs from the report")
    moments = sidecar["moments"]
    for column, value in moments["first_stage"].items():
        if not _close(value, m[column], EXACT_RTOL):
            problems.append(f"truth first stage {column} {value!r}, closed form {m[column]!r}")
    if not _close(moments["reduced_form"], m["y"], EXACT_RTOL):
        problems.append(f"truth reduced form {moments['reduced_form']!r}, "
                        f"closed form {m['y']!r}")
    with open(work / simulation["data_path"], "rb") as handle:
        lines = sum(1 for _ in handle)
    if simulation["n"] != rows or lines != rows + 1:
        problems.append(f"simulated file has {lines - 1} rows, expected {rows}")
    return problems


def check_report(command: Command, report: dict, contrasts: dict, work: Path) -> list[str]:
    """Problems found in one command's structured report (empty when correct)."""
    if report.get("command") != command.name:
        return [f"report is for {report.get('command')!r}"]
    if command.name == "verify":
        return check_verify(report, contrasts)
    if command.name == "simulate":
        rows = int(command.argv[command.argv.index("--n") + 1])
        return check_simulate(report, contrasts, work, rows)
    return check_estimates(report, contrasts)


def compare_reference(expected, actual, path="") -> list[str]:
    """Differences between a stored reference report and a new one."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        problems = []
        keys = (set(expected) | set(actual)) - REFERENCE_IGNORED
        for key in sorted(keys):
            if key not in expected or key not in actual:
                problems.append(f"{path}/{key}: present on one side only")
            else:
                problems += compare_reference(expected[key], actual[key], f"{path}/{key}")
        return problems
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: {len(actual)} items, reference has {len(expected)}"]
        problems = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            problems += compare_reference(e, a, f"{path}[{i}]")
        return problems
    numbers = (int, float)
    if (isinstance(expected, numbers) and isinstance(actual, numbers)
            and not isinstance(expected, bool) and not isinstance(actual, bool)):
        if abs(expected - actual) <= REFERENCE_RTOL * max(abs(expected), abs(actual)):
            return []
    elif expected == actual and type(expected) is type(actual):
        return []
    return [f"{path}: {actual!r}, reference {expected!r}"]
