"""Report assembly and rendering.

One run produces one document: a nested key-value mapping holding every
estimate at full precision, serialized by :func:`document` as deterministic
JSON (no timestamps, sorted keys), plus a fixed-width text rendering that
prints three decimals and renders an undefined standard error as ``(.)``.
Every number in the text table is present in the machine-readable document.

Each result is a ``NamedTuple`` record, and each section of the document is
its :func:`as_dict`, so its keys are that result's fields. Two sections
differ: a bound pair leaves out the optional fields it did not set, and a
verification adds its ``all_passed`` and ``clean`` verdicts.
"""

from __future__ import annotations

import json

from .bounds import BoundsResult
from .estimands import REPORT_ORDER
from .verify import VerificationReport

UNDEFINED_SE = "(.)"


def fmt(value: float | None) -> str:
    if value is None:
        return "."
    return f"{value + 0.0:.3f}"


def fmt_se(se: float | None) -> str:
    if se is None:
        return UNDEFINED_SE
    return f"({se + 0.0:.3f})"


def document(command: str, metadata: dict, sections: dict, warnings: list) -> str:
    """The JSON document of one run: its command, metadata and warnings, and
    each section by name ("estimates", "diagnostics", "bounds", ...)."""
    return json.dumps({"command": command, "metadata": metadata, "warnings": warnings,
                       **sections}, sort_keys=True, indent=2) + "\n"


def as_dict(value):
    """A record as the dict of its fields, with every record, tuple, list and
    dict inside it converted alike, as ``dataclasses.asdict`` converts a
    dataclass; any other value is returned as it is."""
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: as_dict(item) for name, item in zip(value._fields, value)}
    if isinstance(value, (tuple, list)):
        return type(value)(as_dict(item) for item in value)
    if isinstance(value, dict):
        return {key: as_dict(item) for key, item in value.items()}
    return value


def bounds_dict(result: BoundsResult) -> dict:
    """The fields of a bound pair, without the optional ones it leaves unset."""
    return {key: value for key, value in as_dict(result).items() if value is not None}


def verification_dict(report: VerificationReport) -> dict:
    return {**as_dict(report), "all_passed": report.all_passed, "clean": report.clean}


# ---------------------------------------------------------------------------
# text rendering

_COL = 10
_LABELW = 16


def _row(label: str, entries) -> str:
    return label.ljust(_LABELW) + "".join(str(e).rjust(_COL) for e in entries)


def render_estimates(estimates: dict, shares: dict) -> str:
    order = [d.value for d in REPORT_ORDER]
    lines = [_row("", [d.label for d in REPORT_ORDER])]
    for section, title in (("first_stage", "first stage"), ("iv_estimand", "IV estimand")):
        cells = estimates[section]
        lines.append(_row(title, [fmt(cells[k]["value"]) for k in order]))
        lines.append(_row("", [fmt_se(cells[k]["se"]) for k in order]))
    rf = estimates["reduced_form"]
    lines.append(_row("reduced form", [fmt(rf["value"])]))
    lines.append(_row("", [fmt_se(rf["se"])]))
    lines.append("")
    lines.append("complier shares (assume the double exclusion restriction):")
    for key, name in (("p_full", "P[C1,C2]"), ("p_dropout", "P[C1,N2]"),
                      ("p_late_adopter", "P[C1,A2]")):
        c = shares[key]
        lines.append(f"  {name}  {fmt(c['value'])} {fmt_se(c['se'])}"
                     f"   [{c['definition']} on Z]")
    return "\n".join(lines)


def _render_joint(name: str, joint: dict | None) -> str:
    if joint is None:
        return f"{name}: no testable contrast (all regressands constant)"
    return (f"{name}: chi2({joint['dof']}) = {fmt(joint['statistic'])}, "
            f"p = {joint['p_value']:.4g}")


def render_diagnostics(diagnostics: dict) -> str:
    mover = diagnostics["mover_test"]
    sign = diagnostics["double_exclusion"]
    level = mover["level"]
    # Either step may reject at ``level``: under no movers, the procedure
    # rejects at most ``2 * level`` of the time (Bonferroni).
    lines = [f"mover test (level {level:g} per step; size at most {2 * level:g} "
             f"under no movers)"]
    for step in ("step1", "step2"):
        pair = mover[step]
        if pair is None:
            continue
        for c in (pair["or_minus_d2"], pair["and_minus_d2"]):
            lines.append(f"  {c['definition']:<12} {fmt(c['value'])} {fmt_se(c['se'])}")
        lines.append("  " + _render_joint(f"step {step[-1]} joint", pair["joint"]))
    if mover["step2"] is not None:
        lines.append("  step 2 moves with the origin of y: y + c adds c times the step 1 contrasts")
    lines.append(f"  conclusion: {mover['conclusion']}")
    if mover["degenerate"]:
        lines.append(f"  degenerate contrasts: {', '.join(mover['degenerate'])}"
                     " (joint dof reduced)")
    if mover["recommendation"]:
        lines.append(f"  {mover['recommendation']}")
    lines.append(f"  caveat: {mover['caveat']}")
    lines.append("")
    lines.append(f"double exclusion sign check (level {sign['level']:g})")
    for key, p in zip(("or_minus_d2", "and_minus_d2"), sign["one_sided_p"]):
        c = sign[key]
        ptxt = "p = ." if p is None else f"p = {p:.4g}"
        lines.append(f"  {c['definition']:<12} {fmt(c['value'])} {fmt_se(c['se'])}  "
                     f"one-sided {ptxt}")
    lines.append(f"  verdict: {sign['verdict']}")
    return "\n".join(lines)


def render_bounds(bounds: dict) -> str:
    lines = []
    origin = "the upper end moves with the origin of y: it assumes E[Y(0,0) | C1A2] >= 0"
    for key, title, note in (("theorem1", "sharp LAFTE bounds", origin),
                             ("bounded_response", "bounded-response LAFTE bounds", None),
                             ("tau", "weighted-average-effect (tau) bounds", None)):
        b = bounds[key]
        lo, hi = b["lower"], b["upper"]
        extra = ""
        if "ymin" in b:
            extra = f"  (ymin={b['ymin']:g}, ymax={b['ymax']:g})"
        if b.get("maximizer"):
            extra = f"  (largest first stage: {b['maximizer']})"
        lines.append(f"{title}{extra}")
        lines.append(f"  lower  {fmt(lo['value'])} {fmt_se(lo['se'])}   "
                     f"95% CI [{fmt(lo['ci_low'])}, {fmt(lo['ci_high'])}]")
        lines.append(f"  upper  {fmt(hi['value'])} {fmt_se(hi['se'])}   "
                     f"95% CI [{fmt(hi['ci_low'])}, {fmt(hi['ci_high'])}]")
        if note:
            lines.append(f"  note: {note}")
        for w in b["warnings"]:
            lines.append(f"  warning: {w}")
        lines.append("")
    return "\n".join(lines).rstrip()


def render_verification(verification: dict) -> str:
    lines = [f"identity checks (tolerance {verification['tolerance']:g})"]
    for c in verification["checks"]:
        if not c["applicable"]:
            status = " n/a "
            detail = c["note"]
        else:
            status = "PASS " if c["passed"] else "FAIL "
            detail = f"lhs={c['lhs']:.12g} rhs={c['rhs']:.12g}"
            if c["note"]:
                detail += f"  ({c['note']})"
        lines.append(f"  [{status}] {c['name']:<42} {detail}")
    for flag in verification["flags"]:
        lines.append(f"  [FLAG ] {flag}")
    lines.append("all applicable checks passed"
                 if verification["all_passed"] else
                 f"{sum(1 for c in verification['checks'] if c['applicable'] and not c['passed'])}"
                 " check(s) failed")
    return "\n".join(lines)
