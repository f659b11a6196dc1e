"""Closed-form verification of every identification identity on a spec.

Each check compares two exactly-computable population quantities: one side
built from observable moments (the instrument contrasts of the catalogue's
columns, read by column name from :func:`analytic_moments`), the other
summed by hand from the spec's group probabilities and mean potential
outcomes, independently of the column catalogue. Checks that
depend on substantive assumptions are marked not-applicable when the spec's
audit flags do not hold, so a report with zero failures certifies the full
battery:

(a) the four first stages and the reduced form decompose into group
    probabilities and weighted group effects;
(b) the same decompositions in their simplified double-exclusion form;
(c) the four mover contrasts equal their group-probability and
    outcome-level differences;
(d) under a structurally double-exclusion spec both plain contrasts are
    nonnegative (a negative contrast on other specs raises the
    "double exclusion not invocable" flag);
(e) with no movers, the IV estimand equals the full-treatment effect for
    every binary treatment definition;
(f) under the per-definition homogeneity conditions, the IV estimand
    equals the full-treatment effect for that definition's complier groups;
(g) the sharp bound pair contains the LAFTE and collapses to it when the
    mover shares vanish;
(h) the bounded-response pair contains the LAFTE and its width equals
    (ymax - ymin) times the mover share over the d1 first stage;
(i) the tau pair contains the convex-weighted average of group effects;
(j) the weighted-group-effect decomposition reproduces each IV estimand.
"""

from __future__ import annotations

from typing import NamedTuple

from .data import LABELS
from .estimands import BINARY_DEFS
from .exceptions import SpecError
from .strata import (
    COMPLIER_GROUPS,
    EXACT_TOLERANCE,
    FIRST_STAGE_GROUPS,
    FULL_EFFECT,
    GROUP_EFFECT_CELLS,
    PopulationSpec,
    _ge,
    analytic_moments,
    close,
    group_cell_mean,
    group_effect,
    group_probs,
    true_parameters,
    validate_spec,
)

SHARPNESS_TOLERANCE = 1e-12


class CheckResult(NamedTuple):
    """One verified identity: its two sides and the outcome."""

    name: str
    applicable: bool
    passed: bool
    lhs: float | None = None
    rhs: float | None = None
    note: str = ""


class VerificationReport(NamedTuple):
    checks: tuple[CheckResult, ...]
    flags: tuple[str, ...]
    tolerance: float

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.applicable and not c.passed)

    @property
    def all_passed(self) -> bool:
        return not self.failures

    @property
    def clean(self) -> bool:
        """True when every applicable check passed and no flag fired."""
        return self.all_passed and not self.flags


def _check(name, lhs, rhs):
    return CheckResult(name, True, close(lhs, rhs), float(lhs), float(rhs))


def _check_le(name, lhs, rhs):
    return CheckResult(name, True, _ge(rhs, lhs), float(lhs), float(rhs))


def _skip(name, note):
    return CheckResult(name, False, True, None, None, note)


def verify_identities(spec: PopulationSpec) -> VerificationReport:
    """Run the full identity battery on one population spec.

    Raises :class:`SpecError` if the spec violates a structural invariant.
    Returns a report whose failures list the violated identity and both
    sides' values; flags record a negative plain mover contrast, which
    certifies that the double exclusion restriction cannot be invoked.
    """
    audit = validate_spec(spec)
    moments = analytic_moments(spec)
    probs = group_probs(spec)
    try:
        params = true_parameters(spec)
    except SpecError:
        params = None

    p_cc, p_cn, p_ca = probs["C1C2"], probs["C1N2"], probs["C1A2"]
    p_nc, p_ac = probs["N1C2"], probs["A1C2"]

    checks: list[CheckResult] = []
    flags: list[str] = []

    def path_effects(groups):
        # Probability-weighted path effects of the groups that have a probability.
        total = 0.0
        for g in groups:
            if probs[g] > 0:
                total += probs[g] * group_effect(spec, g, GROUP_EFFECT_CELLS[g])
        return total

    # (a) first-stage and reduced-form decompositions
    stage_sums = {d: sum(probs[g] for g in FIRST_STAGE_GROUPS[d]) for d in BINARY_DEFS}
    for d in BINARY_DEFS:
        checks.append(_check(f"first-stage-decomposition.{d}", moments[d], stage_sums[d]))
    checks.append(_check("reduced-form-decomposition", moments["y"],
                         path_effects(COMPLIER_GROUPS)))

    # (b) the simplified decompositions under double exclusion
    if audit.double_exclusion:
        for column, share in (("d1", p_cc + p_cn + p_ca), ("d2", p_cc),
                              ("d_and", p_cc + p_ca), ("d_or", p_cc + p_cn)):
            checks.append(_check(f"double-exclusion.first-stage.{column}", moments[column], share))
        checks.append(_check("double-exclusion.reduced-form", moments["y"],
                             path_effects(("C1C2", "C1N2", "C1A2"))))
    else:
        checks.append(_skip("double-exclusion.first-stage",
                            "not applicable: response maps depend on z"))

    # (c) the four mover contrasts
    checks.append(_check("mover-contrast.plain.or", moments["g_or"], p_cn - p_ac))
    checks.append(_check("mover-contrast.plain.and", moments["g_and"], p_ca - p_nc))

    def weighted_level(group, cell):
        mean = group_cell_mean(spec, group, cell)
        return 0.0 if mean is None else probs[group] * mean

    checks.append(_check(
        "mover-contrast.outcome.or", moments["gy_or"],
        weighted_level("C1N2", (1, 0)) - weighted_level("A1C2", (1, 0))))
    checks.append(_check(
        "mover-contrast.outcome.and", moments["gy_and"],
        weighted_level("C1A2", (0, 1)) - weighted_level("N1C2", (0, 1))))

    # (d) sign restrictions implied by double exclusion
    if audit.double_exclusion:
        checks.append(_check_le("double-exclusion.sign.or", 0.0, moments["g_or"]))
        checks.append(_check_le("double-exclusion.sign.and", 0.0, moments["g_and"]))
    else:
        checks.append(_skip("double-exclusion.sign",
                            "not applicable: response maps depend on z"))
        for column in ("g_or", "g_and"):
            value = moments[column]
            if value < -EXACT_TOLERANCE:
                flags.append(
                    f"double exclusion not invocable: instrument contrast of "
                    f"{LABELS[column]} is {value:.6g} < 0")

    # (e) no movers: every binary IV estimand equals the LAFTE
    if audit.no_movers and params is not None and p_cc > 0:
        for d in BINARY_DEFS:
            checks.append(_check(f"no-movers.iv-equals-lafte.{d}", moments["y"] / moments[d],
                                 params.lafte_over_c))
    else:
        checks.append(_skip("no-movers.iv-equals-lafte",
                            "not applicable: movers present or no compliers"))

    # (f) homogeneity conditions: IV equals the definition's group effect
    for d in BINARY_DEFS:
        stage_prob = stage_sums[d]
        if not audit.homogeneity[d] or stage_prob <= 0:
            checks.append(_skip(f"homogeneous-movers.{d}",
                                "not applicable: homogeneity flag false or empty groups"))
            continue
        beta = moments["y"] / moments[d]
        target = sum(probs[g] * group_effect(spec, g, FULL_EFFECT)
                     for g in FIRST_STAGE_GROUPS[d] if probs[g] > 0) / stage_prob
        checks.append(_check(f"homogeneous-movers.{d}", beta, target))

    # (g) sharp bounds: containment and sharpness
    fs1 = moments["d1"]
    fs_and = moments["d_and"]
    theorem_applicable = (audit.double_exclusion and audit.mtr and audit.mts
                          and audit.positive_response and params is not None
                          and fs1 > 0 and fs_and > 0)
    if theorem_applicable:
        lower = moments["y"] / fs1
        upper = moments["dand_y"] / fs_and + moments["untreated_y"] / fs1
        checks.append(_check_le("lafte-bounds.containment.lower", lower, params.lafte_over_c))
        checks.append(_check_le("lafte-bounds.containment.upper", params.lafte_over_c, upper))
        if p_cn == 0.0 and p_ca == 0.0:
            sharp_ok = (close(lower, params.lafte_over_c, SHARPNESS_TOLERANCE)
                        and close(upper, params.lafte_over_c, SHARPNESS_TOLERANCE))
            checks.append(CheckResult("lafte-bounds.sharpness", True, sharp_ok,
                                      lower, upper,
                                      "mover shares are zero: both endpoints equal the LAFTE"))
    else:
        checks.append(_skip("lafte-bounds.containment",
                            "not applicable: bound assumptions do not all hold"))

    # (h) bounded-response bounds: containment and the width identity
    if audit.double_exclusion and params is not None and fs1 > 0:
        cells = [s.mean_y[i][j] for s in spec.strata for i in (0, 1) for j in (0, 1)]
        ymin, ymax = min(cells), max(cells)
        lower = (moments["kernel_y"] + ymin * moments["g_or"] - ymax * moments["g_and"]) / fs1
        upper = (moments["kernel_y"] + ymax * moments["g_or"] - ymin * moments["g_and"]) / fs1
        checks.append(_check_le("bounded-response.containment.lower", lower, params.lafte_over_c))
        checks.append(_check_le("bounded-response.containment.upper", params.lafte_over_c, upper))
        checks.append(_check("bounded-response.width", upper - lower,
                             (ymax - ymin) * (p_cn + p_ca) / fs1))
    else:
        checks.append(_skip("bounded-response.containment",
                            "not applicable: double exclusion fails or d1 stage is zero"))

    # (i) tau bounds
    max_stage = max(moments[d] for d in BINARY_DEFS)
    fs_sum = moments["d_sum"]
    if (audit.relevance and params is not None and fs_sum > 0
            and moments["y"] > 0):
        checks.append(_check_le("tau-bounds.containment.lower",
                                moments["y"] / fs_sum, params.tau))
        checks.append(_check_le("tau-bounds.containment.upper",
                                params.tau, moments["y"] / max_stage))
    else:
        checks.append(_skip("tau-bounds.containment",
                            "not applicable: needs relevance and a positive reduced form"))

    # (j) weighted-group-effect decompositions reproduce the IV estimands
    if params is not None:
        for d, terms in params.beta_decomposition.items():
            if moments[d] <= 0:
                checks.append(_skip(f"iv-decomposition.{d}",
                                    "not applicable: zero first stage"))
                continue
            checks.append(_check(f"iv-decomposition.{d}", sum(t.contribution for t in terms),
                                 moments["y"] / moments[d]))
    else:
        checks.append(_skip("iv-decomposition", "not applicable: no compliers"))

    return VerificationReport(checks=tuple(checks), flags=tuple(flags), tolerance=EXACT_TOLERANCE)
