"""Partial-identification bounds on the full-treatment effect.

Three bound pairs are computed, each with per-endpoint standard errors and
95% intervals:

``theorem1``
    Sharp bounds on the local average full treatment effect (LAFTE) under
    double exclusion, monotone treatment response, monotone treatment
    selection, and positive response. The lower bound is the IV estimand
    with ``d1`` as treatment; the upper bound is the sum of two 2SLS
    coefficients, ``d_and*y`` on ``d_and`` and ``(1-d1)(1-d2)*y`` on ``d1``,
    both instrumented by ``z``.
``bounded-response``
    LAFTE bounds under double exclusion and a bounded outcome only. Both
    endpoints are fixed linear combinations (with multipliers 1, ymin/ymax)
    of three 2SLS coefficients sharing ``d1`` as treatment.
``tau``
    Bounds on the convex-weighted average of the five complier-group
    effects: the IV estimand with the multivalued treatment from below, the
    reduced form over the largest binary first stage from above.

Standard errors for multi-coefficient endpoints come from the stacking
procedure: the component equations are estimated jointly on duplicated data
with duplicated cluster labels, and the endpoint is a linear combination of
the joint coefficient vector. A delta-method alternative is available for
cross-checking the theorem1 upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ObservationTable, derive
from .estimands import (
    BINARY_DEFS,
    CRITICAL_VALUE,
    EstimateWithSE,
    TreatmentDef,
    _table_pieces,
    first_stage,
    iv_estimand,
    reduced_form,
)
from .exceptions import BoundsError, RelevanceError
from .regression import (
    RELEVANCE_TOLERANCE,
    _instrument_design,
    first_stage_coefficient,
    fit_stacked,
    linear_combination,
    stack,
)

THEOREM1_ASSUMPTIONS = (
    "double-exclusion",
    "monotone-treatment-response",
    "monotone-treatment-selection",
    "positive-response",
)


@dataclass(frozen=True)
class BoundsResult:
    """A lower/upper bound pair with provenance.

    For ``kind="bounded-response"`` the endpoints are ordered (swapped with
    a warning if the sample first stages reverse them); for ``theorem1``
    and ``tau`` the ordering holds under the maintained assumptions and a
    violation is reported, never repaired.
    """

    kind: str
    lower: EstimateWithSE
    upper: EstimateWithSE
    assumptions: tuple[str, ...]
    ymin: float | None = None
    ymax: float | None = None
    maximizer: str | None = None
    flipped: bool = False
    warnings: tuple[str, ...] = ()


def _estimate(value: float, se: float | None, n: int, g: int | None, label: str) -> EstimateWithSE:
    if se is None:
        return EstimateWithSE(value, None, None, None, n, g, label)
    return EstimateWithSE(value, se,
                          value - CRITICAL_VALUE * se, value + CRITICAL_VALUE * se,
                          n, g, label)


def _check_relevance(d, z, controls, cluster, label: str) -> float:
    fit = first_stage_coefficient(d, z, controls, cluster)
    coef = float(fit.coefficients[1])
    if abs(coef) <= RELEVANCE_TOLERANCE:
        raise RelevanceError(
            f"relevance failure for {label}: first stage {coef:.3e}",
            first_stage=coef, definition=label)
    return coef


def _iv_equation(response, d, z, controls):
    w, _ = _instrument_design(z, controls)
    x = w.copy()
    x[:, 1] = d
    return np.asarray(response, dtype=float), x, w


def lafte_bounds(table: ObservationTable, *, use_controls: bool = True,
                 use_cluster: bool = True, upper_se_method: str = "stacking") -> BoundsResult:
    """Sharp LAFTE bounds under double exclusion, MTR, MTS, and positive response.

    ``upper_se_method`` selects "stacking" (default) or "delta" for the
    upper-bound standard error; the point estimate is identical either way.
    """
    if upper_se_method not in ("stacking", "delta"):
        raise ValueError(f"unknown upper_se_method {upper_se_method!r}")
    z, controls, cluster = _table_pieces(table, use_controls, use_cluster)
    derived = derive(table)
    d1 = table.d1.astype(float)

    _check_relevance(d1, z, controls, cluster, "D1")
    _check_relevance(derived.d_and, z, controls, cluster, "D∧")

    lower = iv_estimand(table, TreatmentDef.FIRST,
                        use_controls=use_controls, use_cluster=use_cluster)

    eq_both = _iv_equation(derived.dand_y, derived.d_and, z, controls)
    eq_first = _iv_equation(derived.untreated_y, d1, z, controls)
    system = stack([eq_both, eq_first], cluster)
    fit = fit_stacked(system)
    weights = np.zeros(fit.k)
    weights[system.coef_index(0, 1)] = 1.0
    weights[system.coef_index(1, 1)] = 1.0
    value, se = linear_combination(fit, weights)

    if upper_se_method == "delta":
        se = _delta_upper_se(table, use_controls, use_cluster)

    upper = _estimate(value, se, table.n, fit.cluster_count, "theorem1-upper")
    warnings = []
    if lower.value > upper.value:
        warnings.append(
            "in-sample lower bound exceeds upper bound; at least one maintained "
            "assumption (double exclusion, MTR, MTS, positive response) is falsified")
    return BoundsResult(kind="theorem1", lower=lower, upper=upper,
                        assumptions=THEOREM1_ASSUMPTIONS, warnings=tuple(warnings))


def _delta_upper_se(table: ObservationTable, use_controls: bool, use_cluster: bool) -> float | None:
    """Delta-method SE for the theorem1 upper bound, for cross-checking.

    Stacks the four instrument regressions behind the two component ratios
    and propagates the gradient of f(a, b, c, d) = a/b + c/d.
    """
    z, controls, cluster = _table_pieces(table, use_controls, use_cluster)
    derived = derive(table)
    cols = [np.ones(table.n), z]
    if controls is not None:
        cols.append(controls)
    x = np.column_stack(cols)
    responses = (derived.dand_y, derived.d_and, derived.untreated_y, table.d1.astype(float))
    system = stack([(resp, x) for resp in responses], cluster)
    fit = fit_stacked(system)
    if fit.response_constant:
        return None
    idx = [system.coef_index(e, 1) for e in range(4)]
    a, b, c, d = (float(fit.coefficients[i]) for i in idx)
    v = fit.vcov[np.ix_(idx, idx)]
    grad = np.array([1.0 / b, -a / b ** 2, 1.0 / d, -c / d ** 2])
    return float(np.sqrt(max(grad @ v @ grad, 0.0)))


def lafte_bounds_bounded_response(table: ObservationTable, ymin: float | None = None,
                                  ymax: float | None = None, *, use_controls: bool = True,
                                  use_cluster: bool = True) -> BoundsResult:
    """LAFTE bounds assuming only double exclusion and a bounded outcome.

    ``ymin``/``ymax`` default to the observed sample range of the outcome;
    explicit values must enclose it. Each endpoint divides
    ``(1 - d1 - d2 + 2*d1*d2)*y`` plus multiplier-weighted instrument
    contrasts of ``d_or - d2`` and ``d_and - d2`` by the ``d1`` first stage;
    the width of the interval is ``(ymax - ymin)`` times the mover share
    over the ``d1`` first stage.
    """
    y_lo = float(np.min(table.y))
    y_hi = float(np.max(table.y))
    ymin = y_lo if ymin is None else float(ymin)
    ymax = y_hi if ymax is None else float(ymax)
    if ymin > y_lo or ymax < y_hi:
        raise BoundsError(
            f"response bound violated by data: observed range [{y_lo:.6g}, {y_hi:.6g}], "
            f"stated bounds [{ymin:.6g}, {ymax:.6g}]")

    z, controls, cluster = _table_pieces(table, use_controls, use_cluster)
    derived = derive(table)
    d1 = table.d1.astype(float)
    _check_relevance(d1, z, controls, cluster, "D1")

    equations = [
        _iv_equation(derived.kernel_y, d1, z, controls),
        _iv_equation(derived.g_or, d1, z, controls),
        _iv_equation(derived.g_and, d1, z, controls),
    ]
    system = stack(equations, cluster)
    fit = fit_stacked(system)
    idx = [system.coef_index(e, 1) for e in range(3)]

    def combo(m_or: float, m_and: float):
        weights = np.zeros(fit.k)
        weights[idx[0]] = 1.0
        weights[idx[1]] = m_or
        weights[idx[2]] = m_and
        return linear_combination(fit, weights)

    lo_value, lo_se = combo(ymin, -ymax)
    hi_value, hi_se = combo(ymax, -ymin)

    warnings = []
    flipped = False
    if lo_value > hi_value:
        # Happens only when the sample d2 contrast exceeds the d1 contrast,
        # which contradicts double exclusion; order is restored and flagged.
        flipped = True
        lo_value, hi_value = hi_value, lo_value
        lo_se, hi_se = hi_se, lo_se
        warnings.append(
            "endpoints swapped: the sample first stages contradict double exclusion "
            "(instrument contrast of D2 exceeds that of D1)")

    lower = _estimate(lo_value, lo_se, table.n, fit.cluster_count, "bounded-response-lower")
    upper = _estimate(hi_value, hi_se, table.n, fit.cluster_count, "bounded-response-upper")
    return BoundsResult(kind="bounded-response", lower=lower, upper=upper,
                        assumptions=("double-exclusion", "bounded-response"),
                        ymin=ymin, ymax=ymax, flipped=flipped, warnings=tuple(warnings))


def tau_bounds(table: ObservationTable, *, use_controls: bool = True,
               use_cluster: bool = True) -> BoundsResult:
    """Bounds on the convex-weighted average of complier-group effects.

    The lower candidate is the IV estimand with the multivalued treatment
    ``d1 + d2``; the upper candidate divides the reduced form by the largest
    of the four binary first stages (ties broken in the fixed order D1, D2,
    both, either; the value is tie-invariant). With a negative reduced form
    the roles of the two expressions flip; the smaller is then reported as
    the lower endpoint and the flip is recorded.
    """
    stages = [first_stage(table, d, use_controls=use_controls, use_cluster=use_cluster)
              for d in BINARY_DEFS]
    values = np.array([s.value for s in stages])
    best = int(np.argmax(values))
    maximizer = BINARY_DEFS[best]

    sum_candidate = iv_estimand(table, TreatmentDef.SUM,
                                use_controls=use_controls, use_cluster=use_cluster)
    max_candidate = iv_estimand(table, maximizer,
                                use_controls=use_controls, use_cluster=use_cluster)

    rf = reduced_form(table, use_controls=use_controls, use_cluster=use_cluster)
    warnings = []
    flipped = False
    lower, upper = sum_candidate, max_candidate
    if rf.value < 0:
        flipped = True
        if sum_candidate.value > max_candidate.value:
            lower, upper = max_candidate, sum_candidate
        warnings.append(
            "negative reduced form: the roles of the two bound expressions flip; "
            "reporting the smaller value as the lower endpoint")
    elif lower.value > upper.value:
        warnings.append(
            "in-sample lower bound exceeds upper bound; some binary first stage "
            "is negative, contradicting the maintained monotonicity")
    return BoundsResult(kind="tau", lower=lower, upper=upper,
                        assumptions=("iv-assumptions",),
                        maximizer=maximizer.label, flipped=flipped,
                        warnings=tuple(warnings))
