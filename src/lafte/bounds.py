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

Each endpoint's value, standard error and 95% interval are made by
:func:`~lafte.estimands.estimate`, as a linear combination of slopes that
:func:`~lafte.estimands.slopes` fits jointly, with the covariance of the
equations stacked on duplicated data with duplicated cluster labels.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import LABELS, ObservationTable
from .estimands import BINARY_DEFS, EstimateWithSE, estimate, first_stage, iv_estimand, reduced_form
from .exceptions import BoundsError

THEOREM1_ASSUMPTIONS = (
    "double-exclusion",
    "monotone-treatment-response",
    "monotone-treatment-selection",
    "positive-response",
)


class BoundsResult(NamedTuple):
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


def lafte_bounds(table: ObservationTable) -> BoundsResult:
    """Sharp LAFTE bounds under double exclusion, MTR, MTS, and positive response.

    Positive response reads ``E[Y(0,0) | C1A2] >= 0``, a statement about the
    level of ``y``: so the upper endpoint moves when a constant is added to ``y``.
    """
    lower = iv_estimand(table, "d1")

    upper = estimate(table, [("dand_y", "d_and"), ("untreated_y", "d1")], [1.0, 1.0],
                     "theorem1-upper")
    warnings = []
    if lower.value > upper.value:
        warnings.append(
            "in-sample lower bound exceeds upper bound; at least one maintained "
            "assumption (double exclusion, MTR, MTS, positive response) is falsified")
    return BoundsResult(kind="theorem1", lower=lower, upper=upper,
                        assumptions=THEOREM1_ASSUMPTIONS, warnings=tuple(warnings))


def lafte_bounds_bounded_response(table: ObservationTable, ymin: float | None = None,
                                  ymax: float | None = None) -> BoundsResult:
    """LAFTE bounds assuming only double exclusion and a bounded outcome.

    ``ymin``/``ymax`` default to the observed sample range of the outcome;
    explicit values must be finite and enclose it. Each endpoint divides
    ``(1 - d1 - d2 + 2*d1*d2)*y`` plus multiplier-weighted instrument
    contrasts of ``d_or - d2`` and ``d_and - d2`` by the ``d1`` first stage;
    the width of the interval is ``(ymax - ymin)`` times the mover share
    over the ``d1`` first stage.
    """
    y_lo = float(np.min(table.y))
    y_hi = float(np.max(table.y))
    ymin = y_lo if ymin is None else float(ymin)
    ymax = y_hi if ymax is None else float(ymax)
    if not (np.isfinite(ymin) and np.isfinite(ymax)):
        raise BoundsError(f"response bounds must be finite, got [{ymin}, {ymax}]")
    if ymin > y_lo or ymax < y_hi:
        raise BoundsError(
            f"response bound violated by data: observed range [{y_lo:.6g}, {y_hi:.6g}], "
            f"stated bounds [{ymin:.6g}, {ymax:.6g}]")

    equations = [(column, "d1") for column in ("kernel_y", "g_or", "g_and")]
    lower = estimate(table, equations, [1.0, ymin, -ymax], "bounded-response-lower")
    upper = estimate(table, equations, [1.0, ymax, -ymin], "bounded-response-upper")

    warnings = []
    flipped = False
    if lower.value > upper.value:
        # Happens only when the sample d2 contrast exceeds the d1 contrast,
        # which contradicts double exclusion; order is restored and flagged.
        flipped = True
        lower, upper = (upper._replace(definition=lower.definition),
                        lower._replace(definition=upper.definition))
        warnings.append(
            "endpoints swapped: the sample first stages contradict double exclusion "
            "(instrument contrast of D2 exceeds that of D1)")
    return BoundsResult(kind="bounded-response", lower=lower, upper=upper,
                        assumptions=("double-exclusion", "bounded-response"),
                        ymin=ymin, ymax=ymax, flipped=flipped, warnings=tuple(warnings))


def tau_bounds(table: ObservationTable) -> BoundsResult:
    """Bounds on the convex-weighted average of complier-group effects.

    The lower candidate is the IV estimand with the multivalued treatment
    ``d1 + d2``; the upper candidate divides the reduced form by the largest
    of the four binary first stages (ties broken in the fixed order D1, D2,
    both, either; the value is tie-invariant). With a negative reduced form
    the roles of the two expressions flip; the smaller is then reported as
    the lower endpoint and the flip is recorded.
    """
    stages = [first_stage(table, d) for d in BINARY_DEFS]
    values = np.array([s.value for s in stages])
    best = int(np.argmax(values))
    maximizer = BINARY_DEFS[best]

    sum_candidate = iv_estimand(table, "d_sum")
    max_candidate = iv_estimand(table, maximizer)
    rf = reduced_form(table)
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
                        maximizer=LABELS[maximizer], flipped=flipped,
                        warnings=tuple(warnings))
