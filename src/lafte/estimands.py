"""First stages, reduced forms, IV estimands, and complier shares.

The five treatment definitions summarize a two-part treatment one way each:

=========  ===========  ===============================
FIRST      ``d1``       enrolled in the first part
SECOND     ``d2``       enrolled in the second part
BOTH       ``d_and``    enrolled in both parts
EITHER     ``d_or``     enrolled in at least one part
SUM        ``d_sum``    number of parts enrolled (0/1/2)
=========  ===========  ===============================

A "first stage" is the coefficient on the instrument in an OLS regression of
the treatment column on the instrument plus controls; the "reduced form" is
the same with the outcome as regressand; the IV estimand is their 2SLS
ratio. Under the double exclusion restriction the three complier-group
shares are identified by the instrument contrasts of ``d2``, ``d_or - d2``,
and ``d_and - d2``.

Every number is the slope of one or more just-identified equations on the
table's instrument matrix ``W = [1, z, controls]``, and :func:`slopes` is
the one path from a table to those fits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .data import ObservationTable
from .exceptions import RelevanceError
from .regression import (
    RELEVANCE_TOLERANCE,
    FitResult,
    fit_stacked,
    instrument_design,
    iv_design,
    ols,
    stack,
)

# Normal-approximation 95% intervals, matching the reporting convention.
CRITICAL_VALUE = 1.96


class TreatmentDef(Enum):
    """One of the five treatment summaries built from (d1, d2)."""

    FIRST = "d1"
    SECOND = "d2"
    BOTH = "d_and"
    EITHER = "d_or"
    SUM = "d_sum"

    @property
    def label(self) -> str:
        return _LABELS[self.value]


# Reported label of every column regressed on the instruments.
_LABELS = {
    "d1": "D1", "d2": "D2", "d_and": "D∧", "d_or": "D∨", "d_sum": "D1+D2", "y": "Y",
    "g_or": "D∨−D2", "g_and": "D∧−D2", "gy_or": "(D∨−D2)Y", "gy_and": "(D∧−D2)Y",
}

# Fixed tie-breaking order for the binary definitions.
BINARY_DEFS = (TreatmentDef.FIRST, TreatmentDef.SECOND, TreatmentDef.BOTH, TreatmentDef.EITHER)

# Reporting order mirroring the published tables.
REPORT_ORDER = (TreatmentDef.SUM, TreatmentDef.FIRST, TreatmentDef.SECOND,
                TreatmentDef.BOTH, TreatmentDef.EITHER)


@dataclass(frozen=True)
class EstimateWithSE:
    """A point estimate with its standard error and 95% interval.

    ``se`` is None when the underlying regressand was constant, in which
    case the interval is undefined as well.
    """

    value: float
    se: float | None
    ci_low: float | None
    ci_high: float | None
    n: int
    cluster_count: int | None
    definition: str

    @classmethod
    def from_se(cls, value: float, se: float | None, n: int, cluster_count: int | None,
                definition: str) -> EstimateWithSE:
        """An estimate with the 95% interval its standard error implies."""
        if se is None:
            return cls(value, None, None, None, n, cluster_count, definition)
        return cls(value, se, value - CRITICAL_VALUE * se, value + CRITICAL_VALUE * se,
                   n, cluster_count, definition)

    @property
    def degenerate(self) -> bool:
        return self.se is None


@dataclass(frozen=True)
class ComplierShares:
    """The three complier-group shares identified under double exclusion."""

    p_full: EstimateWithSE
    p_dropout: EstimateWithSE
    p_late_adopter: EstimateWithSE
    warnings: tuple[str, ...] = ()


def slopes(table: ObservationTable, equations: Sequence[tuple[str, str | None]]) -> FitResult:
    """Joint fit of ``(response, treatment)`` equations on the table's ``W``, once per table.

    A treatment of None regresses the response column on ``W``; a treatment
    column fits the IV equation whose design is ``W`` with the instrument
    replaced by the treatment. The result keeps only the slopes (coefficient
    1 of each equation, in order) and their joint covariance, so ``k`` is
    the number of equations; ``n`` and ``dof`` are those of the joint fit.
    """
    key = tuple((response, treatment) for response, treatment in equations)

    def fit():
        w, names = instrument_design(table.z, table.controls, table.control_names)
        if len(key) == 1 and key[0][1] is None:
            full = ols(table.column(key[0][0]), w, table.cluster_codes, names=names)
        else:
            designs = {t: w if t is None else iv_design(w, table.column(t))
                       for t in dict.fromkeys(t for _, t in key)}
            full = fit_stacked(stack([(table.column(r), designs[t], w) for r, t in key],
                                     table.cluster_codes))
        idx = [e * w.shape[1] + 1 for e in range(len(key))]
        return replace(full, coefficients=full.coefficients[idx],
                       vcov=full.vcov[np.ix_(idx, idx)], k=len(idx),
                       names=tuple(r if t is None else f"{r}~{t}" for r, t in key))
    return table.cached(key, fit)


def _slope(table: ObservationTable, equation: tuple[str, str | None]) -> EstimateWithSE:
    fit = slopes(table, [equation])
    return EstimateWithSE.from_se(float(fit.coefficients[0]), fit.se(0), table.n,
                                  fit.cluster_count, _LABELS[equation[1] or equation[0]])


def contrast(table: ObservationTable, column: str) -> EstimateWithSE:
    """Instrument coefficient of the OLS of a column on ``W``."""
    return _slope(table, (column, None))


def require_relevance(table: ObservationTable, definition: TreatmentDef) -> None:
    """Raise :class:`RelevanceError` when the first stage of ``definition`` is
    numerically zero; the error names the definition."""
    value = contrast(table, definition.value).value
    if abs(value) <= RELEVANCE_TOLERANCE:
        raise RelevanceError(
            f"relevance failure for {definition.label}: first stage {value:.3e}",
            first_stage=value, definition=definition.label)


def first_stage(table: ObservationTable, definition: TreatmentDef) -> EstimateWithSE:
    """Instrument coefficient for one treatment definition.

    Any sign is reported as-is; estimands that divide by the first stage
    enforce relevance themselves.
    """
    return contrast(table, definition.value)


def reduced_form(table: ObservationTable) -> EstimateWithSE:
    """Instrument coefficient for the outcome."""
    return contrast(table, "y")


def iv_estimand(table: ObservationTable, definition: TreatmentDef) -> EstimateWithSE:
    """2SLS coefficient of the outcome on one treatment definition.

    Raises
    ------
    RelevanceError
        When the definition's first stage is numerically zero; the error
        names the definition and carries the first-stage estimate.
    """
    require_relevance(table, definition)
    return _slope(table, ("y", definition.value))


def complier_shares(table: ObservationTable) -> ComplierShares:
    """Shares of full compliers, dropouts, and late-adopters.

    These are the instrument contrasts of ``d2``, ``d_or - d2``, and
    ``d_and - d2``; they identify P[C1,C2], P[C1,N2], and P[C1,A2] only
    under the double exclusion restriction, which callers should test with
    the diagnostics module first. Negative point estimates falsify the
    maintained assumptions and are returned as-is with a warning. Their
    3x3 joint covariance is ``slopes(table, [(c, None) for c in ("d2",
    "g_or", "g_and")]).vcov``.
    """
    estimates = [contrast(table, column) for column in ("d2", "g_or", "g_and")]
    warnings = [
        f"negative share estimate {share} = {est.value:.6g}; the maintained "
        "assumptions are falsified rather than the estimate clipped"
        for share, est in zip(("P[C1,C2]", "P[C1,N2]", "P[C1,A2]"), estimates)
        if est.value < 0]
    return ComplierShares(p_full=estimates[0], p_dropout=estimates[1],
                          p_late_adopter=estimates[2], warnings=tuple(warnings))
