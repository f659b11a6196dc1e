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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import DerivedColumns, ObservationTable, derive
from .exceptions import RelevanceError
from .regression import FitResult, ols, stack, fit_stacked, tsls

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
        return _LABELS[self]

    def column(self, table: ObservationTable, derived: DerivedColumns | None = None) -> np.ndarray:
        if self is TreatmentDef.FIRST:
            return table.d1.astype(float)
        if self is TreatmentDef.SECOND:
            return table.d2.astype(float)
        derived = derived if derived is not None else derive(table)
        return derived.column(self.value)


_LABELS = {
    TreatmentDef.FIRST: "D1",
    TreatmentDef.SECOND: "D2",
    TreatmentDef.BOTH: "D∧",
    TreatmentDef.EITHER: "D∨",
    TreatmentDef.SUM: "D1+D2",
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
    joint_vcov: np.ndarray | None = None


def estimate_from_fit(fit: FitResult, index: int, definition: str) -> EstimateWithSE:
    """Package one coefficient of a fit as an :class:`EstimateWithSE`."""
    value = float(fit.coefficients[index])
    se = fit.se(index)
    if se is None:
        low = high = None
    else:
        low = value - CRITICAL_VALUE * se
        high = value + CRITICAL_VALUE * se
    return EstimateWithSE(value, se, low, high, fit.n, fit.cluster_count, definition)


def _regressors(table: ObservationTable, use_controls: bool, use_cluster: bool):
    z = table.z.astype(float)
    cols = [np.ones(table.n), z]
    names = ["const", "z"]
    if use_controls and table.controls.shape[1]:
        cols.append(table.controls)
        names += list(table.control_names) or [f"c{j}" for j in range(table.controls.shape[1])]
    x = np.column_stack(cols)
    cluster = table.cluster_codes if use_cluster else None
    return x, tuple(names), cluster


def _table_pieces(table: ObservationTable, use_controls: bool, use_cluster: bool):
    controls = table.controls if (use_controls and table.controls.shape[1]) else None
    cluster = table.cluster_codes if use_cluster else None
    return table.z.astype(float), controls, cluster


def first_stage(table: ObservationTable, definition: TreatmentDef, *,
                use_controls: bool = True, use_cluster: bool = True) -> EstimateWithSE:
    """Instrument coefficient for one treatment definition.

    Any sign is reported as-is; estimands that divide by the first stage
    enforce relevance themselves.
    """
    x, names, cluster = _regressors(table, use_controls, use_cluster)
    fit = ols(definition.column(table), x, cluster, names=names)
    return estimate_from_fit(fit, 1, definition.label)


def reduced_form(table: ObservationTable, *, use_controls: bool = True,
                 use_cluster: bool = True) -> EstimateWithSE:
    """Instrument coefficient for the outcome."""
    x, names, cluster = _regressors(table, use_controls, use_cluster)
    fit = ols(table.y, x, cluster, names=names)
    return estimate_from_fit(fit, 1, "Y")


def iv_estimand(table: ObservationTable, definition: TreatmentDef, *,
                use_controls: bool = True, use_cluster: bool = True) -> EstimateWithSE:
    """2SLS coefficient of the outcome on one treatment definition.

    Raises
    ------
    RelevanceError
        When the definition's first stage is numerically zero; the error
        names the definition and carries the first-stage estimate.
    """
    z, controls, cluster = _table_pieces(table, use_controls, use_cluster)
    try:
        fit = tsls(table.y, definition.column(table), z, controls, cluster)
    except RelevanceError as exc:
        raise RelevanceError(
            f"relevance failure for {definition.label}: "
            f"first stage {exc.first_stage:.3e}",
            first_stage=exc.first_stage, definition=definition.label,
        ) from None
    return estimate_from_fit(fit, 1, definition.label)


def complier_shares(table: ObservationTable, *, use_controls: bool = True,
                    use_cluster: bool = True, joint: bool = False) -> ComplierShares:
    """Shares of full compliers, dropouts, and late-adopters.

    These are the instrument contrasts of ``d2``, ``d_or - d2``, and
    ``d_and - d2``; they identify P[C1,C2], P[C1,N2], and P[C1,A2] only
    under the double exclusion restriction, which callers should test with
    the diagnostics module first. Negative point estimates falsify the
    maintained assumptions and are returned as-is with a warning. With
    ``joint=True`` the 3x3 covariance of the share estimates is attached,
    computed from the stacked system.
    """
    x, names, cluster = _regressors(table, use_controls, use_cluster)
    derived = derive(table)
    responses = (
        ("P[C1,C2]", "D2", table.d2.astype(float)),
        ("P[C1,N2]", "D∨−D2", derived.g_or),
        ("P[C1,A2]", "D∧−D2", derived.g_and),
    )
    estimates = []
    warnings = []
    for share, definition, resp in responses:
        fit = ols(resp, x, cluster, names=names)
        est = estimate_from_fit(fit, 1, definition)
        if est.value < 0:
            warnings.append(
                f"negative share estimate {share} = {est.value:.6g}; the maintained "
                "assumptions are falsified rather than the estimate clipped")
        estimates.append(est)

    joint_vcov = None
    if joint:
        system = stack([(resp, x) for _, _, resp in responses], cluster)
        fit = fit_stacked(system)
        idx = [system.coef_index(e, 1) for e in range(3)]
        joint_vcov = fit.vcov[np.ix_(idx, idx)].copy()

    return ComplierShares(
        p_full=estimates[0], p_dropout=estimates[1], p_late_adopter=estimates[2],
        warnings=tuple(warnings), joint_vcov=joint_vcov,
    )
