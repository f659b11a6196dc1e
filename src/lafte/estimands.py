"""First stages, reduced forms, IV estimands, and complier shares.

The five treatment definitions summarize a two-part treatment one way each,
and each is named by its ``data.COLUMNS`` column:

===========  ===============================
``d1``       enrolled in the first part
``d2``       enrolled in the second part
``d_and``    enrolled in both parts
``d_or``     enrolled in at least one part
``d_sum``    number of parts enrolled (0/1/2)
===========  ===============================

A "first stage" is the coefficient on the instrument in an OLS regression of
the treatment column on the instrument plus controls; the "reduced form" is
the same with the outcome as regressand; the IV estimand is their 2SLS
ratio. Under the double exclusion restriction the three complier-group
shares are identified by the instrument contrasts of ``d2``, ``d_or - d2``,
and ``d_and - d2``.

Every number is the slope, or a ratio of slopes, of the 13 columns of the
``data.COLUMNS`` catalogue on the table's instrument matrix
``W = [1, z, controls]``. :func:`slopes` is the one path from a table to
them: it fits all 13 once per table, as one multi-response fit whose
columns are built a block of rows at a time, and reads every request off
that fit as a linear map. :func:`estimate` makes each reported number,
bound endpoints too: ``weights · b`` of such slopes, its SE and interval.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .data import LABELS, RESPONSES, DerivedColumns, ObservationTable, _cache_keep, _cache_read
from .exceptions import RelevanceError
from .regression import (FitResult, Responses, _constant_zeros, _dof_factor, _equation_names,
                         linear_combination, ols, tidy_vcov)

# Normal-approximation 95% intervals, matching the reporting convention.
CRITICAL_VALUE = 1.96

# A first-stage coefficient at or below this magnitude fails relevance.
RELEVANCE_TOLERANCE = 1e-10


# Fixed tie-breaking order for the binary definitions.
BINARY_DEFS = ("d1", "d2", "d_and", "d_or")

# Reporting order mirroring the published tables: all five definitions.
REPORT_ORDER = ("d_sum", *BINARY_DEFS)

# Each complier share: its field of ComplierShares, the column whose
# instrument contrast identifies it, and its name.
COMPLIER_SHARES = (("p_full", "d2", "P[C1,C2]"), ("p_dropout", "g_or", "P[C1,N2]"),
                   ("p_late_adopter", "g_and", "P[C1,A2]"))


class EstimateWithSE(NamedTuple):
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


class ComplierShares(NamedTuple):
    """The three complier-group shares identified under double exclusion."""

    p_full: EstimateWithSE
    p_dropout: EstimateWithSE
    p_late_adopter: EstimateWithSE
    warnings: tuple[str, ...] = ()


def _table_fit(table: ObservationTable) -> FitResult:
    """The table's one fit, of all 13 columns on ``W``, which is built here a
    block of rows at a time, as the columns are: ``[1, z, controls - means]``,
    named ``const``, ``z`` and the control names. The centring costs a
    control with a large mean no digits, and changes no ``z`` slope or
    covariance. No ``n x 13`` array or ``n x k`` design is held.

    A table that ``load_table`` read from its cache entry, or kept there,
    keeps this fit at ``<entry>.fit``: one fixed JSON line, then the
    coefficients, covariance and response ranges. The entry's key
    (``data._cache_entry``) fixes the table, and the table the fit's other
    fields, so a later load of the same bytes reads the fit bit for bit in
    place of fitting it again. A fit file that ``data._cache_read`` refuses
    is fit again and replaced; a fit that raises keeps nothing.
    """
    names = ("const", "z", *table.control_names)

    def fit():
        means = table.controls.mean(0)

        def design(rows) -> np.ndarray:
            # Filled in place: no column is held twice.
            z = table.z[rows]
            w = np.empty((z.shape[0], len(names)))
            w[:, 0], w[:, 1], w[:, 2:] = 1.0, z, table.controls[rows] - means
            return w

        columns = Responses((table.n, len(RESPONSES)), lambda rows: DerivedColumns.of(
            table.d1[rows], table.d2[rows], table.y[rows]).values)
        return ols(columns, Responses((table.n, len(names)), design), table.cluster_codes,
                   names=names)

    def kept():
        entry = table.__dict__.get("_entry")
        if entry is None:
            return fit()
        path = entry + ".fit"
        m = len(RESPONSES)
        n, k = m * table.n, m * len(names)
        hit = _cache_read(path, lambda _: [np.empty(k), np.empty((k, k)), np.empty(m),
                                           np.empty(m)])
        if hit is not None:
            b, vcov, lo, hi = hit[1]
            return FitResult(b, vcov, n, k, n - k, table.cluster_count,
                             _equation_names(m, names), lo, hi)
        value = fit()
        _cache_keep(path, "fit", [value.coefficients, value.vcov, value.response_min,
                                  value.response_max])
        return value
    return table.cached("fit", kept)


def slopes(table: ObservationTable, equations: Sequence[tuple[str, str | None]]) -> FitResult:
    """Slopes of ``(response, treatment)`` equations on the table's ``W`` and
    their joint covariance, equal to those of the stacked fit of the equations.

    A treatment of None asks for the contrast ``g_r`` of the response, a
    treatment for the IV slope ``b = g_r / g_d``. Both are read off the
    table's one fit, of the 13 slopes ``g`` with covariance ``V``: the
    covariance of ``m`` requests is ``(c_m / c_13) L'VL``, where a request's
    column of ``L`` is ``u_r`` or ``(u_r - b u_d) / g_d`` (``u`` the unit
    vectors) and ``c_m`` is the stacking factor of ``m`` equations. A
    request whose responses are all one constant is degenerate:
    ``response_constant``, zero covariance. ``k`` is ``m``; ``n`` and
    ``dof`` are those of the stacked fit. Each request is computed once per
    table.

    Raises
    ------
    RelevanceError
        When the first stage of a treatment is numerically zero, as it is
        for a treatment collinear with ``W``; the error names it.
    """
    key = tuple((response, treatment) for response, treatment in equations)

    def fit():
        for t in dict.fromkeys(t for _, t in key if t is not None):
            first = contrast(table, t).value
            if abs(first) <= RELEVANCE_TOLERANCE:
                raise RelevanceError(f"relevance failure for {LABELS[t]}: first stage "
                                     f"{first:.3e}")
        full = _table_fit(table)
        k = full.k // len(RESPONSES)
        gamma = full.coefficients[1::k]
        m, n = len(key), table.n
        rows = [RESPONSES.index(response) for response, _ in key]
        weights = np.zeros((len(RESPONSES), m))
        weights[rows, range(m)] = 1.0
        b = gamma[rows]
        for e, (_, t) in enumerate(key):
            if t is not None:
                d = RESPONSES.index(t)
                b[e] /= gamma[d]
                weights[:, e] /= gamma[d]
                weights[d, e] -= b[e] / gamma[d]
        common = (m * n, m, m * n - m * k, full.cluster_count,
                  tuple(r if t is None else f"{r}~{t}" for r, t in key))
        lo, hi = full.response_min[rows], full.response_max[rows]
        if lo.min() == hi.max():
            # As in the stacked fit: exact zeros, no covariance.
            return FitResult(_constant_zeros(b, lo), np.zeros((m, m)), *common, lo, hi)
        scale = _dof_factor(m * n, m * k) / _dof_factor(full.n, full.k)
        vcov = scale * (weights.T @ full.vcov[1::k, 1::k] @ weights)
        return FitResult(b, tidy_vcov(vcov), *common, lo, hi)
    return table.cached(key, fit)


def estimate(table: ObservationTable, equations: Sequence[tuple[str, str | None]], weights,
             definition: str) -> EstimateWithSE:
    """``weights · b`` for ``b = slopes(table, equations)``, with the SE of
    ``linear_combination`` and the interval ``value ± CRITICAL_VALUE · se``;
    the SE and both ends are None when the responses are one constant."""
    fit = slopes(table, equations)
    value, se = linear_combination(fit, weights)
    low, high = (None, None) if se is None else (value - CRITICAL_VALUE * se,
                                                 value + CRITICAL_VALUE * se)
    return EstimateWithSE(value, se, low, high, table.n, fit.cluster_count, definition)


def contrast(table: ObservationTable, column: str) -> EstimateWithSE:
    """Instrument coefficient of the OLS of a column on ``W``."""
    return estimate(table, [(column, None)], [1.0], LABELS[column])


def _definition(name: str) -> str:
    if name not in REPORT_ORDER:
        raise ValueError(f"unknown treatment definition {name!r}; expected one of "
                         f"{', '.join(REPORT_ORDER)}")
    return name


def first_stage(table: ObservationTable, definition: str) -> EstimateWithSE:
    """Instrument coefficient for one treatment definition, named by its
    column (one of ``REPORT_ORDER``; any other name raises ValueError).

    Any sign is reported as-is; estimands that divide by the first stage
    enforce relevance themselves.
    """
    return contrast(table, _definition(definition))


def reduced_form(table: ObservationTable) -> EstimateWithSE:
    """Instrument coefficient for the outcome."""
    return contrast(table, "y")


def iv_estimand(table: ObservationTable, definition: str) -> EstimateWithSE:
    """2SLS coefficient of the outcome on one treatment definition, named as
    for :func:`first_stage`.

    Raises
    ------
    ValueError
        When ``definition`` is not one of ``REPORT_ORDER``.
    RelevanceError
        When the definition's first stage is numerically zero; the error
        names the definition and carries the first-stage estimate.
    """
    return estimate(table, [("y", _definition(definition))], [1.0], LABELS[definition])


def complier_shares(table: ObservationTable) -> ComplierShares:
    """Shares of full compliers, dropouts, and late-adopters.

    These are the instrument contrasts of ``d2``, ``d_or - d2``, and
    ``d_and - d2``; they identify P[C1,C2], P[C1,N2], and P[C1,A2] only
    under the double exclusion restriction, which callers should test with
    the diagnostics module first. Negative point estimates falsify the
    maintained assumptions and are returned as-is with a warning. Their
    3x3 joint covariance is ``slopes(table, [(c, None) for _, c, _ in
    COMPLIER_SHARES]).vcov``.
    """
    estimates = {field: contrast(table, column) for field, column, _ in COMPLIER_SHARES}
    warnings = [
        f"negative share estimate {name} = {estimates[field].value:.6g}; the maintained "
        "assumptions are falsified rather than the estimate clipped"
        for field, _, name in COMPLIER_SHARES if estimates[field].value < 0]
    return ComplierShares(**estimates, warnings=tuple(warnings))
