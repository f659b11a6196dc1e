"""Least-squares and instrumental-variable fitting with sandwich covariances.

Everything here is a pure function of its inputs. The single workhorse is a
just-identified linear IV solve ``b = (W'X)^{-1} W'y`` (ordinary least
squares is the special case ``W = X``), wrapped with three covariance
estimators:

``classical``
    ``s^2 (W'X)^{-1} W'W (X'W)^{-1}`` with ``s^2 = e'e / (n - k)``.
``hc1``
    Heteroskedasticity-robust sandwich with small-sample factor
    ``n / (n - k)``. This is the default when no clusters are supplied.
``cluster``
    One-way cluster sandwich over within-cluster score sums, with
    small-sample factor ``c = (G/(G-1)) * ((n-1)/(n-k))``. With every row
    its own cluster this reduces exactly to ``hc1``.

Stacked multi-equation systems duplicate the data block-diagonally; the
joint coefficient vector equals the separately-fit values, while the
covariance treats stacked rows originating from the same observation (or
the same cluster, when clustering) as one dependence unit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy import stats

from .exceptions import (
    DegenerateTestError,
    EstimationError,
    RankDeficientError,
    RelevanceError,
)

# A pivot below this fraction of the largest pivot marks a collinear column.
RANK_TOLERANCE = 1e-10

# A first-stage coefficient at or below this magnitude fails relevance.
RELEVANCE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class FitResult:
    """Coefficients and covariance from one linear (IV) fit."""

    coefficients: np.ndarray
    vcov: np.ndarray
    n: int
    k: int
    dof: int
    covariance_kind: str
    cluster_count: int | None = None
    names: tuple[str, ...] = ()
    response_constant: bool = False

    def se(self, j: int) -> float | None:
        """Standard error of coefficient ``j``; None when the regressand was constant."""
        if self.response_constant:
            return None
        return float(np.sqrt(max(self.vcov[j, j], 0.0)))


@dataclass(frozen=True)
class TestResult:
    """Outcome of a hypothesis test."""

    statistic: float
    dof: int
    p_value: float
    kind: str


@dataclass(frozen=True)
class StackedSystem:
    """Block-diagonal multi-equation system on duplicated rows."""

    response: np.ndarray
    design: np.ndarray
    instruments: np.ndarray
    cluster_labels: np.ndarray
    equation_offsets: tuple[int, ...]
    names: tuple[str, ...]
    cluster_given: bool

    def coef_index(self, equation: int, j: int) -> int:
        """Index of coefficient ``j`` of ``equation`` in the joint vector."""
        return self.equation_offsets[equation] + j


def _as_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    return x


def _check_rank(m: np.ndarray, names: Sequence[str] | None, what: str) -> None:
    if m.shape[0] < m.shape[1]:
        raise RankDeficientError(
            f"{what} matrix has more columns ({m.shape[1]}) than rows ({m.shape[0]})")
    r, piv = scipy.linalg.qr(m, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0:
        return
    bad = None
    if diag[0] == 0.0:
        bad = piv[0]
    else:
        below = np.nonzero(diag < RANK_TOLERANCE * diag[0])[0]
        if below.size:
            bad = piv[below[0]]
    if bad is not None:
        name = names[bad] if names and bad < len(names) else f"column {bad}"
        raise RankDeficientError(f"{what} matrix is rank deficient: collinear column '{name}'")


def _cluster_meat(scores: np.ndarray, labels: np.ndarray, n: int, k: int):
    _, inverse = np.unique(labels, return_inverse=True)
    g = int(inverse.max()) + 1
    sums = np.column_stack([np.bincount(inverse, weights=scores[:, j], minlength=g)
                            for j in range(k)])
    if g < 2:
        raise EstimationError("cluster covariance requires at least 2 clusters")
    factor = (g / (g - 1.0)) * ((n - 1.0) / (n - k))
    return factor * (sums.T @ sums), g


def _linear_iv(y, x, w=None, cluster=None, names=None, covariance=None) -> FitResult:
    """Solve a just-identified linear moment system and its sandwich covariance."""
    y = np.asarray(y, dtype=float).reshape(-1)
    x = _as_matrix(x)
    w = x if w is None else _as_matrix(w)
    n, k = x.shape
    if y.shape[0] != n or w.shape != x.shape:
        raise EstimationError("response, design, and instrument row counts differ")
    if n <= k:
        raise EstimationError(f"{n} rows cannot identify {k} parameters")
    names = tuple(names) if names else tuple(f"x{j}" for j in range(k))
    _check_rank(x, names, "design")
    if w is not x:
        _check_rank(w, names, "instrument")

    wx = w.T @ x
    try:
        bread = np.linalg.inv(wx)
    except np.linalg.LinAlgError:
        raise RankDeficientError("instrument/design cross-moment matrix is singular") from None
    b = bread @ (w.T @ y)

    labels = None if cluster is None else np.asarray(cluster)
    cluster_count = None

    response_constant = bool(np.ptp(y) == 0.0)
    if response_constant:
        # Exact algebra gives a zero slope on every non-constant column;
        # clean float dust so the reported estimate is exactly 0.
        b = np.where(np.abs(b) <= 1e-10 * (1.0 + abs(float(y[0]))), 0.0, b)
        count = None if labels is None else int(np.unique(labels).size)
        kind = "cluster" if cluster is not None else (covariance or "hc1")
        return FitResult(b, np.zeros((k, k)), n, k, n - k, kind, count, names, True)

    resid = y - x @ b
    scores = w * resid[:, None]
    if labels is not None:
        meat, g = _cluster_meat(scores, labels, n, k)
        kind = "cluster"
        cluster_count = g
    elif covariance == "classical":
        sigma2 = float(resid @ resid) / (n - k)
        meat = sigma2 * (w.T @ w)
        kind = "classical"
    else:
        meat = (n / (n - k)) * (scores.T @ scores)
        kind = "hc1"
    vcov = bread @ meat @ bread.T
    vcov = 0.5 * (vcov + vcov.T)
    diag = np.diag(vcov).copy()
    tiny = (diag < 0) & (diag > -1e-14 * max(diag.max(initial=0.0), 1.0))
    if tiny.any():
        vcov = vcov.copy()
        vcov[np.diag_indices(k)] = np.where(tiny, 0.0, diag)
    return FitResult(b, vcov, n, k, n - k, kind, cluster_count, names, False)


def ols(y, x, cluster=None, *, names=None, covariance=None) -> FitResult:
    """Ordinary least squares of ``y`` on a design matrix ``x``.

    The covariance is HC1 when ``cluster`` is absent and the one-way cluster
    sandwich when present; pass ``covariance="classical"`` for the
    homoskedastic estimator. A constant regressand is permitted: the fit is
    returned with ``response_constant=True`` and an all-zero covariance, and
    :meth:`FitResult.se` reports the standard errors as undefined.
    """
    return _linear_iv(y, x, None, cluster=cluster, names=names, covariance=covariance)


def first_stage_coefficient(d, z, controls=None, cluster=None) -> FitResult:
    """OLS of a treatment column on the instrument plus controls."""
    x, names = _instrument_design(z, controls)
    return ols(d, x, cluster, names=names)


def _instrument_design(z, controls):
    z = np.asarray(z, dtype=float).reshape(-1)
    cols = [np.ones_like(z), z]
    names = ["const", "z"]
    if controls is not None:
        c = _as_matrix(controls)
        if c.shape[1]:
            cols.append(c)
            names += [f"c{j}" for j in range(c.shape[1])]
    return np.column_stack(cols), tuple(names)


def tsls(y, d, z, controls=None, cluster=None, *, names=None) -> FitResult:
    """Two-stage least squares with one endogenous regressor and one instrument.

    The fitted equation is ``y ~ const + d (+ controls)`` with ``d``
    instrumented by ``z``; the coefficient on ``d`` sits at index 1. With no
    controls it equals the Wald ratio of reduced form to first stage.

    Raises
    ------
    RelevanceError
        If the first-stage coefficient of ``d`` on ``z`` (partialling
        controls) is zero to within ``RELEVANCE_TOLERANCE``; the error
        carries the offending first-stage estimate.
    """
    d = np.asarray(d, dtype=float).reshape(-1)
    fs = first_stage_coefficient(d, z, controls, cluster)
    fs_coef = float(fs.coefficients[1])
    if abs(fs_coef) <= RELEVANCE_TOLERANCE:
        raise RelevanceError(
            f"relevance failure: first-stage coefficient {fs_coef:.3e}",
            first_stage=fs_coef,
        )
    w, w_names = _instrument_design(z, controls)
    x = w.copy()
    x[:, 1] = d
    return _linear_iv(y, x, w, cluster=cluster, names=names or ("const", "d") + w_names[2:])


def stack(equations: Sequence, cluster=None) -> StackedSystem:
    """Stack equations on duplicated data into one block-diagonal system.

    Each equation is ``(response, design)`` or ``(response, design,
    instruments)``; all must share the same row index. Rows duplicated from
    the same original observation (and the same cluster, when ``cluster`` is
    given) form one dependence unit in the stacked covariance.
    """
    if len(equations) < 1:
        raise EstimationError("stack requires at least one equation")
    parsed = []
    for eq in equations:
        resp, design, inst = eq if len(eq) == 3 else (*eq, None)
        parsed.append((np.asarray(resp, dtype=float).reshape(-1), _as_matrix(design),
                       None if inst is None else _as_matrix(inst)))
    n = parsed[0][0].shape[0]
    for resp, design, inst in parsed:
        if resp.shape[0] != n or design.shape[0] != n or (inst is not None and inst.shape[0] != n):
            raise EstimationError("stacked equations have mismatched row counts")

    m = len(parsed)
    widths = [design.shape[1] for _, design, _ in parsed]
    total = sum(widths)
    response = np.concatenate([resp for resp, _, _ in parsed])
    design = np.zeros((m * n, total))
    instruments = np.zeros((m * n, total))
    offsets = []
    col = 0
    names: list[str] = []
    for e, (resp, x, w) in enumerate(parsed):
        rows = slice(e * n, (e + 1) * n)
        design[rows, col:col + x.shape[1]] = x
        instruments[rows, col:col + x.shape[1]] = x if w is None else w
        offsets.append(col)
        names += [f"eq{e}.b{j}" for j in range(x.shape[1])]
        col += x.shape[1]

    base = np.arange(n) if cluster is None else np.asarray(cluster)
    if base.shape[0] != n:
        raise EstimationError("cluster labels have mismatched row count")
    return StackedSystem(
        response=response, design=design, instruments=instruments,
        cluster_labels=np.tile(base, m), equation_offsets=tuple(offsets), names=tuple(names),
        cluster_given=cluster is not None,
    )


def fit_stacked(system: StackedSystem) -> FitResult:
    """Fit a stacked system; coefficients equal the separate fits exactly.

    Without cluster labels the dependence units are the original rows, and
    the fit reports ``covariance_kind="hc1"`` with no cluster count.
    """
    fit = _linear_iv(
        system.response, system.design, system.instruments,
        cluster=system.cluster_labels, names=system.names,
    )
    if system.cluster_given:
        return fit
    return replace(fit, covariance_kind="hc1", cluster_count=None)


def linear_combination(fit: FitResult, weights) -> tuple[float, float | None]:
    """Value and standard error of ``weights @ coefficients``."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != fit.k:
        raise EstimationError(f"expected {fit.k} weights, got {w.shape[0]}")
    value = float(w @ fit.coefficients)
    if fit.response_constant:
        return value, None
    return value, float(np.sqrt(max(w @ fit.vcov @ w, 0.0)))


def wald_joint(fit: FitResult, indices: Sequence[int], null=None) -> TestResult:
    """Wald chi-square test that a coefficient subvector equals ``null``.

    ``statistic = (b - null)' V^{-1} (b - null)`` on the selected subvector,
    with ``dof = len(indices)`` and the p-value from the chi-square upper
    tail.

    Raises
    ------
    DegenerateTestError
        If the covariance submatrix is singular, as happens when a stacked
        regressand is constant.
    """
    idx = list(indices)
    if not idx:
        raise DegenerateTestError("degenerate joint test: no testable coefficients")
    b = fit.coefficients[idx].astype(float)
    if null is not None:
        b = b - np.asarray(null, dtype=float).reshape(-1)
    v = fit.vcov[np.ix_(idx, idx)]
    eig = np.linalg.eigvalsh(v)
    if eig[-1] <= 0.0 or eig[0] < 1e-12 * eig[-1]:
        raise DegenerateTestError("degenerate joint test: singular covariance submatrix")
    statistic = float(b @ np.linalg.solve(v, b))
    statistic = max(statistic, 0.0)
    dof = len(idx)
    return TestResult(statistic, dof, float(stats.chi2.sf(statistic, dof)), "wald-two-sided")


def one_sided_negativity(estimate: float, se: float | None) -> TestResult | None:
    """Normal test of H0: quantity >= 0 against the one-sided alternative < 0.

    Returns None when the standard error is undefined (degenerate fit). An
    estimate of exactly zero sits at the boundary of the null and yields
    p = 0.5.
    """
    if se is None:
        return None
    if se == 0.0:
        p = 1.0 if estimate >= 0 else 0.0
        return TestResult(float("-inf") if estimate < 0 else 0.0, 1, p, "one-sided-negativity")
    t = estimate / se
    return TestResult(float(t), 1, float(stats.norm.cdf(t)), "one-sided-negativity")
