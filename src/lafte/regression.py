"""Least-squares fitting with sandwich covariances.

Everything here is a pure function of its inputs and needs numpy only. The
single workhorse fits each of the ``m`` columns ``y_r`` of an ``n x m``
response on one design ``W``, ``b_r = (W'W)^{-1} W'y_r``, with the joint
sandwich covariance ``B (c S'S) B'``:

``B``
    Block-diagonal, with the bread ``(W'W)^{-1}`` once per response.
``S``
    The score sums ``W' e_r`` of every response side by side, one row per
    cluster; without clusters every row is its own unit.
``c``
    ``(G/(G-1)) * ((N-1)/(N-K))`` with ``G`` units, ``N = m*n`` stacked rows
    and ``K = m*k`` coefficients. For one response without clusters this is
    the HC1 factor ``n / (n - k)``.

For ``m > 1`` this equals stacking the ``m`` equations block-diagonally on
duplicated data, with the copies of one observation (or of one cluster) as
one dependence unit, but the ``(m*n) x K`` stacked matrices are never built.
A just-identified IV slope on instruments ``W`` is a ratio of two such
slopes, and its covariance a linear map of theirs (``estimands.slopes``).

The fit has one rank check, one bread and one multi-column solve. The
design and the responses are read a block of rows at a time, twice: in row
order for ``W'W``, ``W'Y`` and each column's range, then in cluster order
for ``S'S``, so no ``n x K`` array of scores is ever held. A design or a
response given as :class:`Responses` builds each block's rows on demand, so
that no ``n x k`` design and no ``n x m`` response is held either (the
table fit, ``estimands._table_fit``, gives both so).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .data import _label_codes
from .exceptions import DegenerateTestError, EstimationError, RankDeficientError

# A pivot below this fraction of the largest pivot marks a collinear column.
RANK_TOLERANCE = 1e-10


class FitResult(NamedTuple):
    """Coefficients and covariance from one linear (IV) fit.

    ``response_min`` and ``response_max`` hold the range of each response
    column.
    """

    coefficients: np.ndarray
    vcov: np.ndarray
    n: int
    k: int
    dof: int
    cluster_count: int | None
    names: tuple[str, ...]
    response_min: np.ndarray
    response_max: np.ndarray

    @property
    def covariance_kind(self) -> str:
        """``"hc1"`` without clusters, ``"cluster"`` with them."""
        return "hc1" if self.cluster_count is None else "cluster"

    @property
    def response_constant(self) -> bool:
        """Whether every response is one constant: the covariance is then zero."""
        return bool(self.response_min.min() == self.response_max.max())


class TestResult(NamedTuple):
    """Outcome of a hypothesis test."""

    statistic: float
    dof: int
    p_value: float
    kind: str


@dataclass(frozen=True)
class Responses:
    """An ``n x m`` response or design whose rows are built when read: like
    an array, ``responses[rows]`` is its rows ``rows`` (a slice or an index
    array).

    ``np.asarray(responses)`` builds all ``n`` rows at once; the fit never
    does.
    """

    shape: tuple[int, int]
    build: Callable[[slice | np.ndarray], np.ndarray]

    def __getitem__(self, rows) -> np.ndarray:
        return self.build(rows)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        values = self.build(slice(None))
        return values if dtype is None else values.astype(dtype, copy=False)


def _as_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    return x


def _pivoted_qr_diag(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``|diag R|`` and the column order of the Householder QR of ``r`` with
    column pivoting (largest remaining norm first, the first on ties).

    Pivots and ``|diag R|`` depend only on ``r'r``, so ``r`` may be the ``R``
    of an unpivoted QR of the matrix in question.
    """
    a = r.copy()
    k = a.shape[1]
    piv = np.arange(k)
    diag = np.zeros(k)
    for j in range(k):
        rest = a[j:, j:]
        p = j + int(np.argmax(np.einsum("ij,ij->j", rest, rest)))
        a[:, [j, p]] = a[:, [p, j]]
        piv[[j, p]] = piv[[p, j]]
        v = a[j:, j].copy()
        diag[j] = np.linalg.norm(v)
        if diag[j] == 0.0:
            break
        v[0] += math.copysign(diag[j], v[0])
        v /= np.linalg.norm(v)
        a[j:, j:] -= 2.0 * np.outer(v, v @ a[j:, j:])
    return diag, piv


def _check_rank(r: np.ndarray, names: Sequence[str]) -> None:
    """Rank check of the design whose R factor is ``r``: a column is
    collinear when its pivot falls below ``RANK_TOLERANCE`` times the
    largest, and the first such pivot names it. The message gives that
    ratio: a full-rank design whose columns differ in scale by about
    ``1/sqrt(RANK_TOLERANCE)`` or more (a control whose mean is 1e5 times
    its SD, say) falls below it too, and names the intercept."""
    diag, piv = _pivoted_qr_diag(r)
    below = np.nonzero((diag < RANK_TOLERANCE * diag[0]) | (diag[0] == 0.0))[0]
    if below.size:
        col = int(piv[below[0]])
        name = names[col] if col < len(names) else f"column {col}"
        ratio = diag[below[0]] / diag[0] if diag[0] else 0.0
        raise RankDeficientError(
            f"design matrix is rank deficient: collinear column '{name}' (pivot ratio "
            f"{ratio:.3g}, below the tolerance {RANK_TOLERANCE:g})")


# Rows per block of the score sums; a block splits no cluster.
_CHUNK_ROWS = 1 << 14


def tidy_vcov(vcov: np.ndarray) -> np.ndarray:
    """``vcov`` symmetrised, with negative rounding dust on its diagonal set to 0."""
    vcov = 0.5 * (vcov + vcov.T)
    diag = np.diag(vcov).copy()
    tiny = (diag < 0) & (diag > -1e-14 * max(diag.max(initial=0.0), 1.0))
    if tiny.any():
        vcov[np.diag_indices(vcov.shape[0])] = np.where(tiny, 0.0, diag)
    return vcov


def _block_meat(y, w, b, rows, local=None) -> np.ndarray:
    """``S'S`` of one block of ``rows``, where coefficient ``j`` of response ``r``
    scores ``W[:, j]`` times the residual of ``r``: each row's scores are its own
    sums, or with ``local`` cluster codes (0, 1, ... in row order) each cluster's.
    ``S`` is filled a column at a time, so it is held column-major."""
    k = w.shape[1]
    w_rows, y_rows = w[rows], y[rows]
    units = len(w_rows) if local is None else local[-1] + 1
    sums = np.empty((units, b.size), order="F")
    for r in range(y.shape[1]):
        e = y_rows[:, r] - w_rows @ b[r * k:(r + 1) * k]
        for j in range(k):
            score = w_rows[:, j] * e
            sums[:, r * k + j] = score if local is None else np.bincount(local, weights=score)
    return sums.T @ sums


def _meat(y, w, b, codes, n) -> np.ndarray:
    """``S'S`` over ``n`` rows, summed over blocks of about ``_CHUNK_ROWS``
    rows. With cluster ``codes``, the rows are taken in cluster order (stably,
    so each cluster sums its rows in row order) and a block ends at a cluster
    boundary; with ``codes`` None, a block is a run of rows and each row's
    scores are its own sums."""
    stops = np.append(np.arange(_CHUNK_ROWS, n, _CHUNK_ROWS), n)
    if codes is not None:
        order = np.argsort(codes, kind="stable")
        ends = np.cumsum(np.bincount(codes))
        stops = sorted(set(ends[np.searchsorted(ends, stops)]))
    meat, start = 0.0, 0
    for stop in stops:
        if codes is None:
            meat = meat + _block_meat(y, w, b, slice(start, stop))
        else:
            rows = order[start:stop]
            meat = meat + _block_meat(y, w, b, rows, codes[rows] - codes[rows[0]])
        start = stop
    return meat


def _row_pass(y, w, n):
    """The pass in row order, over runs of ``_CHUNK_ROWS`` rows: the R factor
    of ``W`` (one QR of each run stacked under the R so far), ``W'W``,
    ``W'Y``, and the smallest and largest value of each response column."""
    k = w.shape[1]
    r = np.empty((0, k))
    wtw = np.zeros((k, k))
    wty = np.zeros((k, y.shape[1]))
    lo = np.full(y.shape[1], np.inf)
    hi = -lo
    for start in range(0, n, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        w_rows, y_rows = w[rows], y[rows]
        r = np.linalg.qr(np.vstack([r, w_rows]), mode="r")
        wtw += w_rows.T @ w_rows
        # One column at a time, as the fit of that column alone sums it: a
        # matrix product sums in another order, which moves slopes of
        # large-mean responses by ~1e-14 relative.
        for col in range(y.shape[1]):
            wty[:, col] += w_rows.T @ y_rows[:, col]
        np.minimum(lo, y_rows.min(0), out=lo)
        np.maximum(hi, y_rows.max(0), out=hi)
    return r, wtw, wty, lo, hi


def _equation_names(m: int, names: Sequence[str]) -> tuple[str, ...]:
    """The names of a joint fit of ``m`` responses on ``names``: ``eq<e>.<name>``."""
    return tuple(f"eq{e}.{name}" for e in range(m) for name in names)


def _constant_zeros(b: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Slopes ``b`` of responses all equal to ``lo[0]``, float dust made exactly 0."""
    return np.where(np.abs(b) <= 1e-10 * (1.0 + abs(float(lo[0]))), 0.0, b)


def _check_finite(what: str, a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise EstimationError(f"numeric overflow or a non-finite input: the fit's {what} "
                              "are not finite; drop NaN or infinite values, or rescale "
                              "the variables")


def _fit(y, w, clusters, names) -> FitResult:
    """Joint fit of each column of the ``n x m`` response ``y`` on the design
    ``w``, and their cross-equation sandwich; ``names`` name the columns of
    ``w``, and ``clusters`` is None or each row's cluster code and their
    number (``data._label_codes``).

    ``y`` and ``w`` are arrays or :class:`Responses`, read a block of rows at
    a time: in row order for ``W'W``, ``W'Y`` and the column ranges, then in
    cluster order for the score sums. A fit whose coefficients or covariance
    are not finite, from overflow or from a NaN or infinite input, raises
    :class:`EstimationError`.
    """
    (n, m), k = y.shape, w.shape[1]
    big_n, big_k = m * n, m * k
    if big_n <= big_k:
        raise EstimationError(f"{big_n} rows cannot identify {big_k} parameters")
    names = tuple(names) if names else tuple(f"x{j}" for j in range(k))
    with np.errstate(over="ignore", invalid="ignore"):
        r, wtw, wty, lo, hi = _row_pass(y, w, n)
        _check_rank(r, names)
        try:
            inv = np.linalg.inv(wtw)
        except np.linalg.LinAlgError:
            raise RankDeficientError("design cross-moment matrix is singular") from None
        b = (inv @ wty).T.ravel()
        bread = np.zeros((big_k, big_k))
        for col in range(0, big_k, k):
            bread[col:col + k, col:col + k] = inv
        _check_finite("coefficients", b)

        codes, g = (None, n) if clusters is None else clusters
        common = (big_n, big_k, big_n - big_k, None if clusters is None else g, names)
        if hi.max() == lo.min():
            return FitResult(_constant_zeros(b, lo), np.zeros((big_k, big_k)), *common, lo, hi)

        if g < 2:
            raise EstimationError("cluster covariance requires at least 2 clusters")
        meat = _meat(y, w, b, codes, n)
        meat *= (g / (g - 1.0)) * ((big_n - 1.0) / (big_n - big_k))
        vcov = tidy_vcov(bread @ meat @ bread.T)
    _check_finite("covariances", vcov)
    return FitResult(b, vcov, *common, lo, hi)


def ols(y, x, cluster=None, *, names=None) -> FitResult:
    """Ordinary least squares of ``y`` on a design matrix ``x``.

    The covariance is HC1 when ``cluster`` is absent and the one-way cluster
    sandwich when present. ``cluster`` holds a label per row, read by the rule
    of ``from_arrays`` (``data._label_codes``): a None, NaN or blank label,
    labels that do not order, or a length other than ``y``'s raise
    :class:`EstimationError`, naming the row of a missing label. A constant
    regressand is permitted: the fit's ``response_constant`` is true, its
    covariance all zero, and :meth:`FitResult.se` reports the standard
    errors as undefined.

    A 2-D ``y`` fits each of its ``m`` columns on ``x``, jointly: the
    covariance is that of the ``m`` equations stacked on duplicated rows.
    Its coefficients are equation-major and named ``eq<e>.<name>``, and it
    is degenerate only when every column is the same constant. ``y`` and
    ``x`` may be :class:`Responses`, whose rows are built a block at a time.

    ``x`` is fit as given: centre a column whose mean is large against its
    spread first (as ``estimands`` does the controls), or a full-rank design
    can fail the rank check (:func:`_check_rank`).
    """
    if not isinstance(x, Responses):
        x = _as_matrix(x)
    single = False
    if not isinstance(y, Responses):
        y = np.asarray(y, dtype=float)
        single = y.ndim != 2
        if single:
            y = y.reshape(-1, 1)
    if y.shape[0] != x.shape[0]:
        raise EstimationError("response and design row counts differ")
    clusters = None if cluster is None else _label_codes(cluster, EstimationError)
    if clusters is not None and clusters[0].shape[0] != y.shape[0]:
        raise EstimationError("cluster and response row counts differ")
    fit = _fit(y, x, clusters, names)
    return fit if single else fit._replace(names=_equation_names(y.shape[1], fit.names))


def linear_combination(fit: FitResult, weights) -> tuple[float, float | None]:
    """Value and standard error of ``weights @ coefficients``."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != fit.k:
        raise EstimationError(f"expected {fit.k} weights, got {w.shape[0]}")
    value = float(w @ fit.coefficients)
    if fit.response_constant:
        return value, None
    return value, float(np.sqrt(max(w @ fit.vcov @ w, 0.0)))


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail ``P[chi2(dof) > x]`` for a positive integer ``dof``.

    Closed forms: with ``h = x/2``, the tail grows from ``erfc(sqrt(h))``
    (dof 1) or 0 (dof 0) by ``h^(v/2-1) e^-h / Gamma(v/2)`` for each
    ``v = dof, dof-2, ...`` above it.
    """
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    h = 0.5 * x
    if dof % 2:
        total, term, a = math.erfc(math.sqrt(h)), 2.0 * math.sqrt(h / math.pi) * math.exp(-h), 1.5
    else:
        total, term, a = 0.0, math.exp(-h), 1.0
    for _ in range(dof // 2):
        total += term
        term *= h / a
        a += 1.0
    return total


def _normal_cdf(t: float) -> float:
    """Standard normal distribution function."""
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


def wald_joint(fit: FitResult, indices: Sequence[int]) -> TestResult:
    """Wald chi-square test that a coefficient subvector is zero.

    ``statistic = b' V^{-1} b`` on the selected subvector, with
    ``dof = len(indices)`` and the p-value from the chi-square upper tail.

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
    v = fit.vcov[np.ix_(idx, idx)]
    eig = np.linalg.eigvalsh(v)
    if eig[-1] <= 0.0 or eig[0] < 1e-12 * eig[-1]:
        raise DegenerateTestError("degenerate joint test: singular covariance submatrix")
    statistic = float(b @ np.linalg.solve(v, b))
    statistic = max(statistic, 0.0)
    dof = len(idx)
    return TestResult(statistic, dof, _chi2_sf(statistic, dof), "wald-two-sided")


def one_sided_negativity(estimate: float, se: float | None) -> float | None:
    """p-value of the normal test of H0: quantity >= 0 against the one-sided
    alternative < 0.

    Returns None when the standard error is undefined (degenerate fit). An
    estimate of exactly zero sits at the boundary of the null and yields
    p = 0.5; with a zero standard error, p is 1 for an estimate of at least
    zero and 0 below it.
    """
    if se is None:
        return None
    if se == 0.0:
        return 1.0 if estimate >= 0 else 0.0
    return _normal_cdf(estimate / se)
