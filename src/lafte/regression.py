"""Least-squares and instrumental-variable fitting with sandwich covariances.

Everything here is a pure function of its inputs and needs numpy only. The
single workhorse fits ``m`` just-identified linear IV equations on one row
index, ``b_e = (W_e'X_e)^{-1} W_e'y_e`` (ordinary least squares is the
special case ``W = X``), with the joint sandwich covariance
``B (c S'S) B'``:

``B``
    Block-diagonal of the per-equation breads ``(W_e'X_e)^{-1}``.
``S``
    The score sums ``W_e' e_e`` of every equation side by side, one row per
    cluster; without clusters every row is its own unit.
``c``
    ``(G/(G-1)) * ((N-1)/(N-K))`` with ``G`` units, ``N = m*n`` stacked rows
    and ``K`` coefficients in all. For one equation without clusters this is
    the HC1 factor ``n / (n - k)``.

For ``m > 1`` this equals stacking the equations block-diagonally on
duplicated data, with the copies of one observation (or of one cluster) as
one dependence unit, but the ``(m*n) x K`` stacked matrices are never built.

:func:`ols` of a 2-D ``n x m`` response fits its ``m`` columns on one ``X``
as ``m`` such equations, with one rank check, one bread ``(X'X)^{-1}`` and
one multi-column solve. The responses are read a block of rows at a time,
twice: in row order for ``W'Y`` and each column's range, then in cluster
order for ``S'S``, so no ``n x K`` array of scores is ever held. A response
given as :class:`Responses` builds each block's rows on demand, so no
``n x m`` array of responses is held either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

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
    """Coefficients and covariance from one linear (IV) fit.

    ``response_min`` and ``response_max`` hold the range of each response
    column, one entry per column of each equation in turn.
    """

    coefficients: np.ndarray
    vcov: np.ndarray
    n: int
    k: int
    dof: int
    covariance_kind: str
    cluster_count: int | None = None
    names: tuple[str, ...] = ()
    response_constant: bool = False
    response_min: np.ndarray | None = None
    response_max: np.ndarray | None = None

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
    """Equations ``(response, design, instruments)`` on one row index, fit jointly.

    ``cluster`` holds one label per original row, or None when the rows
    themselves are the dependence units.
    """

    equations: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    cluster: np.ndarray | None
    equation_offsets: tuple[int, ...]
    names: tuple[str, ...]

    def coef_index(self, equation: int, j: int) -> int:
        """Index of coefficient ``j`` of ``equation`` in the joint vector."""
        return self.equation_offsets[equation] + j

    # The stacked arrays on duplicated rows, assembled on demand; the fit
    # never reads them.
    @property
    def response(self) -> np.ndarray:
        return np.concatenate([y for y, _, _ in self.equations])

    @property
    def design(self) -> np.ndarray:
        return self._block_diagonal(1)

    @property
    def instruments(self) -> np.ndarray:
        return self._block_diagonal(2)

    @property
    def cluster_labels(self) -> np.ndarray:
        n = self.equations[0][0].shape[0]
        return np.tile(np.arange(n) if self.cluster is None else self.cluster,
                       len(self.equations))

    def _block_diagonal(self, part: int) -> np.ndarray:
        n = self.equations[0][0].shape[0]
        out = np.zeros((len(self.equations) * n, len(self.names)))
        for e, (eq, col) in enumerate(zip(self.equations, self.equation_offsets)):
            out[e * n:(e + 1) * n, col:col + eq[part].shape[1]] = eq[part]
        return out


@dataclass(frozen=True)
class Responses:
    """An ``n x m`` response whose rows are built when read: like an array,
    ``responses[rows]`` is its rows ``rows`` (a slice or an index array).

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


def _equation(y, x, w=None):
    y = np.asarray(y, dtype=float).reshape(-1)
    x = _as_matrix(x)
    w = x if w is None else _as_matrix(w)
    if y.shape[0] != x.shape[0] or w.shape != x.shape:
        raise EstimationError("response, design, and instrument row counts differ")
    return y, x, w


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


def _check_rank(blocks: Sequence[np.ndarray], names: Sequence[str], what: str) -> None:
    """Rank check of the block-diagonal matrix whose blocks have R factors ``blocks``.

    A column is collinear when its pivot falls below ``RANK_TOLERANCE`` times
    the largest pivot over all blocks; the one named has the largest such
    pivot, as a pivoted QR of the whole matrix would find it first.
    """
    pivots = [_pivoted_qr_diag(r) for r in blocks]
    top = max(diag[0] for diag, _ in pivots)
    bad = None
    offset = 0
    for r, (diag, piv) in zip(blocks, pivots):
        below = np.nonzero((diag < RANK_TOLERANCE * top) | (top == 0.0))[0]
        if below.size and (bad is None or diag[below[0]] > bad[0]):
            bad = (diag[below[0]], offset + int(piv[below[0]]))
        offset += r.shape[1]
    if bad is not None:
        col = bad[1]
        name = names[col] if col < len(names) else f"column {col}"
        raise RankDeficientError(f"{what} matrix is rank deficient: collinear column '{name}'")


def _cluster_codes(labels) -> tuple[np.ndarray, int]:
    """Codes 0..G-1 in sorted-label order, and G; dense integer codes pass through."""
    labels = np.asarray(labels)
    if (labels.dtype.kind == "i" and labels.size and labels.min() >= 0
            and labels.max() < labels.size and np.bincount(labels).all()):
        return labels, int(labels.max()) + 1
    _, codes = np.unique(labels, return_inverse=True)
    return codes, int(codes.max()) + 1


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


def _scores(equations, b, rows):
    """Each coefficient's score column on ``rows``: one instrument of its
    equation times the residual of its response."""
    col = 0
    for y, x, w in equations:
        k = x.shape[1]
        x_rows = x[rows]
        w_rows = x_rows if w is x else w[rows]
        y_rows = y[rows]
        for r in range(y.shape[1]):
            e = y_rows[:, r] - x_rows @ b[col:col + k]
            col += k
            yield from (w_rows[:, j] * e for j in range(k))


def _block_meat(equations, b, rows, local=None) -> np.ndarray:
    """``S'S`` of one block of ``rows``: each row's scores are its own sums,
    or with ``local`` cluster codes (0, 1, ... in row order) each cluster's."""
    units = rows.stop - rows.start if local is None else local[-1] + 1
    sums = np.empty((units, b.size))
    for j, score in enumerate(_scores(equations, b, rows)):
        sums[:, j] = score if local is None else np.bincount(local, weights=score)
    return sums.T @ sums


def _meat(equations, b, codes, n) -> np.ndarray:
    """``S'S`` over ``n`` rows, summed over blocks of about ``_CHUNK_ROWS``
    rows. With cluster ``codes``, the rows are taken in cluster order (stably,
    so each cluster sums its rows in row order) and a block ends at a cluster
    boundary; with ``codes`` None, a block is a run of rows and each row's
    scores are its own sums."""
    stops = np.append(np.arange(_CHUNK_ROWS, n, _CHUNK_ROWS), n)
    if codes is not None:
        order = np.argsort(codes, kind="stable")
        ends = np.cumsum(np.bincount(codes))
        stops = np.unique(ends[np.searchsorted(ends, stops)])
    meat, start = 0.0, 0
    for stop in stops:
        if codes is None:
            meat = meat + _block_meat(equations, b, slice(start, stop))
        else:
            rows = order[start:stop]
            meat = meat + _block_meat(equations, b, rows, codes[rows] - codes[rows[0]])
        start = stop
    return meat


def _add_block(y_rows, w_rows, total, low, high) -> None:
    """Add one block's ``W'Y`` to ``total``, and widen ``low`` and ``high``
    to the range of each of its response columns."""
    # One column at a time, as the fit of that column alone sums it: a
    # matrix product sums in another order, which moves slopes of
    # large-mean responses by ~1e-14 relative.
    for r in range(y_rows.shape[1]):
        total[:, r] += w_rows.T @ y_rows[:, r]
    np.minimum(low, y_rows.min(0), out=low)
    np.maximum(high, y_rows.max(0), out=high)


def _row_pass(equations, n):
    """The pass in row order, over runs of ``_CHUNK_ROWS`` rows: the R factor
    of each distinct design and instrument matrix (one QR of each run stacked
    under the R so far), each equation's ``W'Y``, and the smallest and largest
    value of each response column."""
    matrices = {id(a): a for eq in equations for a in eq[1:]}
    factors = {key: np.empty((0, a.shape[1])) for key, a in matrices.items()}
    wty = [np.zeros((w.shape[1], y.shape[1])) for y, _, w in equations]
    lo = np.full(sum(y.shape[1] for y, _, _ in equations), np.inf)
    hi = -lo
    for start in range(0, n, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        for key, a in matrices.items():
            factors[key] = np.linalg.qr(np.vstack([factors[key], a[rows]]), mode="r")
        col = 0
        for (y, _, w), total in zip(equations, wty):
            cols = slice(col, col + y.shape[1])
            _add_block(y[rows], w[rows], total, lo[cols], hi[cols])
            col = cols.stop
    return factors, wty, lo, hi


def _check_finite(what: str, a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise EstimationError(f"numeric overflow or a non-finite input: the fit's {what} "
                              "are not finite; drop NaN or infinite values, or rescale "
                              "the variables")


def _fit(equations, cluster, names) -> FitResult:
    """Joint fit of parsed equations ``(Y, X, W)``, one per column of ``Y``, and
    their cross-equation sandwich; ``names`` name the columns of the designs.

    ``Y`` is an array or :class:`Responses`, read a block of rows at a time:
    in row order for ``W'Y`` and the column ranges, then in cluster order for
    the score sums. A fit whose coefficients or covariance are not finite,
    from overflow or from a NaN or infinite input, raises
    :class:`EstimationError`.
    """
    equations = [(y if isinstance(y, Responses) else _as_matrix(y), x, w)
                 for y, x, w in equations]
    n = equations[0][0].shape[0]
    big_n = sum(y.shape[1] for y, _, _ in equations) * n
    big_k = sum(y.shape[1] * x.shape[1] for y, x, _ in equations)
    if big_n <= big_k:
        raise EstimationError(f"{big_n} rows cannot identify {big_k} parameters")
    names = tuple(names) if names else tuple(
        f"x{j}" for j in range(sum(x.shape[1] for _, x, _ in equations)))
    with np.errstate(over="ignore", invalid="ignore"):
        factors, wty, lo, hi = _row_pass(equations, n)
        _check_rank([factors[id(x)] for _, x, _ in equations], names, "design")
        _check_rank([factors[id(w)] for _, _, w in equations], names, "instrument")
        bread = np.zeros((big_k, big_k))
        b = np.empty(big_k)
        col = 0
        for (y, x, w), moments in zip(equations, wty):
            try:
                inv = np.linalg.inv(w.T @ x)
            except np.linalg.LinAlgError:
                raise RankDeficientError(
                    "instrument/design cross-moment matrix is singular") from None
            k, m = x.shape[1], y.shape[1]
            b[col:col + k * m] = (inv @ moments).T.ravel()
            for _ in range(m):
                bread[col:col + k, col:col + k] = inv
                col += k
        _check_finite("coefficients", b)

        codes, g = (None, n) if cluster is None else _cluster_codes(cluster)
        kind, count = ("hc1", None) if cluster is None else ("cluster", g)
        if hi.max() == lo.min():
            # Exact algebra gives a zero slope on every non-constant column;
            # clean float dust so the reported estimate is exactly 0.
            b = np.where(np.abs(b) <= 1e-10 * (1.0 + abs(float(lo[0]))), 0.0, b)
            return FitResult(b, np.zeros((big_k, big_k)), big_n, big_k, big_n - big_k,
                             kind, count, names, True, lo, hi)

        if g < 2:
            raise EstimationError("cluster covariance requires at least 2 clusters")
        meat = _meat(equations, b, codes, n)
        meat *= (g / (g - 1.0)) * ((big_n - 1.0) / (big_n - big_k))
        vcov = tidy_vcov(bread @ meat @ bread.T)
    _check_finite("covariances", vcov)
    return FitResult(b, vcov, big_n, big_k, big_n - big_k, kind, count, names, False, lo, hi)


def ols(y, x, cluster=None, *, names=None) -> FitResult:
    """Ordinary least squares of ``y`` on a design matrix ``x``.

    The covariance is HC1 when ``cluster`` is absent and the one-way cluster
    sandwich when present. A constant regressand is permitted: the fit is
    returned with ``response_constant=True`` and an all-zero covariance, and
    :meth:`FitResult.se` reports the standard errors as undefined.

    A 2-D ``y`` fits each of its ``m`` columns on ``x``: the result equals
    ``fit_stacked(stack([(y[:, e], x) for e in range(m)], cluster))``, with
    coefficients equation-major and named ``eq<e>.<name>``, and is
    degenerate only when every column is the same constant. ``y`` may be
    :class:`Responses`, whose rows are built a block at a time.
    """
    if not isinstance(y, Responses):
        y = np.asarray(y, dtype=float)
        if y.ndim != 2:
            return _fit([_equation(y, x)], cluster, names)
    x = _as_matrix(x)
    if y.shape[0] != x.shape[0]:
        raise EstimationError("response, design, and instrument row counts differ")
    fit = _fit([(y, x, x)], cluster, names)
    return replace(fit, names=tuple(f"eq{e}.{name}" for e in range(y.shape[1])
                                    for name in fit.names))


def instrument_design(z, controls=None, control_names=()) -> tuple[np.ndarray, tuple[str, ...]]:
    """The instrument matrix ``W = [1, z, controls]`` and its column names.

    Controls are named by ``control_names``, or ``c0, c1, ...`` without
    them. A table's one fit uses this ``W`` as its design; :func:`tsls`
    uses it as the instruments of an IV fit, whose design is
    :func:`iv_design`.
    """
    z = np.asarray(z).reshape(-1)
    c = np.empty((z.shape[0], 0)) if controls is None else _as_matrix(controls)
    names = ["const", "z"]
    if c.shape[1]:
        names += list(control_names) or [f"c{j}" for j in range(c.shape[1])]
    # Filled in place: no column is held twice.
    w = np.empty((z.shape[0], 2 + c.shape[1]))
    w[:, 0], w[:, 1], w[:, 2:] = 1.0, z, c
    return w, tuple(names)


def iv_design(w: np.ndarray, d) -> np.ndarray:
    """The design of an IV equation: ``W`` with column 1 replaced by the treatment ``d``."""
    x = w.copy()
    x[:, 1] = d
    return x


def tsls(y, d, z, controls=None, cluster=None, *, names=None) -> FitResult:
    """Two-stage least squares with one endogenous regressor and one instrument.

    The fitted equation is ``y ~ const + d (+ controls)`` with ``d``
    instrumented by ``z``; the coefficient on ``d`` sits at index 1. With no
    controls it equals the Wald ratio of reduced form to first stage.
    ``names`` names the coefficients; its entries after the first two also
    name the controls in ``W``, which default to ``c0, c1, ...``.

    Raises
    ------
    RelevanceError
        If the first-stage coefficient of ``d`` on ``z`` (partialling
        controls) is zero to within ``RELEVANCE_TOLERANCE``; the error
        carries the offending first-stage estimate.
    """
    head = tuple(names[:2]) if names else ("const", "d")
    w, w_names = instrument_design(z, controls, tuple(names[2:]) if names else ())
    d, w, _ = _equation(d, w)
    if d.shape[0] <= w.shape[1]:
        raise EstimationError(f"{d.shape[0]} rows cannot identify {w.shape[1]} parameters")
    _check_rank([np.linalg.qr(w, mode="r")], w_names, "instrument")
    # The first stage by the same normal equations an OLS fit of d on W solves.
    fs_coef = float((np.linalg.inv(w.T @ w) @ (w.T @ d))[1])
    if abs(fs_coef) <= RELEVANCE_TOLERANCE:
        raise RelevanceError(
            f"relevance failure: first-stage coefficient {fs_coef:.3e}",
            first_stage=fs_coef,
        )
    return _fit([_equation(y, iv_design(w, d), w)], cluster, head + w_names[2:])


def stack(equations: Sequence, cluster=None) -> StackedSystem:
    """Collect equations on one row index into a system for :func:`fit_stacked`.

    Each equation is ``(response, design)`` or ``(response, design,
    instruments)``; all must share the same row index. The joint fit equals
    stacking the equations block-diagonally on duplicated rows, where the
    copies of one original observation (and of one cluster, when ``cluster``
    is given) form one dependence unit in the covariance.
    """
    if len(equations) < 1:
        raise EstimationError("stack requires at least one equation")
    parsed = tuple(_equation(*eq) for eq in equations)
    n = parsed[0][0].shape[0]
    if any(y.shape[0] != n for y, _, _ in parsed):
        raise EstimationError("stacked equations have mismatched row counts")
    if cluster is not None:
        cluster = np.asarray(cluster)
        if cluster.shape[0] != n:
            raise EstimationError("cluster labels have mismatched row count")
    offsets = tuple(int(o) for o in np.cumsum([0] + [x.shape[1] for _, x, _ in parsed[:-1]]))
    names = tuple(f"eq{e}.b{j}" for e, (_, x, _) in enumerate(parsed)
                  for j in range(x.shape[1]))
    return StackedSystem(parsed, cluster, offsets, names)


def fit_stacked(system: StackedSystem) -> FitResult:
    """Fit a stacked system; coefficients equal the separate fits exactly.

    Without cluster labels the dependence units are the original rows, and
    the fit reports ``covariance_kind="hc1"`` with no cluster count.
    """
    return _fit(system.equations, system.cluster, system.names)


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
    return TestResult(statistic, dof, _chi2_sf(statistic, dof), "wald-two-sided")


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
    return TestResult(float(t), 1, _normal_cdf(t), "one-sided-negativity")
