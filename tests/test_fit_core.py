"""The numpy-only fit core: rank check, p-values and the stack-free sandwich."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lafte import EstimationError, RankDeficientError, fit_stacked, ols, regression, stack
from lafte.regression import RANK_TOLERANCE, _chi2_sf, _normal_cdf

from test_regression import oracle_stacked_iv

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# rank check


def random_design(rng, n, k):
    """Intercept, binary columns, and Gaussian columns scaled 1e-3 .. 1e4."""
    cols = [np.ones(n)]
    for _ in range(k - 1):
        if rng.random() < 0.3:
            cols.append(rng.integers(0, 2, n).astype(float))
        else:
            cols.append(rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 4))
    return np.column_stack(cols)


def inject_dependence(rng, x):
    """Overwrite one column with an exact combination of two or three others."""
    k = x.shape[1]
    target = int(rng.integers(0, k))
    others = rng.choice([j for j in range(k) if j != target],
                        size=min(k - 1, int(rng.integers(2, 4))), replace=False)
    x = x.copy()
    x[:, target] = x[:, others] @ rng.uniform(0.5, 2.0, others.size)
    return x


def named_column(error) -> int:
    return int(re.search(r"'c(\d+)'", str(error)).group(1))


def in_span_of_others(x, j) -> bool:
    rest = np.delete(x, j, axis=1)
    coef = np.linalg.lstsq(rest, x[:, j], rcond=None)[0]
    return np.linalg.norm(x[:, j] - rest @ coef) <= 1e-8 * np.linalg.norm(x[:, j])


def test_full_rank_designs_pass():
    rng = np.random.default_rng(20)
    for _ in range(300):
        n, k = int(rng.integers(30, 120)), int(rng.integers(1, 7))
        x = random_design(rng, n, k)
        fit = ols(rng.standard_normal(n), x)
        assert fit.k == k


def test_injected_dependence_names_a_column_in_the_span_of_the_others():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n, k = int(rng.integers(30, 120)), int(rng.integers(3, 8))
        x = inject_dependence(rng, random_design(rng, n, k))
        with pytest.raises(RankDeficientError, match="design matrix is rank deficient") as info:
            ols(rng.standard_normal(n), x, names=[f"c{j}" for j in range(k)])
        assert in_span_of_others(x, named_column(info.value))


def test_stacked_deficient_block_is_named():
    rng = np.random.default_rng(22)
    n = 80
    blocks = [random_design(rng, n, k) for k in (3, 4, 2)]
    blocks[1] = inject_dependence(rng, blocks[1])
    system = stack([(rng.standard_normal(n), x) for x in blocks])
    with pytest.raises(RankDeficientError) as info:
        fit_stacked(system)
    j = int(re.search(r"'eq1\.b(\d)'", str(info.value)).group(1))
    assert in_span_of_others(blocks[1], j)


def test_stacked_rank_check_names_the_largest_pivot_below_tolerance():
    # an exact dependence in block 0 and a near one (pivot ratio ~1e-13) in
    # block 2: a pivoted QR of the block-diagonal matrix reaches block 2 first
    rng = np.random.default_rng(26)
    n = 80
    blocks = [random_design(rng, n, 3) for _ in range(3)]
    blocks[0][:, 2] = 2.0 * blocks[0][:, 1]
    blocks[2][:, 2] = blocks[2][:, 1] * (1.0 + 1e-13 * rng.standard_normal(n))
    with pytest.raises(RankDeficientError, match=r"'eq2\.b[12]'"):
        fit_stacked(stack([(rng.standard_normal(n), x) for x in blocks]))


def old_rule_rank_deficient(x) -> bool:
    """The pivoted-QR rule as computed on the full design by scipy."""
    import scipy.linalg

    r = scipy.linalg.qr(x, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(r))
    return bool(diag[0] == 0.0 or (diag < RANK_TOLERANCE * diag[0]).any())


def test_rank_detection_matches_scipy_pivoted_qr():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(23)
    deficient = 0
    for i in range(2000):
        n, k = int(rng.integers(20, 80)), int(rng.integers(2, 8))
        x = random_design(rng, n, k)
        if i % 2:
            x = inject_dependence(rng, x)
        try:
            ols(np.arange(n, dtype=float), x)
            raised = False
        except RankDeficientError:
            raised = True
        assert raised == old_rule_rank_deficient(x)
        deficient += raised
    assert deficient >= 900


# ---------------------------------------------------------------------------
# p-values


def test_chi2_sf_closed_forms():
    for x in (1e-8, 0.3, 2.0, 17.5, 300.0, 1400.0):
        assert _chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)
    assert _chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, rel=1e-12)
    assert _chi2_sf(0.0, 3) == 1.0 and _chi2_sf(math.inf, 3) == 0.0
    assert _normal_cdf(0.0) == 0.5
    assert _normal_cdf(-1.959963984540054) == pytest.approx(0.025, rel=1e-12)


def test_p_values_match_scipy():
    stats = pytest.importorskip("scipy.stats")
    xs = np.geomspace(1e-8, 1400.0, 3000)
    for dof in range(1, 7):
        ours = np.array([_chi2_sf(float(x), dof) for x in xs])
        np.testing.assert_allclose(ours, stats.chi2.sf(xs, dof), rtol=1e-12, atol=0)
    ts = np.linspace(-37.0, 8.0, 3001)
    ours = np.array([_normal_cdf(float(t)) for t in ts])
    np.testing.assert_allclose(ours, stats.norm.cdf(ts), rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# the stack-free engine


def iv_system(rng, n, widths, cluster_sizes):
    """Equations ``(y, X, W)`` with ``X = W`` except an endogenous column 1."""
    z = rng.integers(0, 2, n).astype(float)
    equations = []
    for k in widths:
        w = np.column_stack([np.ones(n), z] + [rng.standard_normal(n) for _ in range(k - 2)])
        x = w.copy()
        x[:, 1] = (rng.random(n) < 0.3 + 0.4 * z).astype(float)
        y = 1.5 * x[:, 1] + x[:, 2:].sum(axis=1) + rng.standard_normal(n)
        equations.append((y, x, w))
    labels = np.repeat(np.arange(len(cluster_sizes)), cluster_sizes)
    return equations, labels


@pytest.mark.parametrize("widths", [(4, 4, 4), (2, 5, 3)])
def test_fit_stacked_equals_stacking_oracle(widths):
    rng = np.random.default_rng(sum(widths))
    sizes = rng.integers(1, 7, 120)
    equations, labels = iv_system(rng, int(sizes.sum()), widths, sizes)
    for cluster in (labels, None):
        fit = fit_stacked(stack(equations, cluster))
        units = np.arange(labels.size) if cluster is None else labels
        b, v = oracle_stacked_iv(equations, units)
        np.testing.assert_allclose(fit.coefficients, b, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(fit.vcov, v, rtol=1e-10, atol=1e-16)
        assert fit.cluster_count == (None if cluster is None else sizes.size)


def test_stacked_properties_equal_block_diagonal_arrays():
    rng = np.random.default_rng(24)
    n = 30
    equations, labels = iv_system(rng, n, (3, 2), [3] * 10)
    equations[1] = equations[1][:2]  # an OLS equation: instruments are the design
    for cluster, units in ((None, np.arange(n)), (labels, labels)):
        system = stack(equations, cluster)
        design = np.zeros((2 * n, 5))
        instruments = np.zeros((2 * n, 5))
        design[:n, :3], instruments[:n, :3] = equations[0][1], equations[0][2]
        design[n:, 3:] = instruments[n:, 3:] = equations[1][1]
        np.testing.assert_array_equal(system.design, design)
        np.testing.assert_array_equal(system.instruments, instruments)
        np.testing.assert_array_equal(
            system.response, np.concatenate([equations[0][0], equations[1][0]]))
        assert system.cluster_labels.dtype == units.dtype
        np.testing.assert_array_equal(system.cluster_labels, np.tile(units, 2))


def test_stacked_fit_never_builds_the_stacked_rows():
    n, widths = 200_000, (4, 4, 4)
    stacked_bytes = 3 * n * sum(widths) * 8  # one (m*n) x K float array: 57.6 MB
    rng = np.random.default_rng(25)
    equations, labels = iv_system(rng, n, widths, [4] * (n // 4))
    for cluster in (labels, None):
        tracemalloc.start()
        try:
            fit_stacked(stack(equations, cluster))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stacked_bytes


def test_integer_labels_with_gaps_equal_dense_codes():
    rng = np.random.default_rng(27)
    n = 90
    x = random_design(rng, n, 3)
    y = rng.standard_normal(n)
    codes = np.repeat(np.arange(30), 3)
    dense = ols(y, x, codes)
    gapped = ols(y, x, 3 * codes + 1)
    assert dense.cluster_count == gapped.cluster_count == 30
    assert dense.vcov.tobytes() == gapped.vcov.tobytes()


def test_cli_import_leaves_scipy_out():
    code = "import sys, lafte.cli; sys.exit('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0


# ---------------------------------------------------------------------------
# many responses on one design


@pytest.mark.parametrize("controls", [0, 2])
@pytest.mark.parametrize("clustered", [False, True])
def test_2d_ols_equals_stacked_equations(controls, clustered):
    rng = np.random.default_rng(30 + controls + clustered)
    sizes = rng.integers(1, 6, 150)
    n = int(sizes.sum())
    x = np.column_stack([np.ones(n), rng.integers(0, 2, n)]
                        + [rng.standard_normal(n) for _ in range(controls)])
    y = x @ rng.standard_normal((x.shape[1], 5)) + rng.standard_normal((n, 5))
    cluster = np.repeat(np.arange(sizes.size), sizes) if clustered else None
    fit = ols(y, x, cluster, names=[f"w{j}" for j in range(x.shape[1])])
    ref = fit_stacked(stack([(y[:, e], x) for e in range(5)], cluster))
    np.testing.assert_allclose(fit.coefficients, ref.coefficients, rtol=1e-12, atol=0)
    # Covariances on the correlation scale: an entry near zero between two
    # equations is a sum that cancels, known only relative to its variances.
    scale = np.sqrt(np.outer(np.diag(ref.vcov), np.diag(ref.vcov)))
    assert np.max(np.abs(fit.vcov - ref.vcov) / scale) <= 1e-12
    np.testing.assert_allclose(np.diag(fit.vcov), np.diag(ref.vcov), rtol=1e-12, atol=0)
    assert (fit.n, fit.k, fit.dof, fit.covariance_kind, fit.cluster_count) == (
        ref.n, ref.k, ref.dof, ref.covariance_kind, ref.cluster_count)
    assert fit.names[:2] == ("eq0.w0", "eq0.w1") and fit.names[-1] == f"eq4.w{x.shape[1] - 1}"
    assert not fit.response_constant


def test_2d_ols_rank_error_names_the_design_column():
    rng = np.random.default_rng(32)
    n = 60
    age = rng.standard_normal(n)
    x = np.column_stack([np.ones(n), rng.integers(0, 2, n), age, 2 * age])
    with pytest.raises(RankDeficientError, match="'age2?'"):
        ols(rng.standard_normal((n, 3)), x, names=("const", "z", "age", "age2"))


def test_2d_ols_degenerate_only_when_every_column_is_one_constant():
    rng = np.random.default_rng(33)
    n = 40
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    fit = ols(np.full((n, 3), 2.5), x)
    assert fit.response_constant and np.array_equal(fit.vcov, np.zeros((6, 6)))
    assert np.array_equal(fit.coefficients[1::2], np.zeros(3))
    y = np.column_stack([np.full(n, 2.5), rng.standard_normal(n)])
    assert not ols(y, x).response_constant


def test_2d_ols_never_holds_an_n_by_mk_array():
    n, m = 200_000, 13
    rng = np.random.default_rng(34)
    x = np.column_stack([np.ones(n), rng.integers(0, 2, n), rng.standard_normal((n, 2))])
    y = rng.standard_normal((n, m))
    tracemalloc.start()
    try:
        ols(y, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * m * x.shape[1] * 8  # one n x (m*k) float array: 83.2 MB


@pytest.mark.parametrize("rows", [1, 7, 50])
def test_blocked_score_sums_equal_one_block(monkeypatch, rows):
    # Clusters of 1-9 rows in shuffled order, so blocks of a few rows taken
    # in cluster order must end at cluster boundaries to sum each cluster whole.
    rng = np.random.default_rng(35)
    sizes = rng.integers(1, 10, 60)
    labels = rng.permutation(np.repeat(np.arange(sizes.size) * 3 + 2, sizes))
    equations, _ = iv_system(rng, labels.size, (3, 4), sizes)
    y = np.column_stack([equations[0][0], equations[1][0], rng.standard_normal(labels.size)])
    x = equations[1][2]
    whole = [fit_stacked(stack(equations, cluster)) for cluster in (labels, None)]
    whole += [ols(y, x, cluster) for cluster in (labels, None)]
    monkeypatch.setattr(regression, "_CHUNK_ROWS", rows)
    blocked = [fit_stacked(stack(equations, cluster)) for cluster in (labels, None)]
    blocked += [ols(y, x, cluster) for cluster in (labels, None)]
    for a, b in zip(blocked, whole):
        # W'Y is summed block by block too, so only its summation order moves.
        np.testing.assert_allclose(a.coefficients, b.coefficients, rtol=1e-12, atol=0)
        np.testing.assert_allclose(a.vcov, b.vcov, rtol=1e-12, atol=1e-15 * np.abs(b.vcov).max())
        np.testing.assert_array_equal(a.response_min, b.response_min)
        np.testing.assert_array_equal(a.response_max, b.response_max)
    # At one block size the source of the rows does not matter: a response
    # read through Responses fits to the bits of the array it reads.
    for cluster, a in zip((labels, None), blocked[2:]):
        lazy = ols(regression.Responses(y.shape, y.__getitem__), x, cluster)
        assert lazy.coefficients.tobytes() == a.coefficients.tobytes()
        assert lazy.vcov.tobytes() == a.vcov.tobytes()


@pytest.mark.parametrize("where", ["y", "x"])
def test_non_finite_input_raises_estimation_error(where):
    rng = np.random.default_rng(38)
    x = np.column_stack([np.ones(40), rng.standard_normal(40)])
    y = rng.standard_normal(40)
    (y if where == "y" else x)[5, ...] = np.nan
    with pytest.raises(EstimationError, match="non-finite input"):
        ols(y, x)


@pytest.mark.parametrize("rows, n", [
    (7, 100), (regression._CHUNK_ROWS, 3 * regression._CHUNK_ROWS + 5)])
def test_unclustered_meat_equals_singleton_cluster_meat(monkeypatch, rows, n):
    # Runs of rows, each row its own sum, give the bits of the per-cluster
    # bincount sums over n singleton clusters; n is not a multiple of the block.
    rng = np.random.default_rng(36)
    equations, _ = iv_system(rng, n, (3, 4), [n])
    equations = [(np.column_stack([y, rng.standard_normal(n)]), x, w) for y, x, w in equations]
    b = rng.standard_normal(sum(2 * x.shape[1] for _, x, _ in equations))
    monkeypatch.setattr(regression, "_CHUNK_ROWS", rows)
    blocked = regression._meat(equations, b, None, n)
    singletons = regression._meat(equations, b, np.arange(n), n)
    assert blocked.shape == (b.size, b.size)
    assert blocked.tobytes() == singletons.tobytes()
