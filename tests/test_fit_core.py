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

from lafte import EstimationError, RankDeficientError, ols, regression
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
    # a joint fit stacks its m equations on one design: a deficient design is
    # named once, by an unprefixed column in the span of the others
    rng = np.random.default_rng(22)
    n = 80
    for _ in range(50):
        k, m = int(rng.integers(3, 8)), int(rng.integers(2, 5))
        x = inject_dependence(rng, random_design(rng, n, k))
        with pytest.raises(RankDeficientError, match=r"collinear column 'c\d+'") as info:
            ols(rng.standard_normal((n, m)), x, names=[f"c{j}" for j in range(k)])
        assert in_span_of_others(x, named_column(info.value))


def test_stacked_rank_check_names_the_largest_pivot_below_tolerance():
    # an exact dependence (b2 = 2 b1) and a near one (pivot ratio ~1e-13,
    # b4 ~ b3) in one design: the pivoted QR reaches the near one first
    rng = np.random.default_rng(26)
    n = 80
    x = random_design(rng, n, 5)
    x[:, 2] = 2.0 * x[:, 1]
    x[:, 4] = x[:, 3] * (1.0 + 1e-13 * rng.standard_normal(n))
    names = [f"b{j}" for j in range(5)]
    y = rng.standard_normal((n, 3))
    with pytest.raises(RankDeficientError, match=r"'b[34]'"):
        ols(y, x, names=names)
    with pytest.raises(RankDeficientError, match=r"'b[12]'"):
        ols(y, x[:, :4], names=names[:4])


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


def joint_system(rng, n, k, m, cluster_sizes):
    """An ``n x m`` response on one design ``[1, z, k - 2 Gaussian columns]``,
    and cluster labels of the given sizes."""
    z = rng.integers(0, 2, n).astype(float)
    w = np.column_stack([np.ones(n), z] + [rng.standard_normal(n) for _ in range(k - 2)])
    y = w @ rng.standard_normal((k, m)) + rng.standard_normal((n, m))
    labels = np.repeat(np.arange(len(cluster_sizes)), cluster_sizes)
    return y, w, labels


def test_joint_fit_never_builds_the_stacked_rows():
    n, k, m = 200_000, 4, 3
    stacked_bytes = m * n * m * k * 8  # one (m*n) x K float array: 57.6 MB
    rng = np.random.default_rng(25)
    y, w, labels = joint_system(rng, n, k, m, [4] * (n // 4))
    for cluster in (labels, None):
        tracemalloc.start()
        try:
            ols(y, w, cluster)
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


def test_cli_import_leaves_yaml_out():
    # PyYAML is imported by the commands that read or write a YAML file only.
    code = "import sys, lafte.cli; sys.exit('yaml' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0


@pytest.mark.parametrize("before", ["", "gc.disable()", "gc.freeze()"])
def test_import_leaves_collection_as_it_found_it(before):
    # Collection is on or off after the import as before it, and what a
    # caller froze stays frozen. With collection on and nothing frozen, no
    # collection runs during the import.
    code = (f"import gc\n{before}\nfound = gc.isenabled(), gc.get_freeze_count()\nruns = []\n"
            "gc.callbacks.append(lambda phase, info: runs.append(phase))\nimport lafte\n"
            "print(len(runs), (gc.isenabled(), gc.get_freeze_count()) == found)")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    runs, restored = done.stdout.split()
    assert restored == "True"
    if not before:
        assert runs == "0"


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
    b, v = oracle_stacked_iv([(y[:, e], x, x) for e in range(5)],
                             np.arange(n) if cluster is None else cluster)
    np.testing.assert_allclose(fit.coefficients, b, rtol=1e-12, atol=0)
    # Covariances on the correlation scale: an entry near zero between two
    # equations is a sum that cancels, known only relative to its variances.
    scale = np.sqrt(np.outer(np.diag(v), np.diag(v)))
    assert np.max(np.abs(fit.vcov - v) / scale) <= 1e-12
    np.testing.assert_allclose(np.diag(fit.vcov), np.diag(v), rtol=1e-12, atol=0)
    k = x.shape[1]
    assert (fit.n, fit.k, fit.dof, fit.covariance_kind, fit.cluster_count) == (
        5 * n, 5 * k, 5 * (n - k), "cluster" if clustered else "hc1",
        sizes.size if clustered else None)
    assert fit.names[:2] == ("eq0.w0", "eq0.w1") and fit.names[-1] == f"eq4.w{x.shape[1] - 1}"
    assert not fit.response_constant


def test_2d_ols_rank_error_names_the_design_column():
    rng = np.random.default_rng(32)
    n = 60
    age = rng.standard_normal(n)
    x = np.column_stack([np.ones(n), rng.integers(0, 2, n), age, 2 * age])
    with pytest.raises(RankDeficientError, match="'age2?'"):
        ols(rng.standard_normal((n, 3)), x, names=("const", "z", "age", "age2"))


def test_2d_ols_counts_stacked_rows_and_parameters_when_too_few_rows():
    # m equations of n rows on k columns: m*n rows for m*k parameters
    rng = np.random.default_rng(37)
    x = np.column_stack([np.ones(3), [0.0, 1.0, 1.0], rng.standard_normal(3)])
    with pytest.raises(EstimationError, match="^12 rows cannot identify 12 parameters$"):
        ols(rng.standard_normal((3, 4)), x)
    assert ols(rng.standard_normal((4, 4)), np.vstack([x, [1.0, 0.0, 0.5]])).dof == 4


def test_2d_ols_needs_two_clusters():
    rng = np.random.default_rng(38)
    n = 30
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    y = rng.standard_normal((n, 3))
    with pytest.raises(EstimationError, match="at least 2 clusters"):
        ols(y, x, np.full(n, 7))
    assert ols(y, x, np.arange(n) % 2).cluster_count == 2


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
    y, x, _ = joint_system(rng, labels.size, 4, 3, sizes)
    whole = [ols(y[:, 0], x, cluster) for cluster in (labels, None)]
    whole += [ols(y, x, cluster) for cluster in (labels, None)]
    monkeypatch.setattr(regression, "_CHUNK_ROWS", rows)
    blocked = [ols(y[:, 0], x, cluster) for cluster in (labels, None)]
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


@pytest.mark.parametrize("controls", [False, True])
def test_blocked_cross_moments_equal_the_whole_array_product(controls):
    # The row pass sums W'W a block of rows at a time. Each entry of
    # W = [1, z] is an integer sum, exact in any order; with controls only
    # the order of the sums moves it.
    n = 3 * regression._CHUNK_ROWS + 5
    rng = np.random.default_rng(39)
    z = rng.integers(0, 2, n)
    c = rng.standard_normal((n, 2)) * [1.0, 1e3] if controls else np.empty((n, 0))
    w = np.column_stack([np.ones(n), z, c])
    _, wtw, _, _, _ = regression._row_pass(rng.standard_normal((n, 2)), w, n)
    whole = w.T @ w
    if controls:
        scale = np.sqrt(np.outer(np.diag(whole), np.diag(whole)))
        assert np.max(np.abs(wtw - whole) / scale) <= 1e-13
    else:
        assert wtw.tobytes() == whole.tobytes()


@pytest.mark.parametrize("clustered", [False, True])
def test_fit_reads_its_design_a_block_at_a_time(monkeypatch, clustered):
    # ols hands a design given as Responses to the fit, which reads it only
    # by blocks of rows (a cluster of up to 9 rows may end a block) and fits
    # to the bits of the dense design.
    rng = np.random.default_rng(40)
    n = 500
    labels = np.repeat(np.arange(n), rng.integers(1, 10, n))[:n] if clustered else None
    w = np.column_stack([np.ones(n), rng.integers(0, 2, n), rng.standard_normal((n, 2))])
    names = ("const", "z", "c0", "c1")
    y = rng.standard_normal((n, 3))
    read = []
    lazy = regression.Responses(w.shape, lambda rows: read.append(np.arange(n)[rows].size)
                                or w[rows])
    monkeypatch.setattr(regression, "_CHUNK_ROWS", 50)
    fit, dense = ols(y, lazy, labels, names=names), ols(y, w, labels, names=names)
    assert read and max(read) < 50 + 9
    assert fit.coefficients.tobytes() == dense.coefficients.tobytes()
    assert fit.vcov.tobytes() == dense.vcov.tobytes()
    assert fit.names == dense.names


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
    y, w, _ = joint_system(rng, n, 4, 3, [n])
    b = rng.standard_normal(y.shape[1] * w.shape[1])
    monkeypatch.setattr(regression, "_CHUNK_ROWS", rows)
    blocked = regression._meat(y, w, b, None, n)
    singletons = regression._meat(y, w, b, np.arange(n), n)
    assert blocked.shape == (b.size, b.size)
    assert blocked.tobytes() == singletons.tobytes()
