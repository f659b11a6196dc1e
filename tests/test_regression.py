import numpy as np
import pytest

from lafte import (
    DegenerateTestError,
    DerivedColumns,
    EstimationError,
    RankDeficientError,
    RelevanceError,
    TreatmentDef,
    first_stage,
    from_arrays,
    iv_estimand,
    linear_combination,
    ols,
    slopes,
    wald_joint,
)

from lafte.regression import one_sided_negativity

from conftest import fix8_table, random_table


def _se(fit, j):
    """The standard error of coefficient ``j``: None when the responses are one constant."""
    return linear_combination(fit, np.eye(fit.k)[j])[1]


# ---------------------------------------------------------------------------
# independent matrix-algebra oracle (no calls into lafte.regression)


def oracle_stacked_iv(equations, labels):
    """Stacked just-identified IV with a cluster sandwich, by explicit algebra.

    equations: list of (y, X, W); labels: one dependence label per original
    row, reused across the stacked copies.
    """
    n = len(equations[0][0])
    m = len(equations)
    widths = [eq[1].shape[1] for eq in equations]
    total = sum(widths)
    ys = np.concatenate([np.asarray(eq[0], dtype=float) for eq in equations])
    Xs = np.zeros((m * n, total))
    Ws = np.zeros((m * n, total))
    col = 0
    for e, (yv, X, W) in enumerate(equations):
        Xs[e * n:(e + 1) * n, col:col + X.shape[1]] = X
        Ws[e * n:(e + 1) * n, col:col + W.shape[1]] = W
        col += X.shape[1]
    lab = np.concatenate([np.asarray(labels)] * m)

    b = np.linalg.solve(Ws.T @ Xs, Ws.T @ ys)
    e = ys - Xs @ b
    A = np.linalg.inv(Ws.T @ Xs)
    S = Ws * e[:, None]
    uniq = list(dict.fromkeys(lab.tolist()))
    G, N, K = len(uniq), m * n, total
    meat = np.zeros((total, total))
    for g in uniq:
        sg = S[lab == g].sum(axis=0)
        meat += np.outer(sg, sg)
    meat *= (G / (G - 1.0)) * ((N - 1.0) / (N - K))
    V = A @ meat @ A.T
    return b, V


def fix8_theorem1_stack_oracle():
    t = fix8_table()
    d = DerivedColumns.of(t.d1, t.d2, t.y)
    ones = np.ones(t.n)
    z = t.z.astype(float)
    eq1 = (d.dand_y, np.column_stack([ones, d.d_and]), np.column_stack([ones, z]))
    eq2 = (d.untreated_y, np.column_stack([ones, t.d1]), np.column_stack([ones, z]))
    b, V = oracle_stacked_iv([eq1, eq2], np.arange(t.n))
    upper = b[1] + b[3]
    se = np.sqrt(V[1, 1] + V[3, 3] + 2 * V[1, 3])
    return b, upper, se


# Frozen from the pre-build oracle run on the fixture.
FIX8_STACKED_UPPER_SE = 0.3636964837266539


# ---------------------------------------------------------------------------
# ols


def test_ols_fix8_outcome():
    t = fix8_table()
    x = np.column_stack([np.ones(t.n), t.z])
    fit = ols(t.y, x)
    assert fit.coefficients[1] == pytest.approx(1.0, rel=1e-12)
    assert fit.covariance_kind == "hc1"


def test_ols_fix8_g_or():
    t = fix8_table()
    d = DerivedColumns.of(t.d1, t.d2, t.y)
    x = np.column_stack([np.ones(t.n), t.z])
    fit = ols(d.g_or, x)
    assert fit.coefficients[1] == pytest.approx(0.25, rel=1e-12)


def test_intercept_only_matches_sd_over_sqrt_n():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(31) * 3 + 2
    fit = ols(y, np.ones((31, 1)))
    assert fit.coefficients[0] == pytest.approx(y.mean(), rel=1e-12)
    assert _se(fit, 0) == pytest.approx(y.std(ddof=1) / np.sqrt(31), rel=1e-12)


def test_binary_slope_is_difference_of_means():
    rng = np.random.default_rng(1)
    for _ in range(5):
        t = random_table(rng, n=100)
        x = np.column_stack([np.ones(t.n), t.z])
        fit = ols(t.y, x)
        diff = t.y[t.z == 1].mean() - t.y[t.z == 0].mean()
        assert abs(fit.coefficients[1] - diff) <= 1e-12 * max(1, abs(diff))


def test_rank_deficiency_names_column():
    rng = np.random.default_rng(2)
    x1 = rng.standard_normal(20)
    x = np.column_stack([np.ones(20), x1, 2 * x1])
    # either member of the collinear pair may be named, never the intercept
    with pytest.raises(RankDeficientError, match="'(x1|dup)'"):
        ols(rng.standard_normal(20), x, names=("const", "x1", "dup"))


def test_a_badly_scaled_full_rank_design_gives_its_pivot_ratio():
    # A control at mean/SD 1e6 is not collinear, but its pivot ratio falls
    # below the tolerance; the message gives the ratio. The advice to centre
    # such a column is in ols' docstring, not in the message: every table fit
    # already centres its controls, so there the advice would be wrong.
    rng = np.random.default_rng(3)
    n = 2000
    x = np.column_stack([np.ones(n), rng.integers(0, 2, n), 1e6 + rng.standard_normal(n)])
    with pytest.raises(RankDeficientError, match=r"collinear column '(const|z|x)' \(pivot ratio "
                       r"[0-9.e+-]+, below the tolerance 1e-10\)$"):
        ols(rng.standard_normal(n), x, names=("const", "z", "x"))
    assert "centre a column" in ols.__doc__


def test_constant_regressand_flagged():
    t = fix8_table()
    x = np.column_stack([np.ones(t.n), t.z])
    fit = ols(np.full(t.n, 5.0), x)
    assert fit.response_constant
    assert fit.coefficients[1] == 0.0
    assert _se(fit, 1) is None
    assert np.all(fit.vcov == 0.0)


def test_cluster_singleton_equals_hc1():
    rng = np.random.default_rng(3)
    t = random_table(rng, n=60)
    x = np.column_stack([np.ones(t.n), t.z, t.d1])
    plain = ols(t.y, x)
    clustered = ols(t.y, x, cluster=np.arange(t.n))
    # the small-sample factors coincide exactly when G == N
    n, k = t.n, 3
    ratio = (n / (n - 1)) * ((n - 1) / (n - k)) / (n / (n - k))
    assert ratio == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(clustered.vcov, plain.vcov * ratio, rtol=1e-10)
    assert clustered.covariance_kind == "cluster"
    assert clustered.cluster_count == t.n


def test_cluster_permutation_invariance():
    rng = np.random.default_rng(4)
    t = random_table(rng, n=90, cluster_size=5)
    x = np.column_stack([np.ones(t.n), t.z, t.controls]) if t.controls.size else \
        np.column_stack([np.ones(t.n), t.z])
    fit = ols(t.y, x, cluster=t.cluster)
    perm = rng.permutation(t.n)
    fit_p = ols(t.y[perm], x[perm], cluster=t.cluster[perm])
    np.testing.assert_allclose(fit_p.coefficients, fit.coefficients, rtol=1e-10)
    np.testing.assert_allclose(fit_p.vcov, fit.vcov, rtol=1e-10, atol=1e-14)


def test_vcov_psd_and_symmetric():
    rng = np.random.default_rng(5)
    for cluster_size in (0, 7):
        t = random_table(rng, n=140, cluster_size=cluster_size)
        x = np.column_stack([np.ones(t.n), t.z, t.d1, t.d2])
        fit = ols(t.y, x, cluster=t.cluster)
        assert np.allclose(fit.vcov, fit.vcov.T, rtol=1e-10)
        eig = np.linalg.eigvalsh(fit.vcov)
        assert eig.min() >= -1e-8 * eig.max()
        assert np.all(np.diag(fit.vcov) >= 0)


def test_too_few_rows():
    with pytest.raises(EstimationError):
        ols(np.array([1.0, 2.0]), np.column_stack([np.ones(2), [0.0, 1.0]]))


def test_ols_mismatched_rows():
    with pytest.raises(EstimationError, match="row counts differ"):
        ols(np.ones(4), np.ones((5, 1)))
    with pytest.raises(EstimationError, match="row counts differ"):
        ols(np.ones((4, 2)), np.ones((5, 1)))


def test_one_column_response_equals_1d_ols():
    rng = np.random.default_rng(10)
    t = random_table(rng, n=70)
    x = np.column_stack([np.ones(t.n), t.z])
    single = ols(t.y[:, None], x)
    plain = ols(t.y, x)
    np.testing.assert_allclose(single.coefficients, plain.coefficients, rtol=1e-12)
    np.testing.assert_allclose(single.vcov, plain.vcov, rtol=1e-10)
    assert plain.names == ("x0", "x1") and single.names == ("eq0.x0", "eq0.x1")


# ---------------------------------------------------------------------------
# IV slopes of a table


def test_iv_fix8_values():
    t = fix8_table()
    assert iv_estimand(t, TreatmentDef.FIRST).value == pytest.approx(4 / 3, rel=1e-12)
    assert iv_estimand(t, TreatmentDef.SUM).value == pytest.approx(1.0, rel=1e-12)
    assert iv_estimand(t, TreatmentDef.SECOND).value == pytest.approx(4.0, rel=1e-12)


def test_iv_equals_wald_ratio():
    rng = np.random.default_rng(7)
    for _ in range(10):
        t = random_table(rng, n=150)
        num = t.y[t.z == 1].mean() - t.y[t.z == 0].mean()
        den = t.d1[t.z == 1].mean() - t.d1[t.z == 0].mean()
        assert iv_estimand(t, TreatmentDef.FIRST).value == pytest.approx(num / den, rel=1e-10)


def test_iv_with_controls_equals_oracle():
    rng = np.random.default_rng(8)
    base = random_table(rng, n=300)
    x = rng.standard_normal((base.n, 2))
    t = from_arrays(base.z, base.d1, base.d2, base.y, controls=x)
    fit = slopes(t, [("y", "d1")])
    w = np.column_stack([np.ones(t.n), t.z, x])
    design = w.copy()
    design[:, 1] = t.d1
    b, v = oracle_stacked_iv([(t.y, design, w)], np.arange(t.n))
    assert fit.coefficients[0] == pytest.approx(b[1], rel=1e-12)
    assert _se(fit, 0) == pytest.approx(np.sqrt(v[1, 1]), rel=1e-12)
    assert fit.coefficients[0] != pytest.approx(iv_estimand(base, TreatmentDef.FIRST).value)


def test_iv_relevance_error_names_the_definition():
    rng = np.random.default_rng(9)
    n = 80
    # d varies but has the same mean in both arms: exactly zero first stage
    z = np.repeat([0, 1], n // 2)
    d = np.tile([0, 1], n // 2)
    t = from_arrays(z, d, np.zeros(n, int), rng.standard_normal(n))
    with pytest.raises(RelevanceError, match="relevance failure for D1: first stage"):
        iv_estimand(t, TreatmentDef.FIRST)
    assert abs(first_stage(t, TreatmentDef.FIRST).value) <= 1e-10


# ---------------------------------------------------------------------------
# joint fits


def test_joint_slopes_match_separate_fits():
    t = fix8_table()
    fit = slopes(t, [("dand_y", "d_and"), ("untreated_y", "d1")])
    assert fit.coefficients[0] == pytest.approx(3.0, rel=1e-12)
    assert fit.coefficients[1] == pytest.approx(-1 / 3, rel=1e-12)
    value, se = linear_combination(fit, [1.0, 1.0])
    assert value == pytest.approx(8 / 3, rel=1e-12)
    assert np.isfinite(se) and se > 0


def test_stacked_se_matches_matrix_oracle():
    _, upper, se = fix8_theorem1_stack_oracle()
    assert upper == pytest.approx(8 / 3, rel=1e-12)
    assert se == pytest.approx(FIX8_STACKED_UPPER_SE, rel=1e-12)

    fit = slopes(fix8_table(), [("dand_y", "d_and"), ("untreated_y", "d1")])
    _, got = linear_combination(fit, [1.0, 1.0])
    assert got == pytest.approx(se, rel=1e-12)


def test_joint_request_order_invariance():
    rng = np.random.default_rng(11)
    t = random_table(rng, n=120, cluster_size=6)
    pair = [("dand_y", "d_and"), ("untreated_y", "d1")]
    v1, s1 = linear_combination(slopes(t, pair), [1.0, 1.0])
    v2, s2 = linear_combination(slopes(t, pair[::-1]), [1.0, 1.0])
    assert v1 == pytest.approx(v2, rel=1e-12)
    assert s1 == pytest.approx(s2, rel=1e-10)


def test_joint_fit_cluster_count():
    # with clusters given, the copies of an observation in the stacked
    # system stay in one dependence unit
    rng = np.random.default_rng(12)
    t = random_table(rng, n=40, cluster_size=4)
    x = np.column_stack([np.ones(t.n), t.z])
    fit = ols(np.column_stack([t.y, t.d1]), x, cluster=t.cluster)
    assert fit.cluster_count == 10


def test_unclustered_joint_fit_reports_hc1_with_row_units():
    # without labels the original rows are the dependence units: the
    # covariance is the row-clustered one to the bit, but it is reported as
    # "hc1" without a cluster count
    rng = np.random.default_rng(13)
    t = random_table(rng, n=40)
    x = np.column_stack([np.ones(t.n), t.z])
    y = np.column_stack([t.y, t.d1])
    fit = ols(y, x)
    by_row = ols(y, x, cluster=np.arange(t.n))
    assert fit.covariance_kind == "hc1" and fit.cluster_count is None
    assert by_row.covariance_kind == "cluster" and by_row.cluster_count == t.n
    assert fit.vcov.tobytes() == by_row.vcov.tobytes()
    assert fit.coefficients.tobytes() == by_row.coefficients.tobytes()


_NAN = float("nan")
_NAN_LABELS = [1.0, _NAN, 2.0, _NAN, 1.0, 2.0, 3.0, 3.0]


@pytest.mark.parametrize("labels, message", [
    (_NAN_LABELS, "missing cluster label at row 1"),
    (np.array(_NAN_LABELS), "missing cluster label at row 1"),
    (np.array(_NAN_LABELS, dtype=object), "missing cluster label at row 1"),
    (np.array(["a", "b", None, "a", "b", "c", "c", "a"], dtype=object),
     "missing cluster label at row 2"),
    (["a", "b", "c", " ", "a", "b", "c", "a"], "missing cluster label at row 3"),
    (["a", 1, "b", 1, "a", 2, "b", 2], "cluster labels of types int, str cannot be ordered"),
    ([1, 2, 3], "cluster and response row counts differ"),
    ([[1], [2], [1], [2], [1], [2], [1], [2]], r"one per row, not an array of shape \(8, 1\)"),
    (np.arange(8).reshape(8, 1), r"one per row, not an array of shape \(8, 1\)"),
    ([[1], [2, 3]] * 4, "cluster labels must be hashable, such as strings or numbers; got list"),
    (5, r"cluster labels must be one per row, not an array of shape \(\)"),
], ids=["nan-list", "nan-float-array", "nan-object-array", "none", "blank", "int-and-str",
        "short", "2-d", "2-d-codes", "list-valued", "scalar"])
def test_direct_ols_refuses_bad_cluster_labels(labels, message):
    # The label rule of from_arrays: an EstimationError, never a TypeError,
    # an IndexError or a StopIteration, and never a silent regrouping.
    t = fix8_table()
    x = np.column_stack([np.ones(t.n), t.z])
    with pytest.raises(EstimationError, match=message):
        ols(t.y, x, cluster=labels)


@pytest.mark.parametrize("as_labels", [list, np.array, lambda v: np.array(v, dtype=object)],
                         ids=["float-list", "float-array", "object-array"])
def test_direct_ols_labels_group_as_the_tables_codes(as_labels):
    t = fix8_table()
    labels = [3.0, 1.0, 2.0, 1.0, 3.0, 2.0, 1.0, 2.0]
    codes = from_arrays(t.z, t.d1, t.d2, t.y, cluster=as_labels(labels)).cluster_codes
    x = np.column_stack([np.ones(t.n), t.z])
    direct, coded = ols(t.y, x, cluster=as_labels(labels)), ols(t.y, x, cluster=codes)
    assert direct.cluster_count == coded.cluster_count == 3
    assert direct.vcov.tobytes() == coded.vcov.tobytes()


# ---------------------------------------------------------------------------
# wald tests


def test_wald_zero_subvector():
    # y = +1, -1, ... on a constant: the coefficient is exactly 0.
    fit = ols(np.resize([1.0, -1.0], 30), np.ones((30, 1)))
    assert fit.coefficients[0] == 0.0
    result = wald_joint(fit, [0])
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_wald_scalar_is_t_squared():
    rng = np.random.default_rng(14)
    t = random_table(rng, n=100)
    x = np.column_stack([np.ones(t.n), t.z])
    fit = ols(t.y, x)
    res = wald_joint(fit, [1])
    tratio = fit.coefficients[1] / _se(fit, 1)
    assert res.statistic == pytest.approx(tratio ** 2, rel=1e-10)
    assert res.dof == 1
    assert res.kind == "wald-two-sided"


def test_wald_singular_submatrix():
    t = fix8_table()
    x = np.column_stack([np.ones(t.n), t.z])
    fit = ols(np.zeros(t.n), x)  # constant response, zero vcov
    with pytest.raises(DegenerateTestError, match="degenerate joint test"):
        wald_joint(fit, [1])


@pytest.mark.parametrize("estimate, se, p", [
    (-1.0, None, None),  # a degenerate fit: no SE, no p-value
    (0.5, 0.0, 1.0), (0.0, 0.0, 1.0), (-0.5, 0.0, 0.0),  # estimate / 0.0 would raise
    (0.0, 0.3, 0.5),  # the boundary of the null
    (-1.959963984540054, 1.0, 0.025), (1.959963984540054, 2.0, 0.8364524961544296),
])
def test_one_sided_negativity_p_value(estimate, se, p):
    got = one_sided_negativity(estimate, se)
    if p is None:
        assert got is None
    else:
        assert type(got) is float and got == pytest.approx(p, rel=1e-12)


def test_fix8_joint_contrast_test_matches_oracle():
    # joint 2-df test of both plain mover contrasts, against explicit algebra
    t = fix8_table()
    d = DerivedColumns.of(t.d1, t.d2, t.y)
    x = np.column_stack([np.ones(t.n), t.z])
    fit = ols(np.column_stack([d.g_or, d.g_and]), x)
    res = wald_joint(fit, [1, 3])
    assert res.dof == 2
    assert np.isfinite(res.statistic)

    b, V = oracle_stacked_iv([(d.g_or, x, x), (d.g_and, x, x)], np.arange(t.n))
    sub = b[[1, 3]]
    stat = sub @ np.linalg.solve(V[np.ix_([1, 3], [1, 3])], sub)
    assert res.statistic == pytest.approx(stat, rel=1e-10)
