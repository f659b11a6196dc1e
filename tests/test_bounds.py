import dataclasses

import numpy as np
import pytest

from lafte import (
    BoundsError,
    complier_shares,
    double_exclusion_check,
    first_stage,
    from_arrays,
    iv_estimand,
    lafte_bounds,
    lafte_bounds_bounded_response,
    linear_combination,
    mover_test,
    sample,
    slopes,
    tau_bounds,
)
from lafte.estimands import REPORT_ORDER

from conftest import random_table, single_full_complier_spec

from test_regression import FIX8_STACKED_UPPER_SE


def test_fix8_theorem1(fix8):
    result = lafte_bounds(fix8)
    assert result.kind == "theorem1"
    assert result.lower.value == pytest.approx(4 / 3, rel=1e-12)
    assert result.upper.value == pytest.approx(8 / 3, rel=1e-12)
    assert result.upper.se == pytest.approx(FIX8_STACKED_UPPER_SE, rel=1e-12)
    assert result.assumptions == ("double-exclusion", "monotone-treatment-response",
                                  "monotone-treatment-selection", "positive-response")
    assert not result.warnings


def test_theorem1_lower_is_iv_estimand(fix8):
    result = lafte_bounds(fix8)
    direct = iv_estimand(fix8, "d1")
    assert result.lower.value == direct.value  # same computation path
    assert result.lower.se == direct.se


def _clustered_table_with_controls():
    rng = np.random.default_rng(43)
    base = random_table(rng, n=300, cluster_size=5)
    return from_arrays(base.z, base.d1, base.d2, base.y,
                       controls=rng.standard_normal((300, 2)), cluster=base.cluster)


@pytest.mark.parametrize("which", ["fix8", "clustered"])
def test_theorem1_upper_se_is_the_delta_method_up_to_dof(fix8, which):
    # The delta method on the four contrasts behind a/b + c/d reads the same
    # joint covariance as the stacked 2-equation fit, with the stacking
    # factor c_m = (m n - 1) / (m n - m k) of 4 equations instead of 2.
    t = fix8 if which == "fix8" else _clustered_table_with_controls()
    fit = slopes(t, [(c, None) for c in ("dand_y", "d_and", "untreated_y", "d1")])
    a, b, c, d = fit.coefficients
    grad = np.array([1 / b, -a / b ** 2, 1 / d, -c / d ** 2])
    delta_se = np.sqrt(grad @ fit.vcov @ grad)
    n, k = t.n, 2 + len(t.control_names)

    def factor(m):
        return (m * n - 1) / (m * n - m * k)

    upper = lafte_bounds(t).upper
    assert upper.value == pytest.approx(a / b + c / d, rel=1e-12)
    assert delta_se == pytest.approx(upper.se * np.sqrt(factor(4) / factor(2)), rel=1e-12)


def test_fix8_bounded_response(fix8):
    result = lafte_bounds_bounded_response(fix8, 0, 3)
    assert result.lower.value == pytest.approx(2 / 3, rel=1e-12)
    assert result.upper.value == pytest.approx(8 / 3, rel=1e-12)
    assert result.ymin == 0 and result.ymax == 3
    assert not result.flipped


def test_bounded_response_default_sample_range(fix8):
    # FIX8's sample range is exactly [0, 3]
    result = lafte_bounds_bounded_response(fix8)
    assert result.ymin == 0.0 and result.ymax == 3.0
    assert result.lower.value == pytest.approx(2 / 3, rel=1e-12)


def test_bounded_response_width_identity(fix8):
    result = lafte_bounds_bounded_response(fix8, 0, 3)
    shares = complier_shares(fix8)
    fs = first_stage(fix8, "d1").value
    width = (3 - 0) * (shares.p_dropout.value + shares.p_late_adopter.value) / fs
    assert result.upper.value - result.lower.value == pytest.approx(width, rel=1e-12)
    assert width == pytest.approx(2.0, rel=1e-12)


def test_bounded_response_widening_never_narrows(fix8):
    inner = lafte_bounds_bounded_response(fix8, 0, 3)
    outer = lafte_bounds_bounded_response(fix8, -1, 4)
    assert outer.lower.value <= inner.lower.value + 1e-12
    assert outer.upper.value >= inner.upper.value - 1e-12


def test_bounded_response_violated_bounds(fix8):
    with pytest.raises(BoundsError, match="response bound violated by data"):
        lafte_bounds_bounded_response(fix8, 0.5, 3)
    with pytest.raises(BoundsError, match="response bound violated by data"):
        lafte_bounds_bounded_response(fix8, 0, 2.5)


@pytest.mark.parametrize("ymin, ymax", [(float("nan"), 3.0), (0.0, float("nan")),
                                        (float("-inf"), 3.0), (0.0, float("inf"))])
def test_bounded_response_rejects_non_finite_bounds(fix8, ymin, ymax):
    with pytest.raises(BoundsError, match="response bounds must be finite"):
        lafte_bounds_bounded_response(fix8, ymin, ymax)


def test_bounded_response_ordered_even_when_contradicted():
    # construct data whose d2 contrast exceeds the d1 contrast
    t = from_arrays([1, 1, 1, 1, 0, 0, 0, 0],
                    [1, 0, 0, 0, 0, 0, 0, 0],
                    [1, 1, 1, 0, 0, 0, 0, 0],
                    [3.0, 2.0, 2.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    result = lafte_bounds_bounded_response(t)
    assert result.lower.value <= result.upper.value
    assert result.flipped
    assert any("contradict" in w for w in result.warnings)
    # The swap moves each end whole: its value, SE and interval, from one
    # combination of the three d1 slopes, under the label of its new place.
    fit = slopes(t, [(c, "d1") for c in ("kernel_y", "g_or", "g_and")])
    ymin, ymax = result.ymin, result.ymax
    for end, weights, label in ((result.lower, [1, ymax, -ymin], "bounded-response-lower"),
                                (result.upper, [1, ymin, -ymax], "bounded-response-upper")):
        value, se = linear_combination(fit, weights)
        assert (end.value, end.se) == (value, se)
        assert (end.ci_low, end.ci_high) == (value - 1.96 * se, value + 1.96 * se)
        assert end.definition == label


def test_degenerate_movers_collapse_to_point():
    # every unit has d1 == d2: no movers in-sample, width zero
    rng = np.random.default_rng(30)
    n = 400
    z = rng.integers(0, 2, n)
    z[:2] = (0, 1)
    d = (rng.random(n) < 0.2 + 0.6 * z).astype(int)
    y = 2.0 * d + rng.standard_normal(n)
    t = from_arrays(z, d, d, y)
    result = lafte_bounds_bounded_response(t)
    beta = iv_estimand(t, "d1").value
    assert result.lower.value == pytest.approx(beta, rel=1e-10)
    assert result.upper.value == pytest.approx(beta, rel=1e-10)


def test_fix8_tau(fix8):
    result = tau_bounds(fix8)
    assert result.lower.value == pytest.approx(1.0, rel=1e-12)
    assert result.upper.value == pytest.approx(4 / 3, rel=1e-12)
    assert result.maximizer == "D1"
    assert not result.flipped


def test_tau_flip_with_negative_reduced_form(fix8):
    flipped = from_arrays(fix8.z, fix8.d1, fix8.d2, -fix8.y)
    result = tau_bounds(flipped)
    assert result.flipped
    assert result.lower.value <= result.upper.value
    assert result.lower.value == pytest.approx(-4 / 3, rel=1e-12)
    assert result.upper.value == pytest.approx(-1.0, rel=1e-12)


def test_tau_warns_when_its_lower_candidate_exceeds_the_upper():
    # The d2 first stage is -0.5, so the d1 + d2 stage (0.5) is below the d1
    # stage (1): with a positive reduced form, y / (d1 + d2) > y / d1.
    z = [0, 0, 0, 0, 1, 1, 1, 1]
    t = from_arrays(z, z, [1, 1, 0, 0, 0, 0, 0, 0], [0.0, 1.0, 0.0, 1.0, 2.0, 3.0, 2.0, 3.0])
    result = tau_bounds(t)
    assert result.lower.value == pytest.approx(4.0, rel=1e-12)
    assert result.upper.value == pytest.approx(2.0, rel=1e-12)
    assert not result.flipped
    assert result.warnings == ("in-sample lower bound exceeds upper bound; some binary "
                               "first stage is negative, contradicting the maintained "
                               "monotonicity",)


def test_no_movers_sample_brackets_truth():
    spec = single_full_complier_spec(effect=2.0, y_sd=1.0)
    table = sample(spec, 20_000, seed=5)
    result = lafte_bounds(table)
    assert abs(result.lower.value - 2.0) <= 3 * result.lower.se
    assert abs(result.upper.value - 2.0) <= 3 * result.upper.se
    tau = tau_bounds(table)
    # single complier group: tau = LAFTE = 2, lower candidate is half of it
    assert abs(tau.lower.value - 1.0) <= 3 * tau.lower.se
    assert abs(tau.upper.value - 2.0) <= 3 * tau.upper.se


def test_theorem1_crossing_warned():
    # negative outcome effect with movers present can cross the bounds
    rng = np.random.default_rng(31)
    t = random_table(rng, n=500, effect=-4.0)
    result = lafte_bounds(t)
    if result.lower.value > result.upper.value:
        assert any("falsified" in w for w in result.warnings)
    else:
        assert not any("falsified" in w for w in result.warnings)


def test_bounds_with_cluster_and_controls():
    rng = np.random.default_rng(32)
    t = random_table(rng, n=240, cluster_size=6)
    result = lafte_bounds(t)
    assert result.upper.cluster_count == 40
    assert np.isfinite(result.upper.se)
    tau = tau_bounds(t)
    assert np.isfinite(tau.lower.se)


def test_unclustered_stacked_endpoints_report_no_clusters(fix8):
    theorem1 = lafte_bounds(fix8)
    bounded = lafte_bounds_bounded_response(fix8)
    for est in (theorem1.lower, theorem1.upper, bounded.lower, bounded.upper):
        assert est.cluster_count is None, est.definition


def _leaves(obj):
    """Every field name, number and string in a result, floats by repr and
    arrays by bytes."""
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        for name, value in zip(obj._fields, obj):
            yield name
            yield from _leaves(value)
    elif isinstance(obj, np.ndarray):
        yield obj.dtype.str, obj.shape, obj.tobytes()
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _leaves(item)
    else:
        yield repr(obj)


def _every_clustered_result(t):
    results = [first_stage(t, d) for d in REPORT_ORDER]
    results += [iv_estimand(t, d) for d in REPORT_ORDER]
    results += [complier_shares(t), slopes(t, [("d2", None), ("g_or", None), ("g_and", None)]),
                mover_test(t), slopes(t, [("gy_or", None), ("gy_and", None)]),
                double_exclusion_check(t), lafte_bounds(t),
                lafte_bounds_bounded_response(t), tau_bounds(t)]
    return list(_leaves(results))


def test_cluster_codes_and_labels_give_identical_results():
    rng = np.random.default_rng(41)
    base = random_table(rng, n=300)
    # unsorted, non-numeric-order labels of households of 1-5 rows
    sizes = rng.integers(1, 6, size=300)
    households = np.repeat(np.arange(sizes.size), sizes)[:300]
    names = np.array([f"hh{k}" for k in rng.permutation(households.max() + 1)], dtype=object)
    t = from_arrays(base.z, base.d1, base.d2, base.y,
                    controls=rng.standard_normal((300, 2)), cluster=names[households])
    labelled = dataclasses.replace(t, cluster_codes=t.cluster)
    coded = _every_clustered_result(t)
    assert coded == _every_clustered_result(labelled)
    assert lafte_bounds(t).upper.cluster_count == households.max() + 1


def test_tau_bounds_identical_after_reused_fits():
    fresh = list(_leaves(tau_bounds(_clustered_table_with_controls())))
    t = _clustered_table_with_controls()
    for d in REPORT_ORDER:
        first_stage(t, d)
    lafte_bounds(t)
    assert list(_leaves(tau_bounds(t))) == fresh
