import dataclasses

import numpy as np
import pytest

from lafte import (
    BoundsError,
    TreatmentDef,
    complier_shares,
    double_exclusion_check,
    first_stage,
    from_arrays,
    iv_estimand,
    lafte_bounds,
    lafte_bounds_bounded_response,
    mover_test,
    sample,
    tau_bounds,
)

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
    direct = iv_estimand(fix8, TreatmentDef.FIRST)
    assert result.lower.value == direct.value  # same computation path
    assert result.lower.se == direct.se


def test_theorem1_delta_cross_check(fix8):
    stacked = lafte_bounds(fix8)
    delta = lafte_bounds(fix8, upper_se_method="delta")
    assert delta.upper.value == pytest.approx(stacked.upper.value, rel=1e-12)
    # two consistent estimators of the same variance; close but not identical
    assert delta.upper.se == pytest.approx(stacked.upper.se, rel=0.25)
    assert delta.upper.se != stacked.upper.se


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
    fs = first_stage(fix8, TreatmentDef.FIRST).value
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
    beta = iv_estimand(t, TreatmentDef.FIRST).value
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
    """Every number and string in a result, floats by repr and arrays by bytes."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield f.name
            yield from _leaves(getattr(obj, f.name))
    elif isinstance(obj, np.ndarray):
        yield obj.dtype.str, obj.shape, obj.tobytes()
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _leaves(item)
    else:
        yield repr(obj)


def _every_clustered_result(t):
    results = [first_stage(t, d) for d in TreatmentDef]
    results += [iv_estimand(t, d) for d in TreatmentDef]
    results += [complier_shares(t, joint=True), mover_test(t, force_step2=True),
                double_exclusion_check(t), lafte_bounds(t),
                lafte_bounds(t, upper_se_method="delta"),
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
    def table():
        rng = np.random.default_rng(43)
        base = random_table(rng, n=300, cluster_size=5)
        return from_arrays(base.z, base.d1, base.d2, base.y,
                           controls=rng.standard_normal((300, 2)), cluster=base.cluster)

    fresh = list(_leaves(tau_bounds(table())))
    t = table()
    for d in TreatmentDef:
        first_stage(t, d)
    lafte_bounds(t)
    assert list(_leaves(tau_bounds(t))) == fresh
