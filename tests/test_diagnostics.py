import numpy as np
import pytest

from lafte import (
    PopulationSpec,
    double_exclusion_check,
    from_arrays,
    mover_conclusion,
    mover_test,
    sample,
    slopes,
    stratum,
)

from conftest import random_table


def test_fix8_step1_contrasts(fix8):
    report = mover_test(fix8)
    assert report.step1.or_minus_d2.value == pytest.approx(0.25, rel=1e-12)
    assert report.step1.and_minus_d2.value == pytest.approx(0.25, rel=1e-12)
    assert report.step1.joint.dof == 2
    assert report.step2 is not None  # step 1 does not reject on 8 rows
    assert report.step2.or_minus_d2.value == pytest.approx(0.25, rel=1e-12)
    assert report.step2.and_minus_d2.value == pytest.approx(0.5, rel=1e-12)
    assert report.conclusion == "no-movers-detected"
    assert report.recommendation is not None
    assert "homogeneous" in report.caveat


def test_decision_rule_pure_function():
    assert mover_conclusion(0.01, None, 0.05) == "movers-detected-step1"
    assert mover_conclusion(0.2, 0.01, 0.05) == "movers-detected-step2"
    assert mover_conclusion(0.2, 0.2, 0.05) == "no-movers-detected"
    assert mover_conclusion(None, None, 0.05) == "no-movers-detected"
    assert mover_conclusion(0.04, 0.9, 0.05) == "movers-detected-step1"
    # the level is a parameter, not a constant
    assert mover_conclusion(0.04, 0.9, 0.01) == "no-movers-detected"


def test_step2_skipped_on_step1_rejection():
    spec = PopulationSpec(strata=(
        stratum("C1C2", 0.4, {(1, 1): 2.0}, y_sd=1.0),
        stratum("C1N2", 0.4, {(1, 0): 3.0}, y_sd=1.0),
        stratum("N1N2", 0.2, {}, y_sd=1.0),
    ), p_z=0.5, double_exclusion=True)
    table = sample(spec, 20_000, seed=2)
    report = mover_test(table)
    assert report.conclusion == "movers-detected-step1"
    assert report.step2 is None


def test_degenerate_contrast_reduces_dof():
    # d2 >= d1 everywhere: d_or equals d2 and the first contrast is constant
    t = from_arrays([1, 1, 1, 0, 0, 0, 0, 0],
                    [1, 0, 0, 0, 0, 0, 0, 0],
                    [1, 1, 0, 1, 0, 1, 0, 0],
                    [1.0, 2.0, 0.5, 1.5, 0.0, 1.0, 0.2, 0.1])
    report = mover_test(t)
    assert "D∨−D2" in report.degenerate
    assert report.step1.or_minus_d2.value == 0.0
    assert report.step1.or_minus_d2.se is None
    assert report.step1.joint.dof == 1

    sign = double_exclusion_check(t)
    assert sign.one_sided_p[0] is None
    assert sign.one_sided_p[1] is not None


def test_all_contrasts_degenerate():
    # perfect compliance: d1 == d2 == z, every contrast regressand constant
    t = from_arrays([1, 1, 1, 0, 0, 0],
                    [1, 1, 1, 0, 0, 0],
                    [1, 1, 1, 0, 0, 0],
                    [2.0, 1.0, 3.0, 0.0, 1.0, 0.5])
    report = mover_test(t)
    assert report.step1.joint is None
    assert report.step2.joint is None
    assert report.conclusion == "no-movers-detected"
    sign = double_exclusion_check(t)
    assert sign.verdict == "consistent"
    assert sign.one_sided_p == (None, None)


def test_exact_zero_contrast_boundary_p():
    # equal dropout rates in both arms: contrast exactly zero, p = 0.5
    t = from_arrays([1, 1, 1, 1, 0, 0, 0, 0],
                    [1, 1, 0, 0, 1, 1, 0, 0],
                    [0, 1, 0, 0, 0, 1, 0, 0],
                    [1.0, 2.0, 0.0, 1.0, 1.5, 2.5, 0.5, 0.0])
    sign = double_exclusion_check(t)
    assert sign.or_minus_d2.value == pytest.approx(0.0, abs=1e-12)
    assert sign.one_sided_p[0] == pytest.approx(0.5, rel=1e-12)
    assert sign.verdict == "consistent"


def test_sign_check_rejects_negative_contrast():
    # late-adopters induced by the instrument directly: negative d_and - d2 contrast
    spec = PopulationSpec(strata=(
        stratum("C1C2", 0.5, {(1, 1): 1.0}, y_sd=0.5),
        stratum("N1C2", 0.3, {(0, 1): 2.0}, y_sd=0.5),
        stratum("N1N2", 0.2, {}, y_sd=0.5),
    ), p_z=0.5)
    table = sample(spec, 20_000, seed=3)
    sign = double_exclusion_check(table)
    assert sign.and_minus_d2.value < 0
    assert sign.one_sided_p[1] < 0.01
    assert sign.verdict == "rejected"


def test_level_validation(fix8):
    with pytest.raises(ValueError):
        mover_test(fix8, level=0.0)
    with pytest.raises(ValueError):
        double_exclusion_check(fix8, level=1.5)


def test_equal_proportions_detected_only_by_step2():
    # dropout movers of equal share on both sides with different outcome
    # levels: plain contrasts are zero, outcome-weighted contrast is not
    spec = PopulationSpec(strata=(
        stratum("C1C2", 0.5, {(0, 0): 0.0, (1, 1): 2.0}, y_sd=1.0),
        stratum("C1N2", 0.1, {(0, 0): 0.0, (1, 0): 5.0, (1, 1): 5.0}, y_sd=1.0),
        stratum("A1C2", 0.1, {(1, 0): 0.0, (1, 1): 1.0}, y_sd=1.0),
        stratum("N1A2", 0.1, {(0, 1): 1.0}, y_sd=1.0),
        stratum("N1N2", 0.2, {}, y_sd=1.0),
    ), p_z=0.5)
    table = sample(spec, 100_000, seed=4)
    report = mover_test(table, level=0.01)
    assert report.conclusion == "movers-detected-step2"
    assert abs(report.step1.or_minus_d2.value) < 0.02
    assert report.step2.or_minus_d2.value == pytest.approx(0.5, abs=0.05)


def test_the_mover_test_names_the_covariance_it_used():
    # The joint tests use the cluster-robust covariance on a table with
    # clusters and HC1 on one without, and the report says which.
    clustered = random_table(np.random.default_rng(90), n=200, cluster_size=4)
    plain = from_arrays(clustered.z, clustered.d1, clustered.d2, clustered.y)
    for table, kind, method in (
            (clustered, "cluster", "wald chi-square on the stacked cluster-robust covariance"),
            (plain, "hc1", "wald chi-square on the stacked HC1 covariance")):
        assert mover_test(table).method == method
        assert slopes(table, [("g_or", None), ("g_and", None)]).covariance_kind == kind
