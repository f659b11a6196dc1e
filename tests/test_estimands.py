import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lafte import (
    RelevanceError,
    TreatmentDef,
    complier_shares,
    first_stage,
    from_arrays,
    iv_estimand,
    reduced_form,
    slopes,
)



FIX8_FIRST_STAGES = {
    TreatmentDef.FIRST: 0.75,
    TreatmentDef.SECOND: 0.25,
    TreatmentDef.BOTH: 0.5,
    TreatmentDef.EITHER: 0.5,
    TreatmentDef.SUM: 1.0,
}

FIX8_IV = {
    TreatmentDef.FIRST: 4 / 3,
    TreatmentDef.SECOND: 4.0,
    TreatmentDef.BOTH: 2.0,
    TreatmentDef.EITHER: 2.0,
    TreatmentDef.SUM: 1.0,
}


def test_fix8_first_stages(fix8):
    for definition, expected in FIX8_FIRST_STAGES.items():
        est = first_stage(fix8, definition)
        assert est.value == pytest.approx(expected, rel=1e-12)
        assert est.n == 8
        assert est.definition == definition.label


def test_fix8_reduced_form(fix8):
    assert reduced_form(fix8).value == pytest.approx(1.0, rel=1e-12)


def test_fix8_iv_estimands(fix8):
    for definition, expected in FIX8_IV.items():
        assert iv_estimand(fix8, definition).value == pytest.approx(expected, rel=1e-12)


def test_fix8_shares(fix8):
    shares = complier_shares(fix8)
    assert shares.p_full.value == pytest.approx(0.25, rel=1e-12)
    assert shares.p_dropout.value == pytest.approx(0.25, rel=1e-12)
    assert shares.p_late_adopter.value == pytest.approx(0.25, rel=1e-12)
    assert not shares.warnings


def test_constant_outcome_reduced_form():
    t = from_arrays([1, 1, 0, 0], [1, 0, 0, 1], [1, 0, 1, 0], [2.0, 2.0, 2.0, 2.0])
    est = reduced_form(t)
    assert est.value == 0.0
    assert est.se is None and est.ci_low is None


def test_ci_brackets_value(fix8):
    for definition in TreatmentDef:
        est = first_stage(fix8, definition)
        assert est.ci_low <= est.value <= est.ci_high
        assert est.ci_high - est.value == pytest.approx(1.96 * est.se, rel=1e-12)


@st.composite
def small_tables(draw):
    n = draw(st.integers(8, 24))
    z = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    d1 = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    d2 = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    y = draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n))
    assume(sum(z) >= 2 and n - sum(z) >= 2)
    return from_arrays(z, d1, d2, y)


@given(small_tables())
@settings(max_examples=50, deadline=None)
def test_first_stage_additivity(table):
    # d_and + d_or = d1 + d2 row-wise, so the coefficients add up
    lhs = (first_stage(table, TreatmentDef.EITHER).value
           + first_stage(table, TreatmentDef.BOTH).value)
    rhs = (first_stage(table, TreatmentDef.FIRST).value
           + first_stage(table, TreatmentDef.SECOND).value)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@given(small_tables())
@settings(max_examples=50, deadline=None)
def test_iv_times_first_stage_is_reduced_form(table):
    rf = reduced_form(table).value
    for definition in TreatmentDef:
        fs = first_stage(table, definition).value
        assume(abs(fs) > 1e-6)
        beta = iv_estimand(table, definition).value
        assert beta * fs == pytest.approx(rf, rel=1e-8, abs=1e-8)


@given(small_tables())
@settings(max_examples=50, deadline=None)
def test_shares_sum_to_d1_first_stage(table):
    shares = complier_shares(table)
    total = shares.p_full.value + shares.p_dropout.value + shares.p_late_adopter.value
    fs = first_stage(table, TreatmentDef.FIRST).value
    assert total == pytest.approx(fs, rel=1e-10, abs=1e-10)


def test_first_stage_additivity_with_controls():
    rng = np.random.default_rng(23)
    n = 250
    z = rng.integers(0, 2, n)
    z[:2] = (0, 1)
    d1 = (rng.random(n) < 0.3 + 0.4 * z).astype(int)
    d2 = (rng.random(n) < 0.2 + 0.4 * d1).astype(int)
    x = rng.standard_normal((n, 2))
    t = from_arrays(z, d1, d2, rng.standard_normal(n), controls=x)
    lhs = (first_stage(t, TreatmentDef.EITHER).value
           + first_stage(t, TreatmentDef.BOTH).value)
    rhs = (first_stage(t, TreatmentDef.FIRST).value
           + first_stage(t, TreatmentDef.SECOND).value)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_shares_sum_identity_with_controls():
    rng = np.random.default_rng(21)
    n = 300
    z = rng.integers(0, 2, n)
    z[:2] = (0, 1)
    d1 = (rng.random(n) < 0.2 + 0.5 * z).astype(int)
    d2 = (rng.random(n) < 0.1 + 0.3 * d1).astype(int)
    y = d1 + d2 + rng.standard_normal(n)
    x = rng.standard_normal((n, 3))
    t = from_arrays(z, d1, d2, y, controls=x)
    shares = complier_shares(t)
    total = shares.p_full.value + shares.p_dropout.value + shares.p_late_adopter.value
    fs = first_stage(t, TreatmentDef.FIRST).value
    assert total == pytest.approx(fs, rel=1e-10)


def test_negative_share_warned():
    # more second-part enrollment in the control arm: negative p_full
    t = from_arrays([1, 1, 1, 0, 0, 0],
                    [1, 1, 0, 0, 0, 0],
                    [0, 0, 0, 1, 1, 0],
                    [1.0, 2.0, 0.0, 3.0, 1.0, 0.0])
    shares = complier_shares(t)
    assert shares.p_full.value < 0
    assert any("negative share" in w for w in shares.warnings)


def test_joint_share_covariance(fix8):
    shares = complier_shares(fix8)
    joint_vcov = slopes(fix8, [("d2", None), ("g_or", None), ("g_and", None)]).vcov
    assert joint_vcov.shape == (3, 3)
    np.testing.assert_allclose(joint_vcov, joint_vcov.T, rtol=1e-10)
    # block-diagonal coefficients: each diagonal entry is the per-share HC1
    # variance rescaled by the stacked system's small-sample factor
    g, n_stacked, k_stacked = 8, 24, 6
    stacked_factor = (g / (g - 1)) * ((n_stacked - 1) / (n_stacked - k_stacked))
    hc1_factor = 8 / (8 - 2)
    ratio = stacked_factor / hc1_factor
    for i, est in enumerate((shares.p_full, shares.p_dropout, shares.p_late_adopter)):
        assert joint_vcov[i, i] == pytest.approx(ratio * est.se ** 2, rel=1e-10)


def test_relevance_error_names_definition():
    # d2 never responds: zero first stage for the second part
    t = from_arrays([1, 1, 1, 0, 0, 0],
                    [1, 1, 0, 0, 0, 0],
                    [0, 0, 0, 0, 0, 0],
                    [1.0, 2.0, 0.0, 3.0, 1.0, 0.0])
    with pytest.raises(RelevanceError, match="D2"):
        iv_estimand(t, TreatmentDef.SECOND)


def test_use_controls_flag():
    rng = np.random.default_rng(22)
    n = 200
    z = rng.integers(0, 2, n)
    z[:2] = (0, 1)
    d1 = (rng.random(n) < 0.2 + 0.5 * z).astype(int)
    d2 = (rng.random(n) < 0.2 + 0.5 * d1).astype(int)
    x = rng.standard_normal((n, 1))
    y = d1 + x[:, 0] + rng.standard_normal(n)
    # The table decides the design: estimates without controls come from a
    # table built without them.
    with_controls = first_stage(from_arrays(z, d1, d2, y, controls=x), TreatmentDef.FIRST)
    without = first_stage(from_arrays(z, d1, d2, y), TreatmentDef.FIRST)
    assert with_controls.value != without.value
