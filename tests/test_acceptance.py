"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import functools
import time

import numpy as np
import pytest

from lafte import (
    DerivedColumns,
    PopulationSpec,
    analytic_moments,
    complier_shares,
    first_stage,
    from_arrays,
    iv_estimand,
    lafte_bounds,
    lafte_bounds_bounded_response,
    linear_combination,
    mover_test,
    ols,
    reduced_form,
    sample,
    slopes,
    stratum,
    verify_identities,
)
from lafte.estimands import REPORT_ORDER
from lafte.cli import RunConfig, run_bounds, run_diagnose, run_estimate

from conftest import FIX8_CSV, fix8_table, s2_spec, single_full_complier_spec
from test_regression import FIX8_STACKED_UPPER_SE, oracle_stacked_iv

REL = 1e-10


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL criterion {number}: {description}")
                raise
            print(f"\nPASS criterion {number}: {description}")
            return result
        return wrapper
    return decorate


def close(actual, expected, rel=REL):
    assert actual == pytest.approx(expected, rel=rel, abs=rel), \
        f"{actual!r} != {expected!r} at relative tolerance {rel}"


# ---------------------------------------------------------------------------


@criterion(1, "FIX8 exactness at 1e-10 relative, runtime < 1 s")
def test_criterion_1_fix8_exactness(tmp_path):
    path = tmp_path / "fix8.csv"
    path.write_text(FIX8_CSV, encoding="utf-8")

    start = time.perf_counter()
    est, _, _ = run_estimate(RunConfig(command="estimate", input=str(path)))
    diag, _, _ = run_diagnose(RunConfig(command="diagnose", input=str(path)))
    bnd, _, _ = run_bounds(RunConfig(command="bounds", input=str(path), ymin=0.0, ymax=3.0))
    elapsed = time.perf_counter() - start

    stages = est["estimates"]["first_stage"]
    for key, value in (("d1", 0.75), ("d2", 0.25), ("d_and", 0.5),
                       ("d_or", 0.5), ("d_sum", 1.0)):
        close(stages[key]["value"], value)
    close(est["estimates"]["reduced_form"]["value"], 1.0)
    ivs = est["estimates"]["iv_estimand"]
    for key, value in (("d1", 4 / 3), ("d2", 4.0), ("d_and", 2.0),
                       ("d_or", 2.0), ("d_sum", 1.0)):
        close(ivs[key]["value"], value)
    for key, value in (("p_full", 0.25), ("p_dropout", 0.25), ("p_late_adopter", 0.25)):
        close(est["shares"][key]["value"], value)

    mover = diag["diagnostics"]["mover_test"]
    close(mover["step1"]["or_minus_d2"]["value"], 0.25)
    close(mover["step1"]["and_minus_d2"]["value"], 0.25)
    close(mover["step2"]["or_minus_d2"]["value"], 0.25)
    close(mover["step2"]["and_minus_d2"]["value"], 0.5)

    close(bnd["bounds"]["theorem1"]["lower"]["value"], 4 / 3)
    close(bnd["bounds"]["theorem1"]["upper"]["value"], 8 / 3)
    close(bnd["bounds"]["bounded_response"]["lower"]["value"], 2 / 3)
    close(bnd["bounds"]["bounded_response"]["upper"]["value"], 8 / 3)
    close(bnd["bounds"]["tau"]["lower"]["value"], 1.0)
    close(bnd["bounds"]["tau"]["upper"]["value"], 4 / 3)

    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1 s"


@criterion(2, "identity battery clean on S2, the one-stratum spec, and 200 random specs, < 30 s")
def test_criterion_2_oracle_identities():
    start = time.perf_counter()
    for spec in (s2_spec(), single_full_complier_spec()):
        report = verify_identities(spec)
        assert report.all_passed, report.failures
        assert report.clean

    rng = np.random.default_rng(20250809)
    count_bounds_checked = 0
    for i in range(200):
        spec = random_spec_for_battery(rng, i)
        report = verify_identities(spec)
        assert report.all_passed, (i, report.failures)
        if any(c.name.startswith("lafte-bounds.") and c.applicable for c in report.checks):
            count_bounds_checked += 1
    # the battery must actually exercise the bound containments
    assert count_bounds_checked > 10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30 s"


def random_spec_for_battery(rng, i):
    from lafte import random_spec
    return random_spec(rng, double_exclusion=bool(i % 2))


@criterion(3, "sample estimands at n=100000 track analytic moments within 3 SEs, < 60 s")
def test_criterion_3_sampling_consistency():
    spec = s2_spec()
    moments = analytic_moments(spec)
    truth_rf = moments["y"]
    start = time.perf_counter()
    contains = 0
    for seed in (11, 12, 13):
        table = sample(spec, 100_000, seed)

        def within(est, truth):
            tol = (3 * est.se if est.se is not None else 0.0) + 1e-9
            assert abs(est.value - truth) <= tol, (est.definition, est.value, truth)

        for definition in REPORT_ORDER:
            within(first_stage(table, definition), moments[definition])
            within(iv_estimand(table, definition), truth_rf / moments[definition])
        within(reduced_form(table), truth_rf)
        shares = complier_shares(table)
        within(shares.p_full, 0.5)
        within(shares.p_dropout, 0.5)
        within(shares.p_late_adopter, 0.0)

        bounds = lafte_bounds(table)
        if bounds.lower.value <= 1.75 <= bounds.upper.value:
            contains += 1
    assert contains >= 2, f"theorem1 interval contained the LAFTE in {contains}/3 seeds"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60 s"


@criterion(4, "2SLS=Wald on 50 datasets; singleton clusters=HC1; stacked SE order-invariant and equal to the matrix oracle")
def test_criterion_4_inference_cross_checks():
    rng = np.random.default_rng(4444)

    # 2SLS equals the Wald ratio on 50 random no-controls datasets
    for _ in range(50):
        n = int(rng.integers(40, 200))
        z = rng.integers(0, 2, n)
        z[:2] = (0, 1)
        d = ((rng.random(n) < 0.25 + 0.5 * z)).astype(float)
        y = 2.0 * d + rng.standard_normal(n)
        num = y[z == 1].mean() - y[z == 0].mean()
        den = d[z == 1].mean() - d[z == 0].mean()
        if abs(den) < 0.05:
            continue
        close(iv_estimand(from_arrays(z, d, np.zeros(n, int), y), "d1").value,
              num / den)

    # cluster sandwich with singleton clusters equals HC1 exactly: the
    # documented factors (G/(G-1))((N-1)/(N-K)) and N/(N-K) coincide at G=N
    n = 120
    z = rng.integers(0, 2, n)
    z[:2] = (0, 1)
    y = rng.standard_normal(n)
    x = np.column_stack([np.ones(n), z, rng.standard_normal(n)])
    plain = ols(y, x)
    single = ols(y, x, cluster=np.arange(n))
    g, k = n, x.shape[1]
    factor_ratio = ((g / (g - 1)) * ((n - 1) / (n - k))) / (n / (n - k))
    np.testing.assert_allclose(single.vcov, plain.vcov * factor_ratio, rtol=REL)

    # stacked upper-bound SE: order invariance and the FIX8 oracle value
    t = fix8_table()
    pair = [("dand_y", "d_and"), ("untreated_y", "d1")]
    se_a = linear_combination(slopes(t, pair), [1.0, 1.0])[1]
    se_b = linear_combination(slopes(t, pair[::-1]), [1.0, 1.0])[1]
    close(se_a, se_b)
    close(se_a, FIX8_STACKED_UPPER_SE)
    _, _, oracle_se = _oracle_fix8_upper()
    close(se_a, oracle_se)

    bounds = lafte_bounds(t)
    close(bounds.upper.se, FIX8_STACKED_UPPER_SE)


def _oracle_fix8_upper():
    t = fix8_table()
    d = DerivedColumns.of(t.d1, t.d2, t.y)
    ones = np.ones(t.n)
    z = t.z.astype(float)
    eqs = [(d.dand_y, np.column_stack([ones, d.d_and]), np.column_stack([ones, z])),
           (d.untreated_y, np.column_stack([ones, t.d1]), np.column_stack([ones, z]))]
    b, V = oracle_stacked_iv(eqs, np.arange(t.n))
    return b, b[1] + b[3], float(np.sqrt(V[1, 1] + V[3, 3] + 2 * V[1, 3]))


@criterion(5, "bounded-response width identity on FIX8 and 50 random double-exclusion specs")
def test_criterion_5_width_identity():
    # sample version on the fixture
    t = fix8_table()
    result = lafte_bounds_bounded_response(t, 0, 3)
    shares = complier_shares(t)
    fs1 = first_stage(t, "d1").value
    width = (3 - 0) * (shares.p_dropout.value + shares.p_late_adopter.value) / fs1
    close(result.upper.value - result.lower.value, width)

    # analytic version on random double-exclusion populations
    from lafte import group_probs, random_spec
    rng = np.random.default_rng(5555)
    for _ in range(50):
        spec = random_spec(rng, double_exclusion=True)
        probs = group_probs(spec)
        moments = analytic_moments(spec)
        fs1 = moments["d1"]
        if fs1 <= 0:
            continue
        cells = [s.mean_y[i][j] for s in spec.strata for i in (0, 1) for j in (0, 1)]
        ymin, ymax = min(cells), max(cells)
        lower = (moments["kernel_y"] + ymin * moments["g_or"] - ymax * moments["g_and"]) / fs1
        upper = (moments["kernel_y"] + ymax * moments["g_or"] - ymin * moments["g_and"]) / fs1
        close(upper - lower,
              (ymax - ymin) * (probs["C1N2"] + probs["C1A2"]) / fs1)


@criterion(6, "constant (d_or - d2) renders '(.)', reduces the joint dof, exits 0")
def test_criterion_6_degenerate_case(tmp_path, capsys):
    # second-part enrollment implies first-part enrollment never lapses:
    # d2 >= d1 row-wise, so d_or - d2 is identically zero
    rng = np.random.default_rng(66)
    n = 400
    z = rng.integers(0, 2, n)
    z[:2] = (0, 1)
    d1 = (rng.random(n) < 0.2 + 0.5 * z).astype(int)
    d2 = np.maximum(d1, (rng.random(n) < 0.3).astype(int))
    y = d1 + d2 + rng.standard_normal(n)
    rows = ["z,d1,d2,y"] + [f"{z[i]},{d1[i]},{d2[i]},{float(y[i])!r}" for i in range(n)]
    path = tmp_path / "degenerate.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    from lafte.cli import main
    code = main(["diagnose", "--data", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "(.)" in out
    assert "0.000 (.)" in out

    sections, _, _ = run_diagnose(RunConfig(command="diagnose", input=str(path)))
    step1 = sections["diagnostics"]["mover_test"]["step1"]
    assert step1["or_minus_d2"]["se"] is None
    assert step1["joint"]["dof"] == 1


@criterion(7, "two-step conclusions correct in >= 95/100 seeded replications per spec")
def test_criterion_7_decision_rule():
    no_complier = PopulationSpec(strata=(
        stratum("N1N2", 0.3, {(0, 0): 1.0}, y_sd=1.0),
        stratum("A1A2", 0.3, {(1, 1): 2.0}, y_sd=1.0),
        stratum("N1A2", 0.2, {(0, 1): 1.5}, y_sd=1.0),
        stratum("A1N2", 0.2, {(1, 0): 0.5}, y_sd=1.0),
    ), p_z=0.5)
    equal_share_movers = PopulationSpec(strata=(
        stratum("C1C2", 0.5, {(0, 0): 0.0, (1, 1): 2.0}, y_sd=1.0),
        stratum("C1N2", 0.1, {(0, 0): 0.0, (1, 0): 5.0, (1, 1): 5.0}, y_sd=1.0),
        stratum("A1C2", 0.1, {(1, 0): 0.0, (1, 1): 1.0}, y_sd=1.0),
        stratum("N1A2", 0.1, {(0, 1): 1.0}, y_sd=1.0),
        stratum("N1N2", 0.2, {(0, 0): 0.0}, y_sd=1.0),
    ), p_z=0.5)

    # the published analyses narrate significance at the 1% level
    level = 0.01
    hits_i = sum(
        mover_test(sample(no_complier, 100_000, seed), level=level).conclusion
        == "no-movers-detected"
        for seed in range(1000, 1100))
    hits_ii = sum(
        mover_test(sample(equal_share_movers, 100_000, seed), level=level).conclusion
        == "movers-detected-step2"
        for seed in range(2000, 2100))
    assert hits_i >= 95, f"no-complier spec: {hits_i}/100 correct conclusions"
    assert hits_ii >= 95, f"equal-share-mover spec: {hits_ii}/100 correct conclusions"
