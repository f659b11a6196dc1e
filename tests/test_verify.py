import numpy as np
import pytest

from lafte import (
    PopulationSpec,
    SpecError,
    random_spec,
    stratum,
    verify_identities,
)
from lafte.report import render_verification, verification_dict
from lafte.verify import CheckResult, VerificationReport

from conftest import single_full_complier_spec


def names(report):
    return {c.name for c in report.checks}


def test_s2_clean(s2):
    report = verify_identities(s2)
    assert report.all_passed and report.clean
    done = names(report)
    assert "double-exclusion.reduced-form" in done
    assert "lafte-bounds.containment.lower" in done
    assert "bounded-response.width" in done
    assert "tau-bounds.containment.upper" in done
    assert "iv-decomposition.d1" in done


def test_single_full_complier_sharpness():
    report = verify_identities(single_full_complier_spec())
    assert report.clean
    sharp = [c for c in report.checks if c.name == "lafte-bounds.sharpness"]
    assert sharp and sharp[0].passed
    no_movers = [c for c in report.checks if c.name.startswith("no-movers.")]
    assert len(no_movers) == 4 and all(c.passed for c in no_movers)


def test_not_invocable_flag():
    spec = PopulationSpec(strata=(
        stratum("C1C2", 0.6, {(1, 1): 2.0}),
        stratum("N1C2", 0.2, {(0, 1): 5.0}),
        stratum("N1N2", 0.2, {}),
    ))
    report = verify_identities(spec)
    assert report.all_passed          # the identities themselves hold
    assert not report.clean           # but the sign flag fires
    assert any("not invocable" in f for f in report.flags)
    # the negative contrast is the d_and - d2 one
    plain_and = next(c for c in report.checks if c.name == "mover-contrast.plain.and")
    assert plain_and.lhs == pytest.approx(-0.2, rel=1e-12)


def test_equal_share_movers_need_outcome_contrast():
    # dropout movers of equal proportion: plain contrasts vanish, the
    # outcome-weighted one does not
    spec = PopulationSpec(strata=(
        stratum("C1C2", 0.6, {(1, 1): 2.0}),
        stratum("C1N2", 0.15, {(1, 0): 5.0}),
        stratum("A1C2", 0.15, {(1, 0): 1.0}),
        stratum("N1N2", 0.1, {}),
    ))
    report = verify_identities(spec)
    assert report.all_passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["mover-contrast.plain.or"].lhs == pytest.approx(0.0, abs=1e-15)
    assert by_name["mover-contrast.outcome.or"].lhs == pytest.approx(
        0.15 * 5.0 - 0.15 * 1.0, rel=1e-12)


def test_homogeneity_check_applies():
    # the dropout stratum's full effect equals its first-part effect, so the
    # d1 homogeneity row holds while the d2 row fails
    spec = PopulationSpec(strata=(
        stratum("C1C2", 0.6, {(0, 0): 0.0, (1, 1): 2.0}),
        stratum("C1N2", 0.4, {(0, 0): 0.0, (1, 0): 5.0, (1, 1): 5.0}),
    ), double_exclusion=True)
    report = verify_identities(spec)
    assert report.all_passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["homogeneous-movers.d1"].applicable
    assert by_name["homogeneous-movers.d1"].passed
    # beta(D1) = (0.6*2 + 0.4*5) / 1 = 3.2 equals the grouped full effect
    assert by_name["homogeneous-movers.d1"].lhs == pytest.approx(3.2, rel=1e-12)
    assert not by_name["homogeneous-movers.d2"].applicable


def _spec_satisfying_homogeneity(definition, rng):
    """One stratum per complier group, cell means projected so that the
    definition's homogeneity conditions hold: each condition reduces to a
    single cell equality (m11=m10, m00=m01, m00=m10, or m11=m01)."""
    from lafte.strata import HOMOGENEITY_CONDITIONS, MOVER_TYPES

    conditions = {group: cells for groups, cells in zip(MOVER_TYPES,
                                                          HOMOGENEITY_CONDITIONS[definition])
                  for group in groups}
    strata = []
    groups = ("C1C2", "C1N2", "C1A2", "N1C2", "A1C2")
    probs = (0.4, 0.15, 0.15, 0.15, 0.15)
    for group, prob in zip(groups, probs):
        m = {cell: float(rng.uniform(0, 10)) for cell in
             ((0, 0), (0, 1), (1, 0), (1, 1))}
        cells = conditions.get(group)
        if cells is not None:
            (hi, lo) = cells
            # full effect m11 - m00 must equal m[hi] - m[lo]
            if cells == ((1, 0), (0, 0)):
                m[(1, 1)] = m[(1, 0)]
            elif cells == ((1, 1), (0, 1)):
                m[(0, 0)] = m[(0, 1)]
            elif cells == ((1, 1), (1, 0)):
                m[(0, 0)] = m[(1, 0)]
            elif cells == ((0, 1), (0, 0)):
                m[(1, 1)] = m[(0, 1)]
        strata.append(stratum(group, prob, m))
    return PopulationSpec(strata=tuple(strata))


@pytest.mark.parametrize("definition", ["d1", "d2", "d_and", "d_or"])
def test_homogeneity_collapse_every_definition(definition):
    from lafte import validate_spec

    rng = np.random.default_rng(hash(definition) % 2 ** 31)
    for _ in range(10):
        spec = _spec_satisfying_homogeneity(definition, rng)
        audit = validate_spec(spec)
        assert audit.homogeneity[definition]
        report = verify_identities(spec)
        assert report.all_passed, report.failures
        check = next(c for c in report.checks
                     if c.name == f"homogeneous-movers.{definition}")
        assert check.applicable and check.passed


def test_random_specs_all_pass():
    rng = np.random.default_rng(77)
    for _ in range(60):
        report = verify_identities(random_spec(rng))
        assert report.all_passed, report.failures
    for _ in range(40):
        report = verify_identities(random_spec(rng, double_exclusion=True))
        assert report.all_passed, report.failures
        assert report.clean  # double exclusion specs can never flag


def test_failures_carry_both_sides(s2):
    report = verify_identities(s2)
    for c in report.checks:
        if c.applicable:
            assert c.lhs is not None and c.rhs is not None


def test_invalid_spec_raises():
    with pytest.raises(SpecError):
        verify_identities(PopulationSpec(strata=(stratum("C1C2", 0.4, {}),)))


def test_a_failed_check_is_shown_and_counted():
    report = VerificationReport(checks=(
        CheckResult("first.identity", True, True, 1.0, 1.0),
        CheckResult("second.identity", True, False, 1.0, 2.5, "off by 1.5"),
        CheckResult("third.identity", False, False, note="no movers"),
    ), flags=("not invocable",), tolerance=1e-9)
    assert render_verification(verification_dict(report)) == (
        "identity checks (tolerance 1e-09)\n"
        "  [PASS ] first.identity                             lhs=1 rhs=1\n"
        "  [FAIL ] second.identity                            lhs=1 rhs=2.5  (off by 1.5)\n"
        "  [ n/a ] third.identity                             no movers\n"
        "  [FLAG ] not invocable\n"
        "1 check(s) failed")
