"""Testable necessary conditions: mover detection and double-exclusion signs.

Two instrument contrasts carry all the information:

* ``d_or - d2``  — identifies P[C1,N2] - P[A1,C2],
* ``d_and - d2`` — identifies P[C1,A2] - P[N1,C2],

and their outcome-weighted versions ``(d_or - d2)*y`` and ``(d_and - d2)*y``
pick up differences in potential-outcome levels between mover types of equal
proportion. The two-step procedure first jointly tests that both plain
contrasts are zero; only on a failure to reject does it test the
outcome-weighted pair. Either rejection flags that movers may be present; a
clean pass recommends standard IV for the full compliers.

The same plain contrasts must both be nonnegative for the double exclusion
restriction to be tenable, which the one-sided sign check tests directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import ObservationTable
from .estimands import EstimateWithSE, contrast, design
from .regression import TestResult, fit_stacked, one_sided_negativity, stack, wald_joint

JOINT_TEST_METHOD = "wald chi-square on the stacked cluster-robust covariance"

STEP2_CAVEAT = (
    "a failure to reject the outcome-weighted contrasts is also consistent with "
    "mover types of identical proportions and homogeneous potential outcomes")

MOVERS_STEP1 = "movers-detected-step1"
MOVERS_STEP2 = "movers-detected-step2"
NO_MOVERS = "no-movers-detected"

NO_MOVERS_RECOMMENDATION = (
    "no evidence of movers: standard IV approaches identify the full-treatment "
    "effect for the full compliers")


@dataclass(frozen=True)
class ContrastPair:
    """Both contrast estimates of one step plus their joint test."""

    or_minus_d2: EstimateWithSE
    and_minus_d2: EstimateWithSE
    joint: TestResult | None

    @property
    def p_value(self) -> float | None:
        return None if self.joint is None else self.joint.p_value


@dataclass(frozen=True)
class MoverTestReport:
    """Outcome of the two-step mover detection procedure."""

    step1: ContrastPair
    step2: ContrastPair | None
    conclusion: str
    level: float
    degenerate: tuple[str, ...]
    caveat: str = STEP2_CAVEAT
    method: str = JOINT_TEST_METHOD
    recommendation: str | None = None


@dataclass(frozen=True)
class SignCheckReport:
    """One-sided nonnegativity checks for the double exclusion restriction."""

    or_minus_d2: EstimateWithSE
    and_minus_d2: EstimateWithSE
    one_sided_p: tuple[float | None, float | None]
    verdict: str
    level: float


def mover_conclusion(p1: float | None, p2: float | None, level: float) -> str:
    """Pure decision rule mapping the two joint p-values to a conclusion.

    A missing p-value (degenerate joint test) cannot reject.
    """
    if p1 is not None and p1 < level:
        return MOVERS_STEP1
    if p2 is not None and p2 < level:
        return MOVERS_STEP2
    return NO_MOVERS


def _contrast_pair(table: ObservationTable, columns: tuple[str, str]):
    """Both contrast estimates and their joint test on the stacked system.

    Constant regressands are excluded from the joint test, reducing its
    degrees of freedom; with both regressands constant no test is possible.
    """
    estimates = [contrast(table, column) for column in columns]
    degenerate = [est.definition for est in estimates if est.degenerate]
    testable = [column for column, est in zip(columns, estimates) if not est.degenerate]
    joint = None
    if testable:
        w, _ = design(table)
        system = stack([(table.column(column), w) for column in testable], table.cluster_codes)
        joint = wald_joint(fit_stacked(system),
                           [system.coef_index(e, 1) for e in range(len(testable))])
    return ContrastPair(estimates[0], estimates[1], joint), degenerate


def mover_test(table: ObservationTable, *, level: float = 0.05,
               force_step2: bool = False) -> MoverTestReport:
    """Two-step test for the presence of movers.

    Step 1 jointly tests that the instrument contrasts of ``d_or - d2`` and
    ``d_and - d2`` are both zero; a rejection at ``level`` concludes
    movers-detected-step1. Otherwise step 2 jointly tests the
    outcome-weighted contrasts; a rejection concludes movers-detected-step2,
    and a second failure to reject concludes no-movers-detected (with the
    caveat that homogeneous potential outcomes also produce step-2 zeros).
    ``force_step2`` computes step 2 even when step 1 already rejected.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"significance level must be in (0,1), got {level}")
    step1, degenerate1 = _contrast_pair(table, ("g_or", "g_and"))

    step1_rejects = step1.p_value is not None and step1.p_value < level
    step2 = None
    degenerate2: list[str] = []
    if not step1_rejects or force_step2:
        step2, degenerate2 = _contrast_pair(table, ("gy_or", "gy_and"))

    conclusion = mover_conclusion(step1.p_value,
                                  None if step2 is None else step2.p_value, level)
    return MoverTestReport(
        step1=step1, step2=step2, conclusion=conclusion, level=level,
        degenerate=tuple(degenerate1 + degenerate2),
        recommendation=NO_MOVERS_RECOMMENDATION if conclusion == NO_MOVERS else None,
    )


def double_exclusion_check(table: ObservationTable, *, level: float = 0.05) -> SignCheckReport:
    """One-sided tests that both plain contrasts are nonnegative.

    The verdict is "rejected" when either contrast is significantly negative
    at ``level``, in which case the double exclusion restriction cannot be
    invoked; otherwise "consistent". A contrast of exactly zero sits on the
    boundary of the null (p = 0.5); a degenerate contrast (constant
    regressand) has no p-value and cannot reject.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"significance level must be in (0,1), got {level}")
    estimates = [contrast(table, "g_or"), contrast(table, "g_and")]
    p_values: list[float | None] = []
    for est in estimates:
        test = one_sided_negativity(est.value, est.se)
        p_values.append(None if test is None else test.p_value)
    rejected = any(p is not None and p < level for p in p_values)
    return SignCheckReport(
        or_minus_d2=estimates[0], and_minus_d2=estimates[1],
        one_sided_p=(p_values[0], p_values[1]),
        verdict="rejected" if rejected else "consistent", level=level,
    )
