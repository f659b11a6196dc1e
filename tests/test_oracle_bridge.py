"""Exact bridge from the estimators to the closed-form oracle.

Each criterion-2 spec is rounded to stratum probabilities ``c_s / D`` and
turned into a table with ``c_s`` rows in each ``(stratum, z)`` cell. Each arm
then holds D rows whose column means are the population means, so every
sample contrast, IV slope and bound endpoint equals its closed form from
``analytic_moments`` up to rounding.
"""

import numpy as np
import pytest

from lafte import (
    BINARY_DEFS,
    PopulationSpec,
    RelevanceError,
    TreatmentDef,
    analytic_moments,
    complier_shares,
    first_stage,
    from_arrays,
    iv_estimand,
    lafte_bounds,
    lafte_bounds_bounded_response,
    mover_test,
    random_spec,
    stratum,
    tau_bounds,
)
from lafte.data import LABELS, RESPONSES
from lafte.estimands import RELEVANCE_TOLERANCE, contrast

DENOMINATOR = 1000
TOLERANCE = 1e-10


def _largest_remainders(probs, total):
    """Integer counts summing to ``total``, proportional to ``probs``."""
    exact = np.asarray(probs) * total
    counts = np.floor(exact).astype(int)
    short = total - counts.sum()
    counts[np.argsort(counts - exact, kind="stable")[:short]] += 1
    return counts


def _rounded(spec):
    counts = _largest_remainders([s.prob for s in spec.strata], DENOMINATOR)
    strata = tuple(s._replace(prob=c / DENOMINATOR, y_sd=0.0)
                   for s, c in zip(spec.strata, counts) if c)
    return PopulationSpec(strata, p_z=0.5, double_exclusion=spec.double_exclusion), counts[counts > 0]


def _cell_table(spec, counts):
    rows = [(z, s.d1(z), s.d2(z), s.outcome_mean(z))
            for s in spec.strata for z in (0, 1)]
    z, d1, d2, y = np.repeat(np.array(rows), np.repeat(counts, 2), axis=0).T
    return from_arrays(z.astype(int), d1.astype(int), d2.astype(int), y)


def _specs():
    rng = np.random.default_rng(20250809)
    return [_rounded(random_spec(rng, double_exclusion=bool(i % 2))) for i in range(200)]


def _ratio(num, den):
    return None if abs(den) <= RELEVANCE_TOLERANCE else num / den


def _assert_close(estimate, expected, what):
    assert abs(estimate - expected) <= TOLERANCE * max(1.0, abs(expected)), (
        what, estimate, expected)


def _check(compute, expected, what):
    """``compute()`` equals ``expected``: a number, a pair, or None for a
    closed-form first stage of zero, which must fail relevance."""
    if expected is None:
        with pytest.raises(RelevanceError):
            compute()
        return
    values = compute()
    if isinstance(expected, tuple):
        for value, target in zip(values, expected):
            _assert_close(value, target, what)
    else:
        _assert_close(values, expected, what)


def _check_spec(i, spec, counts):
    """Check every estimate of the spec's cell table; the number of IV
    estimands whose closed-form first stage is zero."""
    relevance_failures = 0
    t = _cell_table(spec, counts)
    m = analytic_moments(spec)
    fs1, fs_and, fs_sum = m["d1"], m["d_and"], m["d_sum"]

    for column in RESPONSES:
        est = contrast(t, column)
        assert est.definition == LABELS[column]
        _assert_close(est.value, m[column], (i, column))
    for d in TreatmentDef:
        _assert_close(first_stage(t, d).value, m[d.value], (i, d))
        expected = _ratio(m["y"], m[d.value])
        relevance_failures += expected is None
        _check(lambda: iv_estimand(t, d).value, expected, (i, "iv", d))

    shares = complier_shares(t)
    _check(lambda: (shares.p_full.value, shares.p_dropout.value,
                    shares.p_late_adopter.value),
           (m["d2"], m["g_or"], m["g_and"]), (i, "shares"))
    # Step 2's contrasts are those of gy_or and gy_and, checked above.
    step1 = mover_test(t).step1
    _check(lambda: (step1.or_minus_d2.value, step1.and_minus_d2.value),
           (m["g_or"], m["g_and"]), (i, "movers"))

    lower, upper = _ratio(m["y"], fs1), _ratio(m["dand_y"], fs_and)
    theorem1 = None if lower is None or upper is None else (
        lower, upper + m["untreated_y"] / fs1)
    _check(lambda: (lafte_bounds(t).lower.value, lafte_bounds(t).upper.value),
           theorem1, (i, "theorem1"))

    cells = [v for s in spec.strata for row in s.mean_y for v in row]
    ymin, ymax = min(cells), max(cells)
    bounded = None if _ratio(1.0, fs1) is None else tuple(sorted(
        ((m["kernel_y"] + ymin * m["g_or"] - ymax * m["g_and"]) / fs1,
         (m["kernel_y"] + ymax * m["g_or"] - ymin * m["g_and"]) / fs1)))

    def bounded_pair():
        b = lafte_bounds_bounded_response(t, ymin, ymax)
        return b.lower.value, b.upper.value
    _check(bounded_pair, bounded, (i, "bounded-response"))

    by_sum = _ratio(m["y"], fs_sum)
    by_max = _ratio(m["y"], max(m[d.value] for d in BINARY_DEFS))
    tau = None if by_sum is None or by_max is None else (
        tuple(sorted((by_sum, by_max))) if m["y"] < 0 else (by_sum, by_max))
    _check(lambda: (tau_bounds(t).lower.value, tau_bounds(t).upper.value),
           tau, (i, "tau"))
    return relevance_failures


def test_estimates_equal_closed_forms_on_exact_cell_tables():
    # A full-complier stratum keeps every first stage of these specs positive.
    assert sum(_check_spec(i, spec, counts) for i, (spec, counts) in enumerate(_specs())) == 0


def test_zero_closed_form_first_stage_fails_relevance():
    spec = PopulationSpec((stratum("N1C2", 0.3, {(0, 1): 2.0}),
                           stratum("A1A2", 0.2, {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0,
                                                 (1, 1): 4.0}),
                           stratum("N1N2", 0.5, {(0, 0): 0.5})), double_exclusion=False)
    # The d1 and d_and first stages are zero; d2, d_or and d_sum are not.
    assert _check_spec("no-first-part-compliers", spec, np.array([300, 200, 500])) == 2
