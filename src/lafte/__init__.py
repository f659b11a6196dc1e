"""Instrument-based estimation of full-treatment effects with two-part treatments.

A two-part treatment (enroll, then stay enrolled) admits five one-number
summaries, and an instrument that moves people into only one part breaks the
usual exclusion restriction. This package estimates every summary's first
stage and IV estimand, identifies the complier-group shares under a double
exclusion restriction, tests the testable necessary conditions, computes
sharp and bounded-response partial-identification bounds on the local
average full treatment effect (LAFTE) with cluster-robust stacked standard
errors, and ships a principal-strata population simulator whose closed-form
moments machine-verify every identification identity.
"""

__version__ = "0.1.0"

import gc as _gc

# The import makes about 14,000 objects that the collector tracks (numpy's
# and this package's) and next to no garbage, so the 30-odd collections that
# its allocations would start find almost nothing: they are paused. Then a
# freeze and an unfreeze, which traverse nothing, move its objects to the
# oldest generation, where those collections would have moved them, so that
# no collection of them follows either. Objects a caller froze stay frozen.
_collecting = _gc.isenabled()
_gc.disable()
try:
    from .bounds import BoundsResult, lafte_bounds, lafte_bounds_bounded_response, tau_bounds
    from .data import DerivedColumns, ObservationTable, from_arrays, load_table, save_table
    from .diagnostics import (MoverTestReport, SignCheckReport, double_exclusion_check,
                              mover_conclusion, mover_test)
    from .estimands import (BINARY_DEFS, ComplierShares, EstimateWithSE, complier_shares,
                            first_stage, iv_estimand, reduced_form, slopes)
    from .exceptions import (BoundsError, ColumnMissingError, ConfigError, DataError,
                             DegenerateTestError, EstimationError, LafteError,
                             RankDeficientError, RelevanceError, SpecError)
    from .regression import FitResult, TestResult, linear_combination, ols, wald_joint
    from .strata import (AssumptionAudit, PopulationSpec, Stratum, TrueParams, analytic_moments,
                         group_probs, load_spec, random_spec, sample, save_spec, spec_from_dict,
                         spec_to_dict, stratum, true_parameters, validate_spec)
    from .verify import CheckResult, VerificationReport, verify_identities
finally:
    if _collecting:
        if not _gc.get_freeze_count():
            _gc.freeze()
            _gc.unfreeze()
        _gc.enable()

__all__ = [name for name in dir() if not name.startswith("_")]
