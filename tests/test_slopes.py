"""``estimands.slopes``: the one path from a table to its fits, read off one fit per table."""

import ast
import dataclasses
import importlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lafte
from lafte import (
    RankDeficientError,
    RelevanceError,
    TreatmentDef,
    estimands,
    from_arrays,
    iv_estimand,
    ols,
    regression,
    slopes,
)
from lafte.data import RESPONSES, DerivedColumns

from conftest import random_table
from test_regression import _se, oracle_stacked_iv

SRC = Path(lafte.__file__).resolve().parent

# The modules that may build designs and call the fit core; every other
# module reaches the fits through ``estimands.slopes``. ``__init__`` only
# re-exports the public API.
FIT_LAYER = {"data", "regression", "estimands", "__init__"}
FIT_NAMES = {"ols", "cluster_codes"}

# The north-star agreement rule between two ways of computing one number.
REL = 1e-12


def _table(controls: bool, cluster: bool, seed=61, n=240):
    rng = np.random.default_rng(seed)
    base = random_table(rng, n=n, cluster_size=4 if cluster else 0)
    return from_arrays(base.z, base.d1, base.d2, base.y,
                       controls=rng.standard_normal((n, 2)) if controls else None,
                       control_names=("age", "income") if controls else (),
                       cluster=base.cluster)


TABLES = [pytest.param(c, g, id=f"controls={c}-cluster={g}")
          for c in (False, True) for g in (False, True)]


def _iv_design(w, d):
    """``W`` with the instrument column replaced by the treatment ``d``."""
    x = w.copy()
    x[:, 1] = d
    return x


def _stacked_reference(t, equations):
    """The slopes of ``equations`` and their covariance by the dense stacking
    oracle, and the stacked fit's ``(n, dof, covariance_kind, cluster_count)``."""
    w = np.column_stack([np.ones(t.n), t.z, t.controls])
    columns = DerivedColumns.of(t.d1, t.d2, t.y)
    system = [(columns.column(r), w if d is None else _iv_design(w, columns.column(d)), w)
              for r, d in equations]
    clustered = t.cluster_codes is not None
    b, v = oracle_stacked_iv(system, t.cluster_codes if clustered else np.arange(t.n))
    m, k = len(equations), w.shape[1]
    idx = [e * k + 1 for e in range(m)]
    meta = (m * t.n, m * (t.n - k), "cluster" if clustered else "hc1",
            t.cluster_count if clustered else None)
    return meta, b[idx], v[np.ix_(idx, idx)]


@pytest.mark.parametrize("controls, cluster", TABLES)
def test_single_equation_equals_ols_and_the_oracle(controls, cluster):
    t = _table(controls, cluster)
    w = np.column_stack([np.ones(t.n), t.z, t.controls])
    columns = DerivedColumns.of(t.d1, t.d2, t.y)
    for d in TreatmentDef:
        fs = slopes(t, [(d.value, None)])
        ref = ols(columns.column(d.value), w, t.cluster_codes)
        np.testing.assert_allclose([fs.coefficients[0], _se(fs, 0)],
                                   [ref.coefficients[1], _se(ref, 1)], rtol=REL, atol=0)
        assert (fs.k, fs.cluster_count) == (1, ref.cluster_count)

        iv = slopes(t, [("y", d.value)])
        meta, coefficients, vcov = _stacked_reference(t, [("y", d.value)])
        np.testing.assert_allclose([iv.coefficients[0], _se(iv, 0)],
                                   [coefficients[0], np.sqrt(vcov[0, 0])], rtol=REL, atol=0)
        assert (iv.k, iv.cluster_count) == (1, meta[3])


@pytest.mark.parametrize("controls, cluster", TABLES)
def test_multi_equation_equals_the_stacking_oracle(controls, cluster):
    t = _table(controls, cluster)
    equations = [("dand_y", "d_and"), ("g_or", None), ("untreated_y", "d1"), ("kernel_y", "d1")]
    fit = slopes(t, equations)
    meta, coefficients, vcov = _stacked_reference(t, equations)
    np.testing.assert_allclose(fit.coefficients, coefficients, rtol=REL, atol=0)
    np.testing.assert_allclose(fit.vcov, vcov, rtol=REL, atol=0)
    assert (fit.k, fit.n, fit.dof, fit.covariance_kind, fit.cluster_count) == (4, *meta)
    assert fit.names == ("dand_y~d_and", "g_or", "untreated_y~d1", "kernel_y~d1")


# Every request the analysis functions make: single contrasts and IV slopes,
# the Wald pairs of the mover test, the theorem1 upper pair, the
# bounded-response triple, the delta-method four-tuple and the share triple.
REQUESTS = (
    [[(c, None)] for c in RESPONSES]
    + [[("y", d.value)] for d in TreatmentDef]
    + [[("g_or", None), ("g_and", None)], [("gy_or", None), ("gy_and", None)],
       [("dand_y", "d_and"), ("untreated_y", "d1")],
       [(c, "d1") for c in ("kernel_y", "g_or", "g_and")],
       [(c, None) for c in ("dand_y", "d_and", "untreated_y", "d1")],
       [(c, None) for c in ("d2", "g_or", "g_and")]]
)


@pytest.mark.parametrize("seed", [71, 72, 73])
@pytest.mark.parametrize("controls, cluster", TABLES)
def test_every_request_equals_its_stacked_fit(controls, cluster, seed):
    t = _table(controls, cluster, seed=seed, n=300)
    for equations in REQUESTS:
        fit = slopes(t, equations)
        meta, coefficients, vcov = _stacked_reference(t, equations)
        np.testing.assert_allclose(fit.coefficients, coefficients, rtol=REL, atol=0)
        np.testing.assert_allclose(fit.vcov, vcov, rtol=REL, atol=0)
        assert (fit.n, fit.dof, fit.covariance_kind, fit.cluster_count) == meta
        assert not fit.response_constant


BLOCK = regression._CHUNK_ROWS
BLOCKED = [pytest.param(n, c, g, k, id=f"n={n}-controls={c}-cluster={g}-constant={k}")
           for n in (3, BLOCK, 3 * BLOCK + 5) for c in (False, True) for g in (False, True)
           for k in (False, True) if n > 3 or not c]


def _blocked_table(n, controls, clustered, constant):
    rng = np.random.default_rng(n + 2 * controls + clustered)
    z = np.arange(n) % 2
    d1 = (rng.random(n) < 0.3 + 0.4 * z).astype(int)
    # With d2 = d1, g_or and g_and are the constant 0.
    d2 = d1 if constant else (rng.random(n) < 0.2 + 0.3 * z + 0.2 * d1).astype(int)
    # Clusters of 7 rows in row order straddle the block edges, as 16384 is
    # not a multiple of 7; 3 rows make two clusters.
    return from_arrays(z, d1, d2, 0.5 * d1 + (d1 & d2) + rng.standard_normal(n),
                       controls=rng.standard_normal((n, 2)) if controls else None,
                       cluster=np.arange(n) // min(7, n - 1) if clustered else None)


def _assert_vcov_close(vcov, ref):
    """``vcov`` is ``ref`` to ``REL`` of the product of the two SDs, with
    the same zero variances."""
    sd = np.sqrt(np.diag(ref))
    assert np.array_equal(sd == 0, np.diag(vcov) == 0)
    varied = np.ix_(sd > 0, sd > 0)
    scale = np.outer(sd, sd)[varied]
    assert np.max(np.abs(vcov[varied] - ref[varied]) / scale) <= REL


@pytest.mark.parametrize("n, controls, clustered, constant", BLOCKED)
def test_blocked_table_fit_equals_whole_array_fit(monkeypatch, n, controls, clustered, constant):
    t = _blocked_table(n, controls, clustered, constant)
    fit = estimands._table_fit(t)
    # The dense design, controls centred, with all 13 columns held at once
    # and fit in one block; and the raw design [1, z, controls].
    raw = np.column_stack([np.ones(n), t.z, t.controls])
    centred = raw - np.r_[0.0, 0.0, t.controls.mean(0)]
    values = DerivedColumns.of(t.d1, t.d2, t.y).values
    monkeypatch.setattr(regression, "_CHUNK_ROWS", n + 1)
    ref = ols(values, centred, t.cluster_codes)
    np.testing.assert_allclose(fit.coefficients, ref.coefficients, rtol=REL, atol=0)
    _assert_vcov_close(fit.vcov, ref.vcov)
    # The z slopes and their covariance are those of the raw design.
    by_raw = ols(values, raw, t.cluster_codes)
    z_slopes = slice(1, None, raw.shape[1])
    np.testing.assert_allclose(fit.coefficients[z_slopes], by_raw.coefficients[z_slopes],
                               rtol=REL, atol=0)
    _assert_vcov_close(fit.vcov[z_slopes, z_slopes], by_raw.vcov[z_slopes, z_slopes])
    assert np.array_equal(fit.response_min, values.min(0))
    assert np.array_equal(fit.response_max, values.max(0))
    assert (fit.n, fit.k, fit.dof, fit.covariance_kind, fit.cluster_count) == (
        ref.n, ref.k, ref.dof, ref.covariance_kind, ref.cluster_count)
    if constant:
        constant_columns = [RESPONSES.index("g_or"), RESPONSES.index("g_and")]
        assert not fit.response_max[constant_columns].any()
        assert not fit.response_min[constant_columns].any()


@pytest.mark.parametrize("shift", [1e3, 1e4, 1e5, 1e6, 1e7])
def test_a_control_with_a_large_mean_fits_as_if_centred(monkeypatch, shift):
    # A control at mean/SD `shift`, as a date or an income can be: the z
    # slopes and SEs are those of the dense design with the control centred,
    # and the slopes are lstsq's on it; no full-rank design is refused. The
    # same control twice is still refused, and named.
    n = 5000
    rng = np.random.default_rng(83)
    z = np.arange(n) % 2
    d1 = (rng.random(n) < 0.3 + 0.4 * z).astype(int)
    d2 = (rng.random(n) < 0.2 + 0.3 * z + 0.2 * d1).astype(int)
    noise = rng.standard_normal(n)
    y = 0.5 * d1 + (d1 & d2) + 0.3 * noise + rng.standard_normal(n)
    t = from_arrays(z, d1, d2, y, controls=shift + noise, control_names=("date",))
    fit = estimands._table_fit(t)
    w = np.column_stack([np.ones(n), z, t.controls - t.controls.mean(0)])
    values = DerivedColumns.of(t.d1, t.d2, t.y).values
    monkeypatch.setattr(regression, "_CHUNK_ROWS", n + 1)
    ref = ols(values, w)
    z_slopes = slice(1, None, 3)
    np.testing.assert_allclose(fit.coefficients[z_slopes], ref.coefficients[z_slopes],
                               rtol=REL, atol=0)
    np.testing.assert_allclose(np.sqrt(np.diag(fit.vcov)[z_slopes]),
                               np.sqrt(np.diag(ref.vcov)[z_slopes]), rtol=REL, atol=0)
    np.testing.assert_allclose(fit.coefficients[z_slopes],
                               np.linalg.lstsq(w, values, rcond=None)[0][1], rtol=REL, atol=0)
    twice = from_arrays(z, d1, d2, y, controls=np.column_stack([t.controls, t.controls]),
                        control_names=("date", "date2"))
    with pytest.raises(RankDeficientError, match="collinear column 'date2?'"):
        estimands._table_fit(twice)


@pytest.mark.parametrize("clustered", [False, True])
def test_table_fit_meat_equals_whole_array_meat_exactly(monkeypatch, clustered):
    # The 13 columns are elementwise in (d1, d2, y), so for fixed coefficients
    # the score sums of blocks built on demand are those of the held array,
    # bit for bit, at any block size.
    n = 3 * 50 + 5
    t = _blocked_table(n, True, clustered, False)
    w = np.column_stack([np.ones(n), t.z, t.controls])
    lazy = regression.Responses((n, len(RESPONSES)), lambda rows: DerivedColumns.of(
        t.d1[rows], t.d2[rows], t.y[rows]).values)
    b = np.random.default_rng(78).standard_normal(len(RESPONSES) * w.shape[1])
    codes = t.cluster_codes if clustered else None
    monkeypatch.setattr(regression, "_CHUNK_ROWS", 50)
    meat = regression._meat(lazy, w, b, codes, n)
    whole = regression._meat(DerivedColumns.of(t.d1, t.d2, t.y).values, w, b, codes, n)
    assert meat.tobytes() == whole.tobytes()


def test_table_fit_goes_through_ols(monkeypatch):
    # A caller that wraps ols and reads its response as an array, as a tracer
    # does, sees the table's one fit and the 13 columns DerivedColumns.of builds.
    t = _table(controls=True, cluster=True)
    seen = []
    real_ols = estimands.ols
    monkeypatch.setattr(estimands, "ols", lambda y, *args, **kwargs: (
        seen.append(np.asarray(y)) or real_ols(y, *args, **kwargs)))
    slopes(t, [("y", "d1")])
    assert len(seen) == 1
    assert seen[0].tobytes() == DerivedColumns.of(t.d1, t.d2, t.y).values.tobytes()


def test_table_fit_holds_no_n_by_13_array():
    # Per row the fit holds nothing: it reads W and the 13 columns a block
    # of rows at a time, which adds a fixed few MB, so n is large enough for
    # the per-row bound to show.
    n = 1_000_000
    rng = np.random.default_rng(76)
    z = np.arange(n) % 2
    d1 = (rng.random(n) < 0.3 + 0.4 * z).astype(np.int8)
    t = from_arrays(z, d1, rng.random(n) < 0.5, rng.standard_normal(n))
    tracemalloc.start()
    try:
        slopes(t, [("y", "d1")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * len(RESPONSES) * 8 / 4  # a quarter of the n x 13 response: 26 MB


def test_table_fit_holds_no_design():
    # W = [1, z, age, income] is built a block of rows at a time, as the 13
    # columns are; a dense W would be 32 bytes per row.
    n = 1_000_000
    rng = np.random.default_rng(79)
    z = np.arange(n) % 2
    d1 = (rng.random(n) < 0.3 + 0.4 * z).astype(np.int8)
    t = from_arrays(z, d1, rng.random(n) < 0.5, rng.standard_normal(n),
                    controls=rng.standard_normal((n, 2)), control_names=("age", "income"))
    tracemalloc.start()
    try:
        slopes(t, [("y", "d1")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 4 * 8 / 2  # half of the dense n x 4 W: 16 MB


def _no_movers_table():
    # d2 >= d1 on every row, so g_or = d1 (1 - d2) is the constant 0.
    rng = np.random.default_rng(75)
    n = 200
    z = rng.integers(0, 2, n)
    d1 = (rng.random(n) < 0.2 + 0.5 * z).astype(int)
    d2 = np.maximum(d1, rng.random(n) < 0.3).astype(int)
    return from_arrays(z, d1, d2, d1 + rng.standard_normal(n), controls=rng.standard_normal(n),
                       cluster=np.arange(n) // 5)


def test_request_degenerate_only_when_all_its_responses_are_one_constant():
    t = _no_movers_table()
    for equations in ([("g_or", None)], [("g_or", "d1")], [("g_or", None), ("g_or", "d2")]):
        fit = slopes(t, equations)
        assert fit.response_constant and _se(fit, 0) is None
        assert np.array_equal(fit.coefficients, np.zeros(len(equations)))
        assert np.array_equal(fit.vcov, np.zeros((len(equations),) * 2))
        assert (fit.n, fit.k, fit.cluster_count) == (len(equations) * t.n, len(equations), 40)
    # One constant and one varying response: a regular joint fit.
    equations = [("g_or", None), ("g_and", None)]
    fit = slopes(t, equations)
    _, coefficients, vcov = _stacked_reference(t, equations)
    assert not fit.response_constant
    assert fit.coefficients[0] == 0.0 and fit.vcov[0, 0] == 0.0
    np.testing.assert_allclose(fit.coefficients, coefficients, rtol=REL, atol=1e-300)
    np.testing.assert_allclose(fit.vcov, vcov, rtol=REL, atol=1e-300)


def test_constant_nonzero_response_cleaned_to_an_exact_zero():
    # Every row takes up both parts: d_and, d_or and d1 are the constant 1.
    rng = np.random.default_rng(76)
    n = 50
    t = from_arrays(np.arange(n) % 2, np.ones(n, int), np.ones(n, int), rng.standard_normal(n),
                    controls=rng.standard_normal(n))
    fit = slopes(t, [("d_and", None), ("d1", None)])
    assert fit.response_constant
    assert np.array_equal(fit.coefficients, [0.0, 0.0])
    assert not slopes(t, [("d_and", None), ("y", None)]).response_constant


def test_treatment_collinear_with_w_fails_relevance():
    # d1 is also a control, so the IV design [1, d1, d1] is collinear and
    # d1's first stage is zero up to rounding.
    base = random_table(np.random.default_rng(77), n=120)
    t = from_arrays(base.z, base.d1, base.d2, base.y, controls=base.d1.astype(float),
                    control_names=("d1_control",))
    with pytest.raises(RelevanceError, match="relevance failure for D1"):
        slopes(t, [("y", "d1")])
    with pytest.raises(RelevanceError, match="D1"):
        iv_estimand(t, TreatmentDef.FIRST)
    assert abs(slopes(t, [("d1", None)]).coefficients[0]) <= 1e-10


def test_one_fit_and_one_qr_per_table(monkeypatch):
    t = _table(controls=True, cluster=True)
    responses, factored = [], []
    real_fit, real_qr = regression._fit, np.linalg.qr
    monkeypatch.setattr(regression, "_fit", lambda y, *args: (
        responses.append(np.shape(y)) or real_fit(y, *args)))
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kwargs: (
        factored.append(np.shape(a)) or real_qr(a, *args, **kwargs)))
    for equations in REQUESTS:
        slopes(t, equations)
    lafte.lafte_bounds(t)
    lafte.lafte_bounds_bounded_response(t)
    lafte.tau_bounds(t)
    lafte.mover_test(t)
    slopes(t, [("gy_or", None), ("gy_and", None)])
    assert responses == [(t.n, len(RESPONSES))]
    assert factored == [(t.n, 4)]


def test_memoized_per_table_and_refit_after_replace():
    t = _table(controls=True, cluster=True)
    equations = [("g_or", None), ("g_and", None)]
    fit = slopes(t, equations)
    assert slopes(t, tuple(equations)) is fit
    assert slopes(t, [("g_or", None)]) is not fit
    doubled = dataclasses.replace(t, y=2 * t.y)
    assert slopes(doubled, [("y", None)]) is not slopes(t, [("y", None)])
    assert slopes(doubled, [("y", None)]).coefficients[0] == pytest.approx(
        2 * slopes(t, [("y", None)]).coefficients[0], rel=1e-12)


def _fit_references(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[-1])
            names.add(node.name.split(".")[-1])
    return names & FIT_NAMES


def test_only_the_fit_layer_reaches_the_fit_core():
    modules = sorted(SRC.glob("*.py"))
    assert {"bounds", "diagnostics", "cli"} <= {m.stem for m in modules}
    offenders = {m.stem: sorted(_fit_references(m)) for m in modules
                 if m.stem not in FIT_LAYER and _fit_references(m)}
    assert offenders == {}


# The package's public names. A name removed from the API (the stacked
# reference fits ``tsls``, ``stack``, ``fit_stacked`` and ``StackedSystem``)
# must not come back by a stray re-export.
PUBLIC_API = {
    # results and specs
    "AssumptionAudit", "BINARY_DEFS", "BoundsResult", "CheckResult", "ComplierShares",
    "DerivedColumns", "EstimateWithSE", "FitResult", "MoverTestReport", "ObservationTable",
    "PopulationSpec", "SignCheckReport", "Stratum", "TestResult",
    "TreatmentDef", "TrueParams", "VerificationReport",
    # errors
    "BoundsError", "ColumnMissingError", "ConfigError", "DataError", "DegenerateTestError",
    "EstimationError", "LafteError", "RankDeficientError", "RelevanceError", "SpecError",
    # functions
    "analytic_moments", "complier_shares", "double_exclusion_check", "first_stage",
    "from_arrays", "group_probs", "iv_estimand", "lafte_bounds",
    "lafte_bounds_bounded_response", "linear_combination", "load_spec", "load_table",
    "mover_conclusion", "mover_test", "ols", "random_spec", "reduced_form", "sample",
    "save_spec", "save_table", "slopes", "spec_from_dict", "spec_to_dict", "stratum",
    "tau_bounds", "true_parameters", "validate_spec", "verify_identities", "wald_joint",
    # submodules
    "bounds", "data", "diagnostics", "estimands", "exceptions", "regression", "strata",
    "verify",
}


def test_public_api_is_pinned():
    assert set(lafte.__all__) == PUBLIC_API
    assert all(hasattr(lafte, name) for name in PUBLIC_API)


# The classes defined under lafte, public or not, that hold fields: a new
# result type is a decision, made here, and not a by-product of a change. A
# record is a ``NamedTuple``, which costs its import about a tenth of what a
# frozen dataclass does. The two dataclasses cannot be tuples: a table keeps
# its cache entry and memo in its ``__dict__``, and a ``Responses`` is
# indexed by rows.
DATACLASSES = {"ObservationTable", "Responses"}

RECORDS = {
    "AssumptionAudit", "BoundsResult", "CheckResult", "Column", "ComplierShares",
    "ContrastPair", "DecompositionTerm", "DerivedColumns", "EstimateWithSE", "FitResult",
    "MoverTestReport", "PopulationSpec", "RunConfig", "SignCheckReport", "Stratum",
    "TestResult", "TrueParams", "VerificationReport", "_Chunk", "_Tokens",
}


def _defined_classes(kind):
    defined = set()
    for path in SRC.glob("*.py"):
        module = importlib.import_module(f"lafte.{path.stem}" if path.stem != "__init__"
                                         else "lafte")
        defined |= {name for name, obj in vars(module).items()
                    if isinstance(obj, type) and kind(obj)
                    and obj.__module__ == module.__name__}
    return defined


def test_dataclasses_are_pinned():
    assert _defined_classes(dataclasses.is_dataclass) == DATACLASSES


def test_records_are_pinned():
    assert _defined_classes(lambda cls: issubclass(cls, tuple)
                            and hasattr(cls, "_fields")) == RECORDS
