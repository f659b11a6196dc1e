"""``estimands.slopes``: the one path from a table to its fits, read off one fit per table."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import lafte
from lafte import (
    RelevanceError,
    TreatmentDef,
    derive,
    estimands,
    fit_stacked,
    from_arrays,
    iv_estimand,
    ols,
    slopes,
    stack,
    tsls,
)
from lafte.data import RESPONSES
from lafte.regression import instrument_design, iv_design

from conftest import random_table

SRC = Path(lafte.__file__).resolve().parent

# The modules that may build designs and call the fit core; every other
# module reaches the fits through ``estimands.slopes``. ``__init__`` only
# re-exports the public API.
FIT_LAYER = {"data", "regression", "estimands", "__init__"}
FIT_NAMES = {"ols", "tsls", "stack", "fit_stacked", "iv_design", "instrument_design",
             "coef_index", "cluster_codes"}

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


def _stacked_reference(t, equations):
    """The slopes and their covariance from a hand-built stacked fit of ``equations``."""
    w, _ = instrument_design(t.z, t.controls, t.control_names)
    columns = derive(t)
    system = stack([(columns.column(r), w if d is None else iv_design(w, columns.column(d)), w)
                    for r, d in equations], t.cluster_codes)
    ref = fit_stacked(system)
    idx = [system.coef_index(e, 1) for e in range(len(equations))]
    return ref, ref.coefficients[idx], ref.vcov[np.ix_(idx, idx)]


@pytest.mark.parametrize("controls, cluster", TABLES)
def test_single_equation_equals_ols_and_tsls(controls, cluster):
    t = _table(controls, cluster)
    w, names = instrument_design(t.z, t.controls, t.control_names)
    columns = derive(t)
    for d in TreatmentDef:
        fs = slopes(t, [(d.value, None)])
        ref = ols(columns.column(d.value), w, t.cluster_codes, names=names)
        np.testing.assert_allclose([fs.coefficients[0], fs.se(0)],
                                   [ref.coefficients[1], ref.se(1)], rtol=REL, atol=0)
        assert (fs.k, fs.cluster_count) == (1, ref.cluster_count)

        iv = slopes(t, [("y", d.value)])
        ref = tsls(t.y, columns.column(d.value), t.z, t.controls if controls else None,
                   t.cluster_codes)
        np.testing.assert_allclose([iv.coefficients[0], iv.se(0)],
                                   [ref.coefficients[1], ref.se(1)], rtol=REL, atol=0)
        assert (iv.k, iv.cluster_count) == (1, ref.cluster_count)


@pytest.mark.parametrize("controls, cluster", TABLES)
def test_multi_equation_equals_hand_built_stack(controls, cluster):
    t = _table(controls, cluster)
    equations = [("dand_y", "d_and"), ("g_or", None), ("untreated_y", "d1"), ("kernel_y", "d1")]
    fit = slopes(t, equations)
    ref, coefficients, vcov = _stacked_reference(t, equations)
    np.testing.assert_allclose(fit.coefficients, coefficients, rtol=REL, atol=0)
    np.testing.assert_allclose(fit.vcov, vcov, rtol=REL, atol=0)
    assert (fit.k, fit.n, fit.dof, fit.covariance_kind, fit.cluster_count) == (
        4, ref.n, ref.dof, ref.covariance_kind, ref.cluster_count)
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
        ref, coefficients, vcov = _stacked_reference(t, equations)
        np.testing.assert_allclose(fit.coefficients, coefficients, rtol=REL, atol=0)
        np.testing.assert_allclose(fit.vcov, vcov, rtol=REL, atol=0)
        assert (fit.n, fit.dof, fit.covariance_kind, fit.cluster_count) == (
            ref.n, ref.dof, ref.covariance_kind, ref.cluster_count)
        assert not fit.response_constant


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
        assert fit.response_constant and fit.se(0) is None
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


def test_one_ols_call_and_one_qr_per_table(monkeypatch):
    t = _table(controls=True, cluster=True)
    responses, factored = [], []
    real_ols, real_qr = estimands.ols, np.linalg.qr
    monkeypatch.setattr(estimands, "ols", lambda y, *args, **kwargs: (
        responses.append(np.shape(y)) or real_ols(y, *args, **kwargs)))
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kwargs: (
        factored.append(np.shape(a)) or real_qr(a, *args, **kwargs)))
    for equations in REQUESTS:
        slopes(t, equations)
    lafte.lafte_bounds(t, upper_se_method="delta")
    lafte.lafte_bounds_bounded_response(t)
    lafte.tau_bounds(t)
    lafte.mover_test(t, force_step2=True)
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
