"""``estimands.slopes``: the one path from a table to its fits."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import lafte
from lafte import TreatmentDef, fit_stacked, from_arrays, ols, regression, slopes, stack, tsls
from lafte.regression import instrument_design, iv_design

from conftest import random_table

SRC = Path(lafte.__file__).resolve().parent

# The modules that may build designs and call the fit core; every other
# module reaches the fits through ``estimands.slopes``. ``__init__`` only
# re-exports the public API.
FIT_LAYER = {"data", "regression", "estimands", "__init__"}
FIT_NAMES = {"ols", "tsls", "stack", "fit_stacked", "iv_design", "instrument_design",
             "coef_index", "cluster_codes"}


def _table(controls: bool, cluster: bool, seed=61, n=240):
    rng = np.random.default_rng(seed)
    base = random_table(rng, n=n, cluster_size=4 if cluster else 0)
    return from_arrays(base.z, base.d1, base.d2, base.y,
                       controls=rng.standard_normal((n, 2)) if controls else None,
                       control_names=("age", "income") if controls else (),
                       cluster=base.cluster)


TABLES = [pytest.param(c, g, id=f"controls={c}-cluster={g}")
          for c in (False, True) for g in (False, True)]


@pytest.mark.parametrize("controls, cluster", TABLES)
def test_single_equation_equals_ols_and_tsls(controls, cluster):
    t = _table(controls, cluster)
    w, names = instrument_design(t.z, t.controls, t.control_names)
    for d in TreatmentDef:
        fs = slopes(t, [(d.value, None)])
        ref = ols(t.column(d.value), w, t.cluster_codes, names=names)
        assert (fs.coefficients[0], fs.se(0)) == (ref.coefficients[1], ref.se(1))
        assert (fs.k, fs.cluster_count) == (1, ref.cluster_count)

        iv = slopes(t, [("y", d.value)])
        ref = tsls(t.y, t.column(d.value), t.z, t.controls if controls else None,
                   t.cluster_codes)
        assert (iv.coefficients[0], iv.se(0)) == (ref.coefficients[1], ref.se(1))
        assert (iv.k, iv.cluster_count) == (1, ref.cluster_count)


@pytest.mark.parametrize("controls, cluster", TABLES)
def test_multi_equation_equals_hand_built_stack(controls, cluster):
    t = _table(controls, cluster)
    equations = [("dand_y", "d_and"), ("g_or", None), ("untreated_y", "d1"), ("kernel_y", "d1")]
    fit = slopes(t, equations)
    w, _ = instrument_design(t.z, t.controls, t.control_names)
    system = stack([(t.column(r), w if d is None else iv_design(w, t.column(d)), w)
                    for r, d in equations], t.cluster_codes)
    ref = fit_stacked(system)
    idx = [system.coef_index(e, 1) for e in range(len(equations))]
    assert np.array_equal(fit.coefficients, ref.coefficients[idx])
    assert np.array_equal(fit.vcov, ref.vcov[np.ix_(idx, idx)])
    assert (fit.k, fit.n, fit.covariance_kind, fit.cluster_count) == (
        4, ref.n, ref.covariance_kind, ref.cluster_count)
    assert fit.names == ("dand_y~d_and", "g_or", "untreated_y~d1", "kernel_y~d1")


def test_equations_share_one_w_and_one_design_per_treatment(monkeypatch):
    t = _table(controls=True, cluster=True)
    seen = []
    real = regression._fit
    monkeypatch.setattr(regression, "_fit", lambda equations, *args, **kwargs: (
        seen.append(equations) or real(equations, *args, **kwargs)))
    slopes(t, [("g_or", None), ("kernel_y", "d1"), ("g_and", "d1"), ("dand_y", "d_and")])
    (equations,) = seen
    assert len({id(w) for _, _, w in equations}) == 1
    assert len({id(x) for _, x, _ in equations}) == 3
    assert equations[0][1] is equations[0][2] and equations[1][1] is equations[2][1]


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
