"""One design per table: one instrument matrix, one build of the columns and one fit."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from lafte import (
    RankDeficientError,
    TreatmentDef,
    complier_shares,
    data,
    derive,
    from_arrays,
    iv_estimand,
    lafte_bounds,
    lafte_bounds_bounded_response,
    mover_test,
    reduced_form,
    regression,
    save_table,
    slopes,
    tau_bounds,
)
from lafte.cli import RunConfig, run_bounds, run_estimate

from conftest import fix8_table, random_table


def _household_columns(seed=51, n=240):
    rng = np.random.default_rng(seed)
    base = random_table(rng, n=n)
    return dict(z=base.z, d1=base.d1, d2=base.d2, y=base.y,
                controls=rng.standard_normal((n, 2)), control_names=("age", "income"),
                cluster=np.array([f"hh{i // 4}" for i in range(n)], dtype=object))


def _household_table():
    return from_arrays(**_household_columns())


@pytest.mark.parametrize("runner", [run_estimate, run_bounds])
def test_no_fit_repeats_within_a_command(tmp_path, monkeypatch, runner):
    path = tmp_path / "hh.csv"
    save_table(_household_table(), path)
    calls = []
    real = regression._fit

    def recorder(y, w, cluster, names):
        calls.append(np.shape(y))
        return real(y, w, cluster, names)

    monkeypatch.setattr(regression, "_fit", recorder)
    runner(RunConfig(command=runner.__name__[4:], input=str(path),
                     controls=["age", "income"], cluster="cluster"))
    assert calls == [(240, 13)]


def test_columns_are_built_once_per_fit_pass(monkeypatch):
    t = _household_table()
    built = []
    real = data.DerivedColumns.of.__func__
    monkeypatch.setattr(data.DerivedColumns, "of", classmethod(
        lambda cls, d1, d2, y: built.append(len(y)) or real(cls, d1, d2, y)))
    monkeypatch.setattr(regression, "_CHUNK_ROWS", 50)
    complier_shares(t)
    slopes(t, [("d2", None), ("g_or", None), ("g_and", None)])
    mover_test(t, force_step2=True)
    lafte_bounds(t, upper_se_method="delta")
    lafte_bounds_bounded_response(t)
    tau_bounds(t)
    # Each row once per pass of the one fit, a block at a time: runs of 50
    # rows for W'Y, then blocks ending at the first household (of 4) end
    # from 50 rows on for the score sums. No other call builds them.
    assert built == [50] * 4 + [40] + [52, 48] * 2 + [40]


def test_replace_recomputes_derived_columns_and_fits():
    t = fix8_table()
    rf = reduced_form(t).value
    doubled = dataclasses.replace(t, y=2 * t.y)
    assert np.array_equal(derive(doubled).dand_y, 2 * derive(t).dand_y)
    assert reduced_form(doubled).value == pytest.approx(2 * rf, rel=1e-12)


def test_instrument_design_is_shared_by_every_fit():
    t = _household_table()
    w, names = regression.instrument_design(t.z, t.controls, t.control_names)
    assert names == ("const", "z", "age", "income")
    assert np.array_equal(w, np.column_stack([np.ones(t.n), t.z, t.controls]))
    assert regression.instrument_design(t.z, t.controls)[1][2:] == ("c0", "c1")


def test_iv_rank_errors_name_controls():
    t = _household_table()
    twice = from_arrays(t.z, t.d1, t.d2, t.y,
                        controls=np.column_stack([t.controls[:, 0], 2 * t.controls[:, 0]]),
                        control_names=("age", "age2"))
    with pytest.raises(RankDeficientError, match="design matrix .*'age2?'"):
        iv_estimand(twice, TreatmentDef.FIRST)


def test_column_labels_are_written_only_in_the_catalogue():
    src = Path(data.__file__).resolve().parent
    labels = set(data.LABELS.values())
    assert {"D∨−D2", "(D∧−D2)Y", "D1+D2"} <= labels
    offenders = {
        (path.name, node.value)
        for path in sorted(src.glob("*.py")) if path.name != "data.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in labels}
    assert offenders == set()

