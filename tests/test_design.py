"""One design per table: one instrument matrix, one build of the columns and one fit."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from lafte import (
    DerivedColumns,
    RankDeficientError,
    TreatmentDef,
    complier_shares,
    data,
    estimands,
    from_arrays,
    iv_estimand,
    lafte_bounds,
    lafte_bounds_bounded_response,
    load_table,
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
    mover_test(t)
    slopes(t, [("gy_or", None), ("gy_and", None)])
    lafte_bounds(t)
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
    assert np.array_equal(DerivedColumns.of(doubled.d1, doubled.d2, doubled.y).dand_y,
                          2 * DerivedColumns.of(t.d1, t.d2, t.y).dand_y)
    assert reduced_form(doubled).value == pytest.approx(2 * rf, rel=1e-12)


@pytest.mark.parametrize("control_names", [("age", "income"), ()])
def test_the_table_fit_builds_w(monkeypatch, control_names):
    # The table fit builds W = [1, z, controls - mean(controls)] a block of
    # rows at a time, and names it by the controls, or x0, x1 without names.
    t = from_arrays(**{**_household_columns(), "control_names": control_names})
    w = np.column_stack([np.ones(t.n), t.z, t.controls - t.controls.mean(0)])
    blocks = []
    real = estimands.ols

    def recorder(y, x, *args, **kwargs):
        def read(rows):
            blocks.append((rows, x[rows]))
            return blocks[-1][1]
        return real(y, regression.Responses(x.shape, read), *args, **kwargs)

    monkeypatch.setattr(estimands, "ols", recorder)
    monkeypatch.setattr(regression, "_CHUNK_ROWS", 50)
    fit = estimands._table_fit(t)
    assert fit.names == tuple(f"eq{e}.{name}" for e in range(len(data.RESPONSES))
                              for name in ("const", "z", *(control_names or ("x0", "x1"))))
    assert len(blocks) > 2
    for rows, block in blocks:
        assert block.tobytes() == w[rows].tobytes()


def test_iv_rank_errors_name_controls():
    t = _household_table()
    twice = from_arrays(t.z, t.d1, t.d2, t.y,
                        controls=np.column_stack([t.controls[:, 0], 2 * t.controls[:, 0]]),
                        control_names=("age", "age2"))
    with pytest.raises(RankDeficientError, match="design matrix .*'age2?'"):
        iv_estimand(twice, TreatmentDef.FIRST)


def test_unnamed_controls_are_named_x0_x1_in_the_table_its_file_and_its_errors(tmp_path):
    # The names from_arrays gives are the header save_table writes and
    # load_table reads back, so a rank error names the same column both ways.
    t = _household_table()
    twice = from_arrays(t.z, t.d1, t.d2, t.y,
                        controls=np.column_stack([t.controls[:, 0], 2 * t.controls[:, 0]]))
    assert twice.control_names == ("x0", "x1")
    path = tmp_path / "twice.csv"
    save_table(twice, path)
    assert path.read_bytes().partition(b"\r\n")[0] == b"z,d1,d2,y,x0,x1"
    back = load_table(path, {**data.DEFAULT_MAPPING, "controls": ["x0", "x1"]})
    assert back.control_names == ("x0", "x1")
    for table in (twice, back):
        with pytest.raises(RankDeficientError, match="collinear column 'x0'"):
            iv_estimand(table, TreatmentDef.FIRST)


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

