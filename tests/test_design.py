"""One design per table: one instrument matrix, derived columns and fits once."""

import dataclasses

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
    tau_bounds,
    tsls,
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


def _fit_key(equations, cluster):
    arrays = [a for equation in equations for a in equation] + [cluster]
    return tuple(None if a is None else (np.asarray(a).shape, np.asarray(a).tobytes())
                 for a in arrays)


@pytest.mark.parametrize("runner", [run_estimate, run_bounds])
def test_no_fit_repeats_within_a_command(tmp_path, monkeypatch, runner):
    path = tmp_path / "hh.csv"
    save_table(_household_table(), path)
    calls = []
    real = regression._fit

    def recorder(equations, cluster, names, **kwargs):
        calls.append(_fit_key(equations, cluster))
        return real(equations, cluster, names, **kwargs)

    monkeypatch.setattr(regression, "_fit", recorder)
    runner(RunConfig(command=runner.__name__[4:], input=str(path),
                     controls=["age", "income"], cluster="cluster"))
    assert len(calls) >= 10
    assert len(set(calls)) == len(calls)


def test_derive_runs_once_per_table(monkeypatch):
    columns = _household_columns()
    calls = []
    real = data.derive
    monkeypatch.setattr(data, "derive", lambda table: calls.append(table) or real(table))
    t = from_arrays(**columns)
    complier_shares(t, joint=True)
    mover_test(t, force_step2=True)
    lafte_bounds(t, upper_se_method="delta")
    lafte_bounds_bounded_response(t)
    tau_bounds(t)
    assert len(calls) == 1


def test_replace_recomputes_derived_columns_and_fits():
    t = fix8_table()
    rf = reduced_form(t).value
    doubled = dataclasses.replace(t, y=2 * t.y)
    assert np.array_equal(derive(doubled).dand_y, 2 * derive(t).dand_y)
    assert np.array_equal(doubled.derived.dand_y, 2 * t.derived.dand_y)
    assert reduced_form(doubled).value == pytest.approx(2 * rf, rel=1e-12)


def test_instrument_design_is_shared_by_every_fit():
    t = _household_table()
    w, names = regression.instrument_design(t.z, t.controls, t.control_names)
    assert names == ("const", "z", "age", "income")
    assert np.array_equal(w, np.column_stack([np.ones(t.n), t.z, t.controls]))
    x = regression.iv_design(w, t.d1)
    assert np.array_equal(x[:, 1], t.d1) and np.array_equal(np.delete(x, 1, 1), np.delete(w, 1, 1))
    assert regression.instrument_design(t.z, t.controls)[1][2:] == ("c0", "c1")


def test_iv_rank_errors_name_controls():
    t = _household_table()
    twice = from_arrays(t.z, t.d1, t.d2, t.y,
                        controls=np.column_stack([t.controls[:, 0], 2 * t.controls[:, 0]]),
                        control_names=("age", "age2"))
    with pytest.raises(RankDeficientError, match="'age2?'"):
        iv_estimand(twice, TreatmentDef.FIRST)
    with pytest.raises(RankDeficientError, match="instrument matrix .*'age2?'"):
        tsls(twice.y, twice.d1, twice.z, twice.controls, names=("const", "d1", "age", "age2"))
