import json

import numpy as np
import pytest
import yaml

from lafte import PopulationSpec, load_table, sample, save_spec, stratum
from lafte.cli import main

from conftest import FIX8_CSV, s2_spec


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_text(fix8_path, capsys):
    code, out, err = run(["estimate", "--data", str(fix8_path)], capsys)
    assert code == 0
    assert "1.333" in out
    assert "1.000" in out
    assert "D1+D2" in out and "D∧" in out


def test_estimate_structured_values(fix8_path, capsys):
    code, out, _ = run(["estimate", "--data", str(fix8_path), "--format", "structured"],
                       capsys)
    assert code == 0
    payload = json.loads(out)
    est = payload["estimates"]
    assert est["iv_estimand"]["d1"]["value"] == pytest.approx(4 / 3, rel=1e-12)
    assert est["iv_estimand"]["d_sum"]["value"] == pytest.approx(1.0, rel=1e-12)
    assert est["first_stage"]["d_and"]["value"] == pytest.approx(0.5, rel=1e-12)
    assert payload["shares"]["p_full"]["value"] == pytest.approx(0.25, rel=1e-12)
    assert payload["metadata"]["seed"] == 0
    assert len(payload["metadata"]["config_hash"]) == 64


def test_config_file_with_overrides(tmp_path, fix8_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({
        "input": "does-not-exist.csv",
        "mapping": {"z": "z", "d1": "d1", "d2": "d2", "y": "y"},
        "level": 0.1,
    }), encoding="utf-8")
    code, out, _ = run(["estimate", "--config", str(config),
                        "--data", str(fix8_path)], capsys)
    assert code == 0


def test_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text("inputs: x.csv\n", encoding="utf-8")
    code, _, err = run(["estimate", "--config", str(config)], capsys)
    assert code == 1
    assert "unknown config keys" in err


def test_missing_column_exit_1(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text(FIX8_CSV, encoding="utf-8")
    code, _, err = run(["estimate", "--data", str(path), "--controls", "ghost"], capsys)
    assert code == 1
    assert "ghost" in err


def test_data_validation_exit_2(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("z,d1,d2,y\n1,2,1,3\n0,0,0,1\n", encoding="utf-8")
    code, _, err = run(["estimate", "--data", str(path)], capsys)
    assert code == 2
    assert "non-binary treatment column" in err


def test_relevance_exit_3(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text(
        "z,d1,d2,y\n1,1,0,2\n1,1,0,1\n1,0,0,0\n0,0,0,0\n0,0,0,1\n0,0,0,0\n",
        encoding="utf-8")
    code, _, err = run(["estimate", "--data", str(path)], capsys)
    assert code == 3
    assert "D2" in err  # names the failing definition


def test_usage_error_exit_1(capsys):
    code, _, err = run(["estimate", "--no-such-flag"], capsys)
    assert code == 1


def test_no_input_exit_1(capsys):
    code, _, err = run(["estimate"], capsys)
    assert code == 1
    assert "input" in err


def test_determinism_byte_identical(tmp_path, fix8_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    run(["estimate", "--data", str(fix8_path), "--out", str(out1)], capsys)
    run(["estimate", "--data", str(fix8_path), "--out", str(out2)], capsys)
    assert out1.read_bytes() == out2.read_bytes()


def test_text_numbers_present_in_report(fix8_path, capsys):
    code, text, _ = run(["estimate", "--data", str(fix8_path)], capsys)
    code, raw, _ = run(["estimate", "--data", str(fix8_path), "--format", "structured"],
                       capsys)
    payload = json.loads(raw)
    for section in ("first_stage", "iv_estimand"):
        for cell in payload["estimates"][section].values():
            assert f"{cell['value']:.3f}" in text
            if cell["se"] is not None:
                assert f"({cell['se']:.3f})" in text


def test_diagnose_text(fix8_path, capsys):
    code, out, _ = run(["diagnose", "--data", str(fix8_path)], capsys)
    assert code == 0
    assert "0.250" in out
    assert "conclusion: no-movers-detected" in out
    assert "verdict: consistent" in out


def test_bounds_banner_and_values(fix8_path, capsys):
    code, out, _ = run(["bounds", "--data", str(fix8_path),
                        "--ymin", "0", "--ymax", "3"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("diagnostics:")
    assert "1.333" in out and "2.667" in out and "0.667" in out


def test_bounds_downgrade_on_rejected_double_exclusion(tmp_path, capsys):
    spec = PopulationSpec(strata=(
        stratum("C1C2", 0.5, {(1, 1): 1.0}, y_sd=0.5),
        stratum("N1C2", 0.3, {(0, 1): 2.0}, y_sd=0.5),
        stratum("N1N2", 0.2, {}, y_sd=0.5),
    ), p_z=0.5)
    table = sample(spec, 20_000, seed=6)
    from lafte import save_table
    path = tmp_path / "rejected.csv"
    save_table(table, path)
    code, out, _ = run(["bounds", "--data", str(path)], capsys)
    assert code == 0
    assert "rejected assumption" in out


def test_simulate_then_estimate(tmp_path, capsys):
    spec_path = tmp_path / "s2.yaml"
    save_spec(s2_spec(), spec_path)
    data_path = tmp_path / "draw.csv"
    code, out, _ = run(["simulate", "--data", str(spec_path), "--n", "5000",
                        "--seed", "3", "--out", str(data_path)], capsys)
    assert code == 0
    truth = json.loads((tmp_path / "draw.csv.truth.json").read_text())
    assert truth["lafte_over_c"] == pytest.approx(1.75)
    table = load_table(data_path)
    assert table.n == 5000

    code, raw, _ = run(["estimate", "--data", str(data_path),
                        "--format", "structured"], capsys)
    assert code == 0
    payload = json.loads(raw)
    est = payload["shares"]["p_full"]
    se = np.sqrt(0.25 / (5000 * 0.25))
    assert abs(est["value"] - 0.5) <= 3 * se


def test_simulate_deterministic(tmp_path, capsys):
    spec_path = tmp_path / "s2.yaml"
    save_spec(s2_spec(), spec_path)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["simulate", "--data", str(spec_path), "--n", "400", "--seed", "9",
         "--out", str(p1)], capsys)
    run(["simulate", "--data", str(spec_path), "--n", "400", "--seed", "9",
         "--out", str(p2)], capsys)
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.csv.truth.json").read_bytes() == \
        (tmp_path / "b.csv.truth.json").read_bytes()


def test_verify_clean_exit_0(tmp_path, capsys):
    spec_path = tmp_path / "s2.yaml"
    save_spec(s2_spec(), spec_path)
    code, out, _ = run(["verify", "--data", str(spec_path)], capsys)
    assert code == 0
    assert "all applicable checks passed" in out


def test_verify_flagged_exit_nonzero(tmp_path, capsys):
    spec = PopulationSpec(strata=(
        stratum("C1C2", 0.6, {(1, 1): 2.0}),
        stratum("N1C2", 0.2, {(0, 1): 5.0}),
        stratum("N1N2", 0.2, {}),
    ))
    spec_path = tmp_path / "flagged.yaml"
    save_spec(spec, spec_path)
    code, out, _ = run(["verify", "--data", str(spec_path)], capsys)
    assert code == 2
    assert "not invocable" in out


def test_verify_invalid_spec_exit_2(tmp_path, capsys):
    spec_path = tmp_path / "bad.yaml"
    spec_path.write_text(yaml.safe_dump({
        "p_z": 0.5,
        "strata": [{"prob": 1.0, "d1": [1, 0], "d2": [[0, 1], [0, 1]],
                    "mean_y": [[0.0, 0.0], [0.0, 0.0]]}],
    }), encoding="utf-8")
    code, _, err = run(["verify", "--data", str(spec_path)], capsys)
    assert code == 2
    assert "monotonicity" in err


@pytest.mark.parametrize("command", ["estimate", "bounds"])
def test_unwritable_report_exit_1(tmp_path, fix8_path, command, capsys):
    out_path = tmp_path / "missing-dir" / "r.json"
    code, out, err = run([command, "--data", str(fix8_path), "--out", str(out_path)], capsys)
    assert code == 1
    assert err.startswith(f"error: cannot write {out_path}: ")
    assert "Traceback" not in err and out == ""


def test_unwritable_simulated_dataset_exit_1(tmp_path, capsys):
    spec_path = tmp_path / "s2.yaml"
    save_spec(s2_spec(), spec_path)
    data_path = tmp_path / "missing-dir" / "d.csv"
    code, _, err = run(["simulate", "--data", str(spec_path), "--n", "50",
                        "--out", str(data_path)], capsys)
    assert code == 1
    assert err.startswith(f"error: cannot write {data_path}: ")


def test_unwritable_truth_sidecar_exit_1(tmp_path, capsys):
    spec_path = tmp_path / "s2.yaml"
    save_spec(s2_spec(), spec_path)
    data_path = tmp_path / "d.csv"
    (tmp_path / "d.csv.truth.json").mkdir()
    code, _, err = run(["simulate", "--data", str(spec_path), "--n", "50",
                        "--out", str(data_path)], capsys)
    assert code == 1
    assert err.startswith(f"error: cannot write {data_path}.truth.json: ")
