import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import lafte
from lafte import (
    ConfigError,
    PopulationSpec,
    from_arrays,
    load_table,
    sample,
    save_spec,
    save_table,
    stratum,
)
from lafte.cli import main

from conftest import FIX8_CSV, random_table, s2_spec, single_full_complier_spec

# Where the lafte these tests import lives: src/, or the installed package
# when the tests run against an installation. A child process imports it too.
LAFTE_HOME = Path(lafte.__file__).resolve().parents[1]


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


def test_empty_cluster_flag_clears_the_configs_cluster(tmp_path, capsys):
    # A flag is read by the rules of its config key, after the file: an empty
    # --cluster sets cluster to "", as the same empty value in the file does.
    households = tmp_path / "hh.csv"
    save_table(random_table(np.random.default_rng(4), n=300, cluster_size=3), households)
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({"input": str(households), "cluster": "cluster"}),
                      encoding="utf-8")
    code, out, _ = run(["estimate", "--config", str(config)], capsys)
    assert code == 0 and out.startswith("estimate: n=300, clusters=100\n")
    code, out, _ = run(["estimate", "--config", str(config), "--cluster", ""], capsys)
    assert code == 0 and out.startswith("estimate: n=300\n") and "clusters=" not in out


def test_empty_data_flag_sets_an_empty_input(tmp_path, fix8_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({"input": str(fix8_path)}), encoding="utf-8")
    code, out, err = run(["estimate", "--config", str(config), "--data", ""], capsys)
    assert code == 2 and err.startswith("error: unreadable file") and out == ""


def test_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text("inputs: x.csv\n", encoding="utf-8")
    code, _, err = run(["estimate", "--config", str(config)], capsys)
    assert code == 1
    assert "unknown config keys" in err
    # Keys of mixed types, as YAML reads "1: 2" beside "foo: 3", are named too.
    for document, message in (("1: 2\nfoo: 3\n", "unknown config keys: [1, 'foo']"),
                              ("upper_se_method: delta\n",  # a removed setting
                               "unknown config keys: ['upper_se_method']"),
                              ("mapping: {1: z, foo: y}\n", "unknown mapping keys: [1, 'foo']")):
        config.write_text(document, encoding="utf-8")
        code, _, err = run(["estimate", "--config", str(config)], capsys)
        assert code == 1 and message in err and "Traceback" not in err


def test_undecodable_config_file_exit_1(tmp_path, fix8_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_bytes(b"input: \xff.csv\n")
    code, out, err = run(["estimate", "--config", str(config), "--data", str(fix8_path)],
                         capsys)
    assert code == 1 and err.startswith("error: unreadable config file")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_undecodable_spec_file_exit_2(tmp_path, capsys, command):
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_bytes(b"p_z: 0.5\n# \xff\nstrata: []\n")
    out_path = tmp_path / "draw.csv"
    code, out, err = run([command, "--data", str(spec_path), "--out", str(out_path)], capsys)
    assert code == 2 and err.startswith("error: unreadable spec file")
    assert "Traceback" not in err and out == ""
    assert list(tmp_path.iterdir()) == [spec_path]


def test_unknown_missing_policy_exit_1_before_reading(tmp_path, capsys, monkeypatch):
    # One rule, data._check_missing, for the CLI and load_table: the CLI
    # refuses the policy before it opens the data file.
    config = tmp_path / "run.yaml"
    config.write_text("missing: bogus\n", encoding="utf-8")
    opened = []
    monkeypatch.setattr("lafte.data._source", lambda path: opened.append(path))
    code, out, err = run(["estimate", "--config", str(config), "--data", "absent.csv"], capsys)
    assert code == 1 and out == "" and opened == []
    assert err == "error: unknown missing-data policy 'bogus'\n"
    with pytest.raises(ConfigError) as refused:
        load_table("absent.csv", on_missing="bogus")
    assert f"error: {refused.value}\n" == err and opened == []


def test_missing_column_exit_1(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text(FIX8_CSV, encoding="utf-8")
    code, _, err = run(["estimate", "--data", str(path), "--controls", "ghost"], capsys)
    assert code == 1
    assert "ghost" in err


@pytest.mark.parametrize("mapping, control, role", [
    ({}, "y", "y"), ({}, "z", "z"), ({}, "d2", "d2"),
    ({"mapping": {"y": "outcome", "d1": "first"}}, "outcome", "y"),
    ({"mapping": {"y": "outcome", "d1": "first"}}, "first", "d1"),
])
def test_a_role_column_as_a_control_exit_1(tmp_path, monkeypatch, capsys, mapping, control, role):
    # Refused before any data file is opened: as a control, the outcome
    # would zero every reduced form and IV estimand.
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(mapping), encoding="utf-8")
    opened = []
    monkeypatch.setattr("lafte.data._source", lambda path: opened.append(path))
    for command in ("estimate", "diagnose", "bounds"):
        code, out, err = run([command, "--config", str(config), "--data", "absent.csv",
                              "--controls", f"x1,{control}"], capsys)
        assert (code, out, opened) == (1, "", [])
        assert err == (f"error: column '{control}' is named as '{role}' and as control 2; "
                       "z, d1, d2, y and each control must be distinct columns\n")


@pytest.mark.parametrize("settings, flags, uses", [
    ({}, ["--controls", "x1,x1"], ("x1", "control 1", "control 2")),
    ({"controls": ["x1", "x1"]}, [], ("x1", "control 1", "control 2")),
    ({"controls": ["x1", "x2", "x1"]}, [], ("x1", "control 1", "control 3")),
    ({"mapping": {"z": "d1", "d1": "d1", "d2": "d2", "y": "y"}}, [], ("d1", "'z'", "'d1'")),
    ({"mapping": {"z": "z", "d1": "d2", "d2": "d2", "y": "y"}}, [], ("d2", "'d1'", "'d2'")),
    ({"mapping": {"z": "z", "d1": "d1", "d2": "d2", "y": "x1"}}, ["--controls", "x1"],
     ("x1", "'y'", "control 1")),
], ids=["control flag", "control key", "third control", "z as d1", "d1 as d2", "y as control"])
def test_a_column_named_twice_exit_1(tmp_path, capsys, settings, flags, uses):
    # On a table that has every column: a control named twice made the
    # design rank deficient (exit 3), and z mapped to the d1 column reported
    # a D1 first stage of 1.000 (0.000) (exit 0).
    table = random_table(np.random.default_rng(3), n=300)
    data = tmp_path / "t.csv"
    save_table(from_arrays(table.z, table.d1, table.d2, table.y,
                           controls=np.random.default_rng(4).standard_normal((300, 2)),
                           control_names=("x1", "x2")), data)
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(settings), encoding="utf-8")
    column, first, second = uses
    for command in ("estimate", "diagnose", "bounds"):
        code, out, err = run([command, "--config", str(config), "--data", str(data), *flags],
                             capsys)
        assert (code, out) == (1, "")
        assert err == (f"error: column '{column}' is named as {first} and as {second}; "
                       "z, d1, d2, y and each control must be distinct columns\n")


@pytest.mark.parametrize("text, message", [
    ("z,d1,d2,y\n1,2,1,3\n0,0,0,1\n", "non-binary treatment column"),
    # A quoted field sends the file through csv.reader, which names the token too.
    ('z,d1,d2,y\n0,0,0,"1.0"\n1,1,1,oops\n', "could not parse numeric column 'y': value 'oops'"),
], ids=["non-binary", "quoted bad token"])
def test_data_validation_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(["estimate", "--data", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_relevance_exit_3(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text(
        "z,d1,d2,y\n1,1,0,2\n1,1,0,1\n1,0,0,0\n0,0,0,0\n0,0,0,1\n0,0,0,0\n",
        encoding="utf-8")
    code, _, err = run(["estimate", "--data", str(path)], capsys)
    assert code == 3
    assert "D2" in err  # names the failing definition


def test_an_estimation_failure_prints_the_tables_warnings(tmp_path, capsys):
    # Each instrument arm in one cluster: the joint tests' covariance is
    # singular, and the table's warnings say why, after the error line.
    path = tmp_path / "arms.csv"
    path.write_text("z,d1,d2,y\n1,1,1,3.0\n1,0,1,2.0\n1,0,1,2.0\n1,1,0,1.0\n"
                    "0,0,0,0.0\n0,0,0,1.0\n0,1,0,0.0\n0,0,1,0.5\n", encoding="utf-8")
    warnings = [f"every row with z={arm} lies in one cluster: the cluster-robust standard "
                "errors leave out that arm's variation" for arm in (0, 1)]
    for command in ("diagnose", "bounds"):
        code, out, err = run([command, "--data", str(path), "--cluster", "z"], capsys)
        assert (code, out) == (3, "")
        assert err == "".join(
            ["error: degenerate joint test: singular covariance submatrix\n"]
            + [f"warning: {warning}\n" for warning in warnings])
    # estimate needs no joint test: it succeeds, and its document says the same.
    code, out, err = run(["estimate", "--data", str(path), "--cluster", "z", "--format",
                          "structured"], capsys)
    assert (code, err) == (0, "")
    assert set(warnings) <= set(json.loads(out)["warnings"])


def test_usage_error_exit_1(capsys):
    code, _, err = run(["estimate", "--no-such-flag"], capsys)
    assert code == 1


def test_no_input_exit_1(capsys):
    code, _, err = run(["estimate"], capsys)
    assert code == 1
    assert "input" in err


@pytest.mark.parametrize("command", ["estimate", "bounds"])
def test_determinism_byte_identical(tmp_path, fix8_path, capsys, command):
    # Two runs write the same bytes, and the stdout format does not change
    # the document: --out holds what --format structured prints.
    written = []
    for form in ("text", "structured"):
        path = tmp_path / f"{form}.json"
        code, out, _ = run([command, "--data", str(fix8_path), "--format", form,
                            "--out", str(path)], capsys)
        assert code == 0
        written.append(path.read_bytes())
    assert written[0] == written[1] == out.encode("utf-8")


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
    # Each step tests at the level: the procedure's size is up to twice it.
    assert "mover test (level 0.05 per step; size at most 0.1 under no movers)" in out


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


@pytest.mark.parametrize("strata, skipped", [
    # dropouts only: the d2 and d_and first stages are zero
    ((stratum("C1N2", 0.5, {(1, 0): 1.5}), stratum("N1N2", 0.5, {})),
     {"iv-decomposition.d2": "not applicable: zero first stage",
      "iv-decomposition.d_and": "not applicable: zero first stage"}),
    # no complier group at all
    ((stratum("N1N2", 0.5, {}), stratum("A1A2", 0.5, {})),
     {"iv-decomposition": "not applicable: no compliers"}),
], ids=["zero first stage", "no compliers"])
def test_verify_skips_the_undefined_decompositions(tmp_path, capsys, strata, skipped):
    spec_path = tmp_path / "spec.yaml"
    save_spec(PopulationSpec(strata=strata), spec_path)
    code, out, err = run(["verify", "--data", str(spec_path), "--format", "structured"],
                         capsys)
    assert code == 0, err
    checks = {c["name"]: c for c in json.loads(out)["verification"]["checks"]
              if c["name"].startswith("iv-decomposition")}
    for name, note in skipped.items():
        assert not checks[name]["applicable"] and checks[name]["note"] == note
    assert all(c["applicable"] and c["passed"] for name, c in checks.items()
               if name not in skipped)


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


@pytest.mark.parametrize("argv", [["estimate"], ["estimate", "--format", "structured"],
                                  ["verify"]], ids=["estimate", "structured", "verify"])
def test_closed_stdout_exit_1(tmp_path, fix8_path, argv):
    # stdout is a pipe whose read end is closed before the run.
    spec_path = tmp_path / "s2.yaml"
    save_spec(s2_spec(), spec_path)
    data = spec_path if argv[0] == "verify" else fix8_path
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "lafte.cli", *argv, "--data", str(data)],
                              stdout=write, stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": str(LAFTE_HOME)})
    finally:
        os.close(write)
    assert done.returncode == 1
    assert done.stderr == "error: cannot write stdout: Broken pipe\n"


def test_unwritable_simulated_dataset_exit_1(tmp_path, capsys):
    spec_path = tmp_path / "s2.yaml"
    save_spec(s2_spec(), spec_path)
    data_path = tmp_path / "missing-dir" / "d.csv"
    code, _, err = run(["simulate", "--data", str(spec_path), "--n", "50",
                        "--out", str(data_path)], capsys)
    assert code == 1
    assert err.startswith(f"error: cannot write {data_path}: ")


@pytest.mark.parametrize("n", ["0", "1"])
def test_simulate_below_two_rows_is_a_usage_error(tmp_path, capsys, n):
    # A table needs two rows: the run stops before anything is drawn or written.
    spec_path = tmp_path / "s2.yaml"
    save_spec(s2_spec(), spec_path)
    data_path = tmp_path / "d.csv"
    code, out, err = run(["simulate", "--data", str(spec_path), "--n", n,
                          "--out", str(data_path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: n must be >= 2, got {n}\n"
    assert list(tmp_path.iterdir()) == [spec_path]


def test_unwritable_truth_sidecar_exit_1(tmp_path, capsys):
    spec_path = tmp_path / "s2.yaml"
    save_spec(s2_spec(), spec_path)
    data_path = tmp_path / "d.csv"
    (tmp_path / "d.csv.truth.json").mkdir()
    code, _, err = run(["simulate", "--data", str(spec_path), "--n", "50",
                        "--out", str(data_path)], capsys)
    assert code == 1
    assert err.startswith(f"error: cannot write {data_path}.truth.json: ")


@pytest.mark.parametrize("setting, key", [
    ("controls: 5", "controls"),
    ("controls: {x1: 1}", "controls"),
    ("delimiter: ';;'", "delimiter"),
    ("delimiter: ''", "delimiter"),
    # A delimiter that can occur inside a field would corrupt the draw.
    ("delimiter: '.'", "delimiter"),
    ("delimiter: '1'", "delimiter"),
    # Numbers are not coerced: an overflowing, fractional, boolean or quoted
    # value is an error, not a traceback or a silently different run.
    ("n: .inf", "n"),
    ("n: 50.0", "n"),
    ("seed: .inf", "seed"),
    ("seed: 1.9", "seed"),
    ("seed: true", "seed"),
    ("seed: '1'", "seed"),
    ("level: true", "level"),
    ("level: '0.1'", "level"),
    ("ymin: abc", "ymin"),
    ("ymax: [1]", "ymax"),
    # A setting that names a file, a column or a choice is a string or a
    # number, never the repr of a list, a mapping or a bool.
    ("out: {a: 1}", "out"),
    ("input: [a]", "input"),
    ("cluster: no", "cluster"),
    ("cluster: true", "cluster"),
    ("delimiter: [',']", "delimiter"),
    ("format: [structured]", "format"),
    ("missing: {drop: 1}", "missing"),
    ("mapping: {y: [y]}", "mapping.y"),
    ("mapping: {z: false}", "mapping.z"),
    ("controls: [x1, [x2]]", "controls"),
])
@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_bad_config_value_exit_1(tmp_path, fix8_path, capsys, setting, key, command):
    config = tmp_path / "run.yaml"
    config.write_text(setting + "\n", encoding="utf-8")
    data = fix8_path
    if command == "simulate":
        data = tmp_path / "s2.yaml"
        save_spec(s2_spec(), data)
    out_path = tmp_path / "draw.csv"
    code, out, err = run([command, "--config", str(config), "--data", str(data),
                          "--out", str(out_path), "--n", "50"], capsys)
    assert code == 1
    assert err.startswith(f"error: config key '{key}' must be ")
    assert "Traceback" not in err and out == ""
    assert not out_path.exists()


def test_config_hash_pinned():
    # Reports carry these hashes. They changed once, when the upper_se_method
    # setting was removed and format left the hash (neither changes a
    # reported number); any other change to them needs a reason as good.
    from lafte.cli import _CONFIG_KEYS, RunConfig
    assert RunConfig(command="estimate", input="draw.csv").config_hash() == (
        "dc5c8794d075b200e5e99afb833dc77c1cab311303294816e0bb51a49279c1df")
    config = RunConfig(command="bounds", input="hh.csv", controls=["x1", "x2"], cluster="hh",
                       mapping={"z": "z", "d1": "d1", "d2": "d2", "y": "y"}, level=0.1,
                       ymin=0.0, ymax=5.0, out="r.json")
    assert config.config_hash() == (
        "77f0967e694edbcc92965eb9283008197775870c4a4708c220b52e4e4d17045b")
    # Neither where the report is written nor how stdout shows it moves the hash.
    for display in ({"out": None}, {"format": "structured"}):
        assert config.config_hash() == RunConfig(**{**vars(config), **display}).config_hash()
    assert _CONFIG_KEYS == {
        "input", "mapping", "controls", "cluster", "delimiter", "level", "ymin", "ymax",
        "out", "format", "seed", "n", "missing"}


@pytest.mark.parametrize("argv, setting", [
    (["--seed", "-1"], ""),
    ([], "seed: -1"),
])
@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_negative_seed_exit_1(tmp_path, fix8_path, capsys, argv, setting, command):
    config = tmp_path / "run.yaml"
    config.write_text(setting + "\n", encoding="utf-8")
    data = fix8_path
    if command == "simulate":
        data = tmp_path / "s2.yaml"
        save_spec(s2_spec(), data)
    out_path = tmp_path / "draw.csv"
    code, out, err = run([command, "--config", str(config), "--data", str(data),
                          "--out", str(out_path), "--n", "50", *argv], capsys)
    assert code == 1
    assert err.startswith("error: config key 'seed' must be a non-negative integer, got -1")
    assert "Traceback" not in err and out == "" and not out_path.exists()


@pytest.mark.parametrize("argv, setting, key", [
    (["--ymin", "nan"], "", "ymin"),
    (["--ymax", "inf"], "", "ymax"),
    (["--ymin=-inf"], "", "ymin"),
    ([], "ymax: .nan", "ymax"),
    ([], "ymin: -.inf", "ymin"),
])
def test_non_finite_response_bound_exit_1(tmp_path, fix8_path, capsys, argv, setting, key):
    config = tmp_path / "run.yaml"
    config.write_text(setting + "\n", encoding="utf-8")
    code, out, err = run(["bounds", "--config", str(config), "--data", str(fix8_path),
                          "--format", "structured", *argv], capsys)
    assert code == 1
    assert err.startswith(f"error: config key '{key}' must be finite")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("argv, code, message", [
    (["--ymin", "-inf"], 1, "error: config key 'ymin' must be finite, got -inf"),
    (["--ymin", "-Infinity"], 1, "error: config key 'ymin' must be finite, got -inf"),
    (["--ymax", "-2.5e1"], 3, "error: response bound violated by data"),
    (["--ymax", "-.5"], 3, "error: response bound violated by data"),
    (["--level", "-1e-2"], 1, "error: level must be inside (0,1), got -0.01"),
])
def test_negative_numeric_flag_values_are_numbers(fix8_path, capsys, argv, code, message):
    got, out, err = run(["bounds", "--data", str(fix8_path), *argv], capsys)
    assert got == code
    assert err.startswith(message)
    assert "expected one argument" not in err and out == ""


def test_negative_scientific_response_bound(fix8_path, capsys):
    code, out, _ = run(["bounds", "--data", str(fix8_path), "--format", "structured",
                        "--ymin", "-1e3", "--ymax", "1e3"], capsys)
    assert code == 0
    bounded = json.loads(out)["bounds"]["bounded_response"]
    assert (bounded["ymin"], bounded["ymax"]) == (-1000.0, 1000.0)
    assert run(["bounds", "--data", str(fix8_path), "--format", "structured",
                "--ymin=-1e3", "--ymax=1e3"], capsys)[1] == out


@pytest.mark.parametrize("document", [
    "strata: [\n",  # not YAML
    "strata: 5\n", "strata: [5]\n", "p_z: abc\nstrata: []\n", "p_z: [1]\nstrata: []\n",
    "double_exclusion: 'no'\nstrata: []\n",
    # Fields that would coerce to a full-complier stratum of probability 1.
    "strata:\n- {prob: true, d1: '01', d2: ['01', '01'], mean_y: [[0, 0], [0, 1]]}\n",
    "strata:\n- {prob: 1, d1: [0, 1], d2: ['01', '01'], mean_y: [[0, 0], [0, 1]]}\n",
    # Non-finite reals, which would pass the probability-sum check or draw no noise.
    "strata:\n- {prob: .nan, d1: [0, 1], d2: [[0, 1], [0, 1]], mean_y: [[0, 0], [0, 1]]}\n",
    "strata:\n- {prob: 1, d1: [0, 1], d2: [[0, 1], [0, 1]], mean_y: [[0, 0], [0, 1]],"
    " y_sd: .nan}\n",
    "strata:\n- {prob: 1, d1: [0, 1], d2: [[0, 1], [0, 1]], mean_y: [[0, .inf], [0, 1]]}\n",
    # Unknown keys of mixed types.
    "1: 2\nfoo: 3\nstrata: []\n",
    "strata:\n- {1: 2, foo: 3, prob: 1, d1: [0, 1], d2: [[0, 1], [0, 1]],"
    " mean_y: [[0, 0], [0, 1]]}\n",
])
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_malformed_spec_file_exit_2(tmp_path, capsys, document, command):
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(document, encoding="utf-8")
    out_path = tmp_path / "draw.csv"
    code, out, err = run([command, "--data", str(spec_path), "--out", str(out_path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err and out == ""
    assert not out_path.exists()


# The structured document, section by section. Each section is the
# ``report.as_dict`` of one result record, so its keys are the result's fields.
CELL = {"value", "se", "ci_low", "ci_high", "n", "cluster_count", "definition"}
JOINT = {"statistic", "dof", "p_value", "kind"}
PAIR = {"or_minus_d2", "and_minus_d2", "joint"}
BOUND = {"kind", "lower", "upper", "assumptions", "warnings", "flipped"}
CHECK = {"name", "applicable", "passed", "lhs", "rhs", "note"}
DEFINITIONS = {"d1", "d2", "d_and", "d_or", "d_sum"}


def _assert_cells(cells):
    for c in cells:
        assert set(c) == CELL


def _assert_schema(doc, command):
    section = {"estimate": {"estimates", "shares"}, "diagnose": {"diagnostics"},
               "bounds": {"diagnostics", "bounds"}, "simulate": {"simulation"},
               "verify": {"verification"}}[command]
    assert set(doc) == {"command", "metadata", "warnings"} | section
    assert set(doc["metadata"]) == {"version", "seed", "config_hash"}
    if "estimates" in doc:
        est = doc["estimates"]
        assert set(est) == {"first_stage", "iv_estimand", "reduced_form"}
        assert set(est["first_stage"]) == set(est["iv_estimand"]) == DEFINITIONS
        _assert_cells([*est["first_stage"].values(), *est["iv_estimand"].values(),
                       est["reduced_form"]])
        shares = doc["shares"]
        assert set(shares) == {"p_full", "p_dropout", "p_late_adopter", "warnings"}
        _assert_cells([shares["p_full"], shares["p_dropout"], shares["p_late_adopter"]])
    if "diagnostics" in doc:
        assert set(doc["diagnostics"]) == {"mover_test", "double_exclusion"}
        mover = doc["diagnostics"]["mover_test"]
        assert set(mover) == {"level", "conclusion", "method", "caveat", "degenerate",
                              "recommendation", "step1", "step2"}
        for step in ("step1", "step2"):
            assert set(mover[step]) == PAIR
            _assert_cells([mover[step]["or_minus_d2"], mover[step]["and_minus_d2"]])
            assert set(mover[step]["joint"]) == JOINT
        sign = doc["diagnostics"]["double_exclusion"]
        assert set(sign) == {"level", "verdict", "or_minus_d2", "and_minus_d2",
                             "one_sided_p"}
        _assert_cells([sign["or_minus_d2"], sign["and_minus_d2"]])
        assert len(sign["one_sided_p"]) == 2
    if "bounds" in doc:
        bounds = doc["bounds"]
        assert set(bounds) == {"theorem1", "bounded_response", "tau", "downgraded"}
        assert set(bounds["theorem1"]) == BOUND
        assert set(bounds["bounded_response"]) == BOUND | {"ymin", "ymax"}
        assert set(bounds["tau"]) == BOUND | {"maximizer"}
        _assert_cells([bounds[k][end] for k in ("theorem1", "bounded_response", "tau")
                       for end in ("lower", "upper")])
    if "verification" in doc:
        verification = doc["verification"]
        assert set(verification) == {"tolerance", "all_passed", "clean", "flags", "checks"}
        assert verification["checks"]
        for c in verification["checks"]:
            assert set(c) == CHECK
    if "simulation" in doc:
        simulation = doc["simulation"]
        assert set(simulation) == {"data_path", "truth_path", "n", "seed", "truth"}
        truth = simulation["truth"]
        assert set(truth) == {"spec", "audit", "group_probs", "group_effects",
                              "lafte_over_c", "tau", "moments"}
        assert set(truth["audit"]) == {"no_movers", "double_exclusion", "mtr", "mts",
                                       "positive_response", "relevance", "homogeneity"}
        assert set(truth["audit"]["homogeneity"]) == DEFINITIONS - {"d_sum"}
        assert set(truth["moments"]) == {"first_stage", "reduced_form"}
        assert set(truth["moments"]["first_stage"]) == DEFINITIONS


def _leaf_types(node):
    if isinstance(node, dict):
        assert all(type(key) is str for key in node)
        return set().union(*map(_leaf_types, node.values()))
    if type(node) in (list, tuple):
        return set().union(*map(_leaf_types, node))
    return {type(node)}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_structured_document_schema(tmp_path, fix8_path, capsys):
    from lafte.cli import _RUNNERS, _build_parser, build_config
    from lafte.report import document
    spec_path = tmp_path / "s2.yaml"
    save_spec(s2_spec(y_sd=0.5), spec_path)
    draw = tmp_path / "draw.csv"
    households = tmp_path / "hh.csv"
    table = random_table(np.random.default_rng(4), n=300, cluster_size=3)
    save_table(from_arrays(table.z, table.d1, table.d2, table.y, cluster=table.cluster,
                           controls=np.random.default_rng(5).standard_normal((300, 2)),
                           control_names=("x1", "x2")), households)
    runs = [[command, "--data", str(fix8_path)] for command in ("estimate", "diagnose",
                                                                 "bounds")]
    runs += [["bounds", "--data", str(households), "--controls", "x1,x2", "--cluster", "cluster"],
             ["verify", "--data", str(spec_path)],
             ["simulate", "--data", str(spec_path), "--n", "200", "--out", str(draw)]]
    for argv in runs:
        code, out, _ = run([*argv, "--format", "structured"], capsys)
        assert code == 0
        doc = json.loads(out, parse_constant=_reject_constant)
        _assert_schema(doc, argv[0])
        args = _build_parser().parse_args([*argv, "--format", "structured"])
        config = build_config(args.command, args)
        sections, warnings, _ = _RUNNERS[args.command](config)
        assert _leaf_types([sections, warnings]) <= {str, int, float, bool, type(None)}
        assert document(args.command, config.metadata(), sections, warnings) == out
    json.loads(Path(f"{draw}.truth.json").read_text(encoding="utf-8"),
               parse_constant=_reject_constant)


def _cells(node):
    """Every mapping of a document that reports a value with its SE and interval."""
    if isinstance(node, dict):
        if {"value", "se", "ci_low", "ci_high"} <= node.keys():
            yield node
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _cells(child)


@pytest.mark.parametrize("which", ["clustered", "degenerate", "exact"])
def test_every_reported_interval_is_its_value_plus_or_minus_1_96_se(tmp_path, capsys, which):
    # One rule for every cell that estimate, diagnose and bounds report: the
    # interval is value -/+ 1.96 se bit for bit, or the SE and both ends are
    # None. The degenerate table has no movers (d1 == d2) and y = 0, so no
    # bounds cell has an SE. The exact one, a noiseless draw of full
    # compliers, is fitted exactly: its SEs are 0 or dust, and its document
    # is still strict JSON.
    path = tmp_path / "t.csv"
    flags = []
    if which == "clustered":
        rng = np.random.default_rng(6)
        table = random_table(rng, n=300, cluster_size=3)
        save_table(from_arrays(table.z, table.d1, table.d2, table.y, cluster=table.cluster,
                               controls=rng.standard_normal((300, 2)),
                               control_names=("x1", "x2")), path)
        flags = ["--controls", "x1,x2", "--cluster", "cluster"]
    elif which == "degenerate":
        d = [0, 0, 0, 1, 0, 1, 1, 1]
        save_table(from_arrays([0, 0, 0, 0, 1, 1, 1, 1], d, d, [0.0] * 8), path)
    else:
        save_table(sample(single_full_complier_spec(), 2000, seed=1), path)
    for command in ("estimate", "diagnose", "bounds"):
        code, out, _ = run([command, "--data", str(path), *flags, "--format", "structured"],
                           capsys)
        assert code == 0
        cells = list(_cells(json.loads(out, parse_constant=_reject_constant)))
        assert cells
        for cell in cells:
            value, se = cell["value"], cell["se"]
            if se is None:
                assert cell["ci_low"] is None and cell["ci_high"] is None
            else:
                assert cell["ci_low"] == value - 1.96 * se
                assert cell["ci_high"] == value + 1.96 * se
        if command == "bounds" and which == "degenerate":
            assert all(cell["se"] is None for cell in cells)


# The floats of estimate, diagnose and bounds that move with the origin of y,
# by their path in the document. Theorem 1's upper end holds through positive
# response, E[Y(0,0) | C1A2] >= 0; the bounded-response range is y's own; and
# y + c moves each step-2 contrast by c times its plain, step-1 contrast.
_CELL_FLOATS = ("value", "se", "ci_low", "ci_high")
ORIGIN_DEPENDENT = (
    {("bounds", "theorem1", "upper", key) for key in _CELL_FLOATS}
    | {("bounds", "bounded_response", key) for key in ("ymin", "ymax")}
    | {("diagnostics", "mover_test", "step2", pair, key)
       for pair in ("or_minus_d2", "and_minus_d2") for key in _CELL_FLOATS}
    | {("diagnostics", "mover_test", "step2", "joint", key) for key in ("statistic", "p_value")})


def _floats(node, path=()):
    """Each float of a document, with its path."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _floats(child, (*path, key))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _floats(child, (*path, index))
    elif type(node) is float:
        yield path, node


def test_only_the_declared_fields_move_with_the_origin_of_y(tmp_path, capsys):
    # A no-mover draw on which step 1 does not reject, so step 2 is reported,
    # and the same draw with y + 8: every other float agrees to 1e-9.
    spec = PopulationSpec(strata=tuple(stratum(group, prob, {}, y_sd=1.0) for group, prob in (
        ("C1C2", 0.4), ("N1N2", 0.2), ("A1A2", 0.2), ("N1A2", 0.1), ("A1N2", 0.1))))
    table = sample(spec, 20_000, seed=4)
    for shift in (0.0, 8.0):
        save_table(from_arrays(table.z, table.d1, table.d2, table.y + shift),
                   tmp_path / f"{shift}.csv")
    for command in ("estimate", "diagnose", "bounds"):
        docs = []
        for shift in (0.0, 8.0):
            code, out, _ = run([command, "--data", str(tmp_path / f"{shift}.csv"),
                                "--format", "structured"], capsys)
            assert code == 0
            docs.append(json.loads(out))
        base, shifted = (dict(_floats(doc)) for doc in docs)
        assert base.keys() == shifted.keys()
        moved = {path for path in base
                 if not math.isclose(base[path], shifted[path], rel_tol=1e-9)}
        assert moved == {path for path in ORIGIN_DEPENDENT if path[0] in docs[0]}
        if command == "diagnose":
            mover = [doc["diagnostics"]["mover_test"] for doc in docs]
            for pair in ("or_minus_d2", "and_minus_d2"):
                step1 = mover[0]["step1"][pair]["value"]
                step2 = [m["step2"][pair]["value"] for m in mover]
                assert step2[1] - step2[0] == pytest.approx(8 * step1, rel=1e-9)


@pytest.mark.parametrize("command", ["estimate", "diagnose", "bounds"])
def test_overflowing_fit_exit_3(tmp_path, capsys, command):
    # Finite outcomes whose sums and squared scores overflow a float.
    path = tmp_path / "huge.csv"
    path.write_text("z,d1,d2,y\n0,0,0,1e308\n0,0,1,-1e308\n0,1,0,1e308\n"
                    "1,1,1,-1e308\n1,1,0,1e308\n1,0,1,-1e308\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run([command, "--data", str(path), "--format", "structured"], capsys)
    assert code == 3
    assert err.startswith("error: numeric overflow") and "Traceback" not in err
    assert caught == [] and out == ""


def test_yaml_1_2_floats_are_numbers(tmp_path, fix8_path, capsys, monkeypatch):
    # YAML 1.1 reads 1e3 as a string; a field that names a file or a column
    # keeps the text as written.
    table = load_table(fix8_path)
    monkeypatch.chdir(tmp_path)
    save_table(from_arrays(table.z, table.d1, table.d2, table.y,
                           cluster=["a", "a", "b", "b", "c", "c", "d", "d"]), tmp_path / "1e5")
    (tmp_path / "1e5").write_text((tmp_path / "1e5").read_text().replace("cluster", "1e5"))
    config = tmp_path / "run.yaml"
    config.write_text("input: 1e5\ncluster: 1e5\nymin: -1e3\nymax: 1e3\nlevel: 1e-2\n",
                      encoding="utf-8")
    code, out, err = run(["bounds", "--config", str(config), "--format", "structured"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["bounds"]["bounded_response"]["ymin"] == -1000.0
    assert doc["bounds"]["bounded_response"]["ymax"] == 1000.0
    assert doc["diagnostics"]["mover_test"]["level"] == 0.01
    assert doc["bounds"]["theorem1"]["lower"]["cluster_count"] == 4
    spec = tmp_path / "spec.yaml"
    spec.write_text("p_z: 5e-1\nstrata:\n- {prob: 1e0, d1: [0, 1], d2: [[0, 1], [0, 1]],"
                    " mean_y: [[1e3, 0], [0, 1]], y_sd: 1E-1}\n", encoding="utf-8")
    code, out, err = run(["verify", "--data", str(spec), "--format", "structured"], capsys)
    assert code == 0, err


@pytest.mark.parametrize("document, command, code", [
    ("ymin: '-1e3'\n", "estimate", 1),
    ("level: !!bool yes\n", "estimate", 1),
    ("strata:\n- {prob: 1, d1: [0, 1], d2: [[0, 1], [0, 1]], mean_y: [['1e3', 0], [0, 1]]}\n",
     "verify", 2),
])
def test_quoted_or_bool_numbers_still_rejected(tmp_path, fix8_path, capsys, document, command,
                                               code):
    path = tmp_path / "doc.yaml"
    path.write_text(document, encoding="utf-8")
    argv = ([command, "--config", str(path), "--data", str(fix8_path)] if command == "estimate"
            else [command, "--data", str(path)])
    exit_code, out, err = run(argv, capsys)
    assert exit_code == code
    assert "must be a number" in err and out == ""


def _household_table(rng, n):
    """Rows in households of 2-6 with two controls: the instrument and the
    second control per household, the treatments, the first control and a
    noise term per person, and an outcome shock shared by a household."""
    household = np.repeat(np.arange(n), rng.integers(2, 7, n))[:n]
    households = household[-1] + 1
    z = rng.integers(0, 2, households)[household]
    d1 = (rng.random(n) < 0.3 + 0.4 * z).astype(int)
    d2 = (rng.random(n) < 0.2 + 0.3 * z + 0.2 * d1).astype(int)
    x1 = rng.standard_normal(n)
    x2 = rng.integers(-1, 2, households)[household].astype(float)
    y = (d1 & d2) + 0.5 * d1 + 0.5 * x1 + 0.3 * x2 + 0.5 * rng.standard_normal(households)[
        household] + rng.standard_normal(n)
    return z, d1, d2, y, np.column_stack([x1, x2]), household


def _assert_leaves_close(new, ref, path="document"):
    """Every float leaf within 1e-12 * max(1, |a|, |b|), every other leaf equal."""
    if isinstance(ref, dict):
        assert new.keys() == ref.keys(), path
        for key in ref:
            _assert_leaves_close(new[key], ref[key], f"{path}.{key}")
    elif isinstance(ref, list):
        assert len(new) == len(ref), path
        for i, (a, b) in enumerate(zip(new, ref)):
            _assert_leaves_close(a, b, f"{path}[{i}]")
    elif isinstance(ref, float) and isinstance(new, float):
        assert abs(new - ref) <= 1e-12 * max(1.0, abs(new), abs(ref)), (path, new, ref)
    else:
        assert new == ref, (path, new, ref)


def test_the_documents_do_not_move_with_cluster_names_row_order_or_control_origins(
        tmp_path, capsys):
    # estimate, diagnose and bounds on 20000 household rows, and on the same
    # rows with the clusters renamed in reverse order, with the rows
    # permuted, and with x1 -> 3 + 2 x1 and x2 -> 1e4 + x2: every field but
    # the metadata agrees to 1e-12.
    rng = np.random.default_rng(19)
    z, d1, d2, y, controls, household = _household_table(rng, 20_000)
    order = rng.permutation(z.size)
    last = household.max()
    variants = {
        "table": (z, d1, d2, y, controls, household),
        "renamed": (z, d1, d2, y, controls, last - household),
        "permuted": tuple(column[order] for column in (z, d1, d2, y, controls, household)),
        "shifted": (z, d1, d2, y, np.column_stack([3 + 2 * controls[:, 0],
                                                   1e4 + controls[:, 1]]), household),
    }
    documents = {}
    for name, (z_, d1_, d2_, y_, controls_, household_) in variants.items():
        path = tmp_path / f"{name}.csv"
        labels = np.array([f"hh{h:06d}" for h in household_.tolist()], dtype=object)
        save_table(from_arrays(z_, d1_, d2_, y_, controls=controls_, control_names=("x1", "x2"),
                               cluster=labels), path)
        for command in ("estimate", "diagnose", "bounds"):
            code, out, _ = run([command, "--data", str(path), "--controls", "x1,x2",
                                "--cluster", "cluster", "--format", "structured"], capsys)
            assert code == 0, (name, command)
            documents[name, command] = json.loads(out)
            del documents[name, command]["metadata"]
    for name in ("renamed", "permuted", "shifted"):
        for command in ("estimate", "diagnose", "bounds"):
            _assert_leaves_close(documents[name, command], documents["table", command],
                                 f"{name} {command}")
