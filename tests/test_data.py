import csv
import errno
import io
import itertools
import json
import os
import re
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lafte import data
from lafte.cli import main
from lafte import (
    ColumnMissingError,
    ConfigError,
    DataError,
    DerivedColumns,
    PopulationSpec,
    first_stage,
    from_arrays,
    load_table,
    sample,
    save_table,
    slopes,
    stratum,
)

from conftest import FIX8_CSV, fix8_table, s2_spec, single_full_complier_spec


def test_load_fix8(fix8_path):
    table = load_table(fix8_path, {"z": "z", "d1": "d1", "d2": "d2", "y": "y"})
    assert table.n == 8
    assert table.cluster is None
    assert list(table.z) == [1, 1, 1, 1, 0, 0, 0, 0]
    assert table.y[0] == 3.0


def test_load_default_mapping(fix8_path):
    table = load_table(fix8_path)
    assert table.n == 8


def test_missing_column_named(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(FIX8_CSV, encoding="utf-8")
    with pytest.raises(ColumnMissingError, match="treat"):
        load_table(path, {"z": "z", "d1": "treat", "d2": "d2", "y": "y"})


def test_non_binary_treatment_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("z,d1,d2,y\n1,2,1,3\n0,0,0,1\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-binary treatment column"):
        load_table(path)


def test_true_false_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("z,d1,d2,y\n1,true,1,3\n0,0,0,1\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-binary treatment column"):
        load_table(path)


def test_blank_row_dropped_with_warning(tmp_path):
    rows = FIX8_CSV.splitlines()
    rows[2] = "1,1,0,"  # blank out one y
    path = tmp_path / "t.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    table = load_table(path)
    assert table.n == 7
    assert any("dropped 1 row" in w for w in table.warnings)


def test_missing_policy_fail(tmp_path):
    rows = FIX8_CSV.splitlines()
    rows[2] = "1,1,0,"
    path = tmp_path / "t.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="missing value"):
        load_table(path, on_missing="fail")
    with pytest.raises(ConfigError):
        load_table(path, on_missing="nonsense")


def test_empty_instrument_arm(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("z,d1,d2,y\n1,1,1,3\n1,0,0,1\n", encoding="utf-8")
    with pytest.raises(DataError, match="empty instrument arm"):
        load_table(path)


def test_unreadable_file(tmp_path):
    with pytest.raises(DataError, match="unreadable"):
        load_table(tmp_path / "nope.csv")


def test_controls_and_cluster(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "z,d1,d2,y,x,hh\n1,1,1,3,0.5,a\n1,0,0,1,-1,a\n0,0,0,0,2,b\n0,0,1,2,0,b\n",
        encoding="utf-8")
    table = load_table(path, {"z": "z", "d1": "d1", "d2": "d2", "y": "y",
                              "controls": ["x"], "cluster": "hh"})
    assert table.controls.shape == (4, 1)
    assert table.cluster_count == 2


def test_nonfinite_control_rejected():
    with pytest.raises(DataError, match="non-finite"):
        from_arrays([1, 0], [1, 0], [1, 0], [1.0, 2.0], controls=[[np.inf], [0.0]])


def test_tab_delimiter(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text(FIX8_CSV.replace(",", "\t"), encoding="utf-8")
    table = load_table(path, delimiter="\t")
    assert table.n == 8


def test_derive_rows():
    # direct evaluation of the defining formulas, row by row
    t = from_arrays([1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0], [5.0, 2.0, 3.0, 7.0])
    d = DerivedColumns.of(t.d1, t.d2, t.y)
    # row (d1=1, d2=0, y=5)
    assert (d.d_and[0], d.d_or[0], d.d_sum[0], d.g_or[0], d.g_and[0]) == (0, 1, 1, 1, 0)
    assert (d.gy_or[0], d.untreated_y[0], d.kernel_y[0]) == (5.0, 0.0, 0.0)
    # row (d1=0, d2=1, y=2)
    assert (d.d_and[1], d.d_or[1], d.g_and[1], d.gy_and[1], d.kernel_y[1]) == (0, 1, -1, -2.0, 0.0)
    # row (d1=1, d2=1, y=3)
    assert (d.d_and[2], d.dand_y[2], d.kernel_y[2], d.untreated_y[2]) == (1, 3.0, 3.0, 0.0)
    # row (d1=0, d2=0, y=7)
    assert (d.untreated_y[3], d.kernel_y[3]) == (7.0, 7.0)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
                          st.floats(-50, 50)),
                min_size=2, max_size=30))
@settings(max_examples=60, deadline=None)
def test_derive_identities(rows):
    z = [r[0] for r in rows]
    if len(set(z)) < 2:
        z[0], z[-1] = 0, 1
    t = from_arrays(z, [r[1] for r in rows], [r[2] for r in rows], [r[3] for r in rows])
    d = DerivedColumns.of(t.d1, t.d2, t.y)
    assert np.array_equal(d.d_and * d.d_or, d.d_and)
    assert np.array_equal(d.d_sum, t.d1 + t.d2)
    assert np.array_equal(d.d_and + d.d_or, d.d_sum)
    assert np.all(d.d_and <= np.minimum(t.d1, t.d2))
    assert np.all(d.d_or >= np.maximum(t.d1, t.d2))
    assert np.all(np.isin(d.g_or, (0, 1)))
    assert np.all(np.isin(d.g_and, (-1, 0)))
    kernel = t.y * (1 - t.d1 - t.d2 + 2 * t.d1 * t.d2)
    assert np.array_equal(d.kernel_y, kernel)
    # arm-wise mean identity: the underlying sums agree exactly as integers
    for arm in (0, 1):
        mask = t.z == arm
        assert d.d_and[mask].sum() + d.d_or[mask].sum() == t.d1[mask].sum() + t.d2[mask].sum()
        lhs = d.d_and[mask].mean() + d.d_or[mask].mean()
        rhs = t.d1[mask].mean() + t.d2[mask].mean()
        assert lhs == pytest.approx(rhs, rel=1e-15, abs=1e-15)


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    n = 50
    z = rng.integers(0, 2, n)
    z[0], z[1] = 0, 1
    d1 = rng.integers(0, 2, n)
    d2 = rng.integers(0, 2, n)
    y = rng.standard_normal(n) * 1e3
    x = rng.standard_normal((n, 2))
    cluster = np.array([f"c{i % 7}" for i in range(n)], dtype=object)
    t = from_arrays(z, d1, d2, y, controls=x, control_names=("a", "b"), cluster=cluster)
    path = tmp_path / "round.csv"
    save_table(t, path)
    back = load_table(path, {"z": "z", "d1": "d1", "d2": "d2", "y": "y",
                             "controls": ["a", "b"], "cluster": "cluster"})
    assert np.array_equal(back.z, t.z)
    assert np.array_equal(back.d1, t.d1)
    assert np.array_equal(back.d2, t.d2)
    assert np.array_equal(back.y, t.y)  # repr round-trips exactly
    assert np.array_equal(back.controls, t.controls)
    assert list(back.cluster) == list(t.cluster)


@pytest.mark.parametrize("names, cluster, repeated", [
    (("y",), None, "y"),  # a control named like an input
    (("a", "a"), None, "a"),
    (("a", " a"), None, "a"),  # load_table strips header names
    (("cluster",), ["a", "a", "b", "b"], "cluster"),
])
def test_save_refuses_a_header_that_repeats_a_name(tmp_path, names, cluster, repeated):
    # load_table would read every use of a repeated name from its first column.
    t = from_arrays([0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0],
                    controls=np.arange(4.0 * len(names)).reshape(4, -1), control_names=names,
                    cluster=cluster)
    path = tmp_path / "out.csv"
    with pytest.raises(DataError, match=f"column '{repeated}' repeats in the header"):
        save_table(t, path)
    assert not path.exists()


def test_constant_derived_column_warning():
    # d2 >= d1 everywhere makes d_or equal d2, so g_or is constant zero
    t = from_arrays([1, 1, 0, 0], [1, 0, 0, 0], [1, 1, 1, 0], [1.0, 2.0, 3.0, 4.0])
    assert any("g_or" in w and "constant" in w for w in t.warnings)


def _one_cluster(arm):
    return (f"every row with z={arm} lies in one cluster: the cluster-robust standard errors "
            "leave out that arm's variation")


def test_an_arm_in_one_cluster_is_warned():
    # W holds 1 and z, so the residuals sum to zero within each arm, and the
    # sum of an arm that is one cluster carries none of its variation.
    rows = np.array([[1, 1, 1, 3.0], [1, 0, 1, 2.0], [1, 0, 1, 2.0], [1, 1, 0, 1.0],
                     [0, 0, 0, 0.0], [0, 0, 0, 1.0], [0, 1, 0, 0.0], [0, 0, 1, 0.5]])
    z, d1, d2, y = rows.T
    table = from_arrays(z, d1, d2, y, cluster=z)
    assert [w for w in table.warnings if "one cluster" in w] == [_one_cluster(0), _one_cluster(1)]
    assert first_stage(table, "d1").se == 0.0
    # Arm 1 one cluster, arm 0 fifty: its first stage's SE falls below HC1's.
    rng = np.random.default_rng(4)
    z = np.repeat([1, 0], 2000)
    d1, d2 = (rng.random(4000) < 0.3 + 0.3 * z for _ in range(2))
    y = d1 + d2 + rng.standard_normal(4000)
    cluster = np.where(z == 1, 50, np.arange(4000) % 50)
    table = from_arrays(z, d1, d2, y, cluster=cluster)
    assert [w for w in table.warnings if "one cluster" in w] == [_one_cluster(1)]
    unclustered = from_arrays(z, d1, d2, y)
    assert (first_stage(table, "d1").se
            < first_stage(unclustered, "d1").se)
    # Arms that span two clusters, or a one-row arm (a tiny arm), are not warned.
    for cluster in (np.arange(4000) % 2, np.arange(4000) % 51):
        assert not any("one cluster" in w for w in from_arrays(z, d1, d2, y,
                                                               cluster=cluster).warnings)
    tiny = from_arrays(z[1999:], d1[1999:], d2[1999:], y[1999:], cluster=z[1999:])
    assert [w for w in tiny.warnings if "arm" in w] == [
        _one_cluster(0), "tiny instrument arm: only 1 row(s) with z=1"]


def test_tables_are_immutable(fix8):
    with pytest.raises(ValueError):
        fix8.z[0] = 0
    with pytest.raises(ValueError):
        DerivedColumns.of(fix8.d1, fix8.d2, fix8.y).d_and[0] = 5.0


def test_from_arrays_leaves_the_callers_arrays_alone():
    z = np.array([0, 1, 0, 1], dtype=np.uint8)
    d1 = np.array([0, 1, 1, 0], dtype=np.uint8)
    d2 = np.array([0, 0, 1, 1], dtype=np.uint8)
    y = np.array([1.0, 2.0, 3.0, 4.0])
    controls = np.array([[0.5, 1.0], [1.5, 2.0], [2.5, 3.0], [3.5, 4.0]])
    labels = np.array(["a", "b", "a", "b"], dtype=object)
    table = from_arrays(z, d1, d2, y, controls=controls, cluster=labels)
    for a in (z, d1, d2, y, controls, labels):
        assert a.flags.writeable
    for a, b in ((table.z, z), (table.d1, d1), (table.d2, d2), (table.y, y),
                 (table.controls, controls), (table.cluster, labels)):
        assert not np.shares_memory(a, b) and not a.flags.writeable
    z[0], y[0], controls[0, 0], labels[0] = 1, -9.0, -9.0, "c"
    assert (table.z[0], table.y[0], table.controls[0, 0], table.cluster[0]) == (0, 1.0, 0.5, "a")
    # A 1-D control column is viewed as n x 1, and still copied.
    table = from_arrays(z, d1, d2, y, controls=y)
    y[1] = -9.0
    assert table.controls[1, 0] == 2.0


@pytest.mark.parametrize("quote", ["", '"'])
def test_rows_of_a_cluster_share_one_label(tmp_path, monkeypatch, quote):
    # A quoted label sends the file through csv.reader, so both tokenizers
    # run; pieces of four rows check that the labels are shared across chunks.
    monkeypatch.setattr(data, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(data, "_SCAN_BYTES", 64)
    rows = [f"{i % 2},{i // 2 % 2},{i // 4 % 2},{i}.5,{quote}house{i % 3}{quote}"
            for i in range(24)]
    path = tmp_path / "hh.csv"
    path.write_text("z,d1,d2,y,hh\n" + "\n".join(rows) + "\n", encoding="utf-8")
    t = load_table(path, {"z": "z", "d1": "d1", "d2": "d2", "y": "y", "cluster": "hh"})
    assert t.n == 24 and t.cluster_count == 3
    assert len({id(v) for v in t.cluster}) == t.cluster_count


def test_validation_needs_two_rows():
    with pytest.raises(DataError, match="at least 2"):
        from_arrays([1], [1], [1], [1.0])


def test_validation_message_lists_every_finding():
    with pytest.raises(DataError) as info:
        from_arrays([1, 1], [1, 2], [1, 0], [1.0, 2.0])
    findings = str(info.value).split("; ")
    assert len(findings) == 2
    assert findings[0] == "non-binary treatment column 'd1': value 2"
    assert findings[1] == "empty instrument arm (z=0)"
    with pytest.raises(DataError, match=r"^non-binary instrument column 'z': value 0\.5$"):
        from_arrays([0.5, 1.0], [1, 0], [1, 0], [1.0, 2.0])
    with pytest.raises(DataError) as info:
        from_arrays([0, 1, 1], [0, 1], [0, 1, 1], [1.0, 2.0], controls=[[1.0]] * 4,
                    cluster=["a", "b"])
    assert str(info.value).split("; ") == [
        "column 'd1' has 2 rows, expected 3", "column 'y' has 2 rows, expected 3",
        "controls have 4 rows, expected 3", "cluster column has 2 rows, expected 3"]


# --- Row-wise reference implementations of the loader and the writer ------
#
# These are the loop versions load_table/save_table replaced. The columnar
# versions must agree with them bit for bit: same arrays and warnings, or
# the same exception type and message.

def _rowwise_parse_binary(token, name, kind):
    tok = token.strip()
    if tok == "0":
        return 0
    if tok == "1":
        return 1
    raise DataError(f"non-binary {kind} column '{name}': value {token!r}")


def _rowwise_parse_float(token, name):
    try:
        return float(token)
    except ValueError:
        raise DataError(f"could not parse numeric column '{name}': value {token!r}") from None


def _rowwise_load(path, mapping=None, *, delimiter=",", on_missing="drop"):
    if on_missing not in ("drop", "fail"):
        raise ConfigError(f"unknown missing-data policy {on_missing!r}")
    mapping = {"z": "z", "d1": "d1", "d2": "d2", "y": "y"} if mapping is None else dict(mapping)
    control_names = [str(c) for c in mapping.get("controls", []) or []]
    cluster_name = mapping.get("cluster")
    uses = [(f"'{key}'", str(mapping[key])) for key in ("z", "d1", "d2", "y")]
    uses += [(f"control {j}", name) for j, name in enumerate(control_names, 1)]
    for i, (use, column) in enumerate(uses):
        earlier = [first for first, name in uses[:i] if name == column]
        if earlier:
            raise ConfigError(f"column '{column}' is named as {earlier[0]} and as {use}; "
                              "z, d1, d2, y and each control must be distinct columns")
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"unreadable file {path}: {exc}") from None
    with handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"file {path} is empty") from None
        header = [h.strip() for h in header]
        cols = [str(mapping["z"]), str(mapping["d1"]), str(mapping["d2"]), str(mapping["y"])]
        cols += control_names
        if cluster_name:
            cols.append(str(cluster_name))
        absent = [col for col in cols if col not in header]
        if absent:
            raise ColumnMissingError(
                f"column(s) {absent} not found in {path}; header is {header}")
        index = {col: header.index(col) for col in cols}
        kept, dropped = [], 0
        for rownum, row in enumerate(reader, start=2):
            if not row or all(tok.strip() == "" for tok in row):
                continue
            fields, missing = [], False
            for col in cols:
                i = index[col]
                tok = row[i] if i < len(row) else ""
                if tok.strip().lower() in {"", ".", "na", "nan"}:
                    missing = True
                fields.append(tok)
            if missing:
                if on_missing == "fail":
                    raise DataError(f"missing value at line {rownum} of {path}")
                dropped += 1
                continue
            kept.append(fields)
    if not kept:
        raise DataError(f"no complete rows in {path}")
    n = len(kept)
    z = np.empty(n, dtype=np.int64)
    d1 = np.empty(n, dtype=np.int64)
    d2 = np.empty(n, dtype=np.int64)
    y = np.empty(n, dtype=float)
    controls = np.empty((n, len(control_names)))
    cluster = np.empty(n, dtype=object) if cluster_name else None
    for i, fields in enumerate(kept):
        z[i] = _rowwise_parse_binary(fields[0], str(mapping["z"]), "instrument")
        d1[i] = _rowwise_parse_binary(fields[1], str(mapping["d1"]), "treatment")
        d2[i] = _rowwise_parse_binary(fields[2], str(mapping["d2"]), "treatment")
        y[i] = _rowwise_parse_float(fields[3], str(mapping["y"]))
        for j, cname in enumerate(control_names):
            controls[i, j] = _rowwise_parse_float(fields[4 + j], cname)
        if cluster is not None:
            cluster[i] = fields[-1].strip()
    table = from_arrays(z, d1, d2, y, controls=controls, control_names=tuple(control_names),
                        cluster=cluster)
    dropped_warning = (f"dropped {dropped} row(s) with missing values",) if dropped else ()
    return replace(table, warnings=dropped_warning + table.warnings)


def _rowwise_save(table, path, *, delimiter=","):
    names = ["z", "d1", "d2", "y"]
    names += list(table.control_names) or [f"x{j}" for j in range(table.controls.shape[1])]
    if table.cluster is not None:
        names.append("cluster")
        # One text per cluster: the str of its label on its first row.
        texts = {}
        for code, label in zip(table.cluster_codes.tolist(), table.cluster):
            texts.setdefault(code, str(label))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(names)
        for i in range(table.n):
            row = [int(table.z[i]), int(table.d1[i]), int(table.d2[i]), repr(float(table.y[i]))]
            row += [repr(float(v)) for v in table.controls[i]]
            if table.cluster is not None:
                row.append(texts[int(table.cluster_codes[i])])
            writer.writerow(row)


def _load_outcome(load, path, **kwargs):
    try:
        return load(path, **kwargs)
    except Exception as exc:  # the outcome under comparison, whatever it is
        return exc


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_table(new, ref):
    for name in ("z", "d1", "d2", "y", "controls"):
        assert _same_bits(getattr(new, name), getattr(ref, name)), name
    assert (new.cluster is None) == (ref.cluster is None)
    if ref.cluster is not None:
        assert list(new.cluster) == list(ref.cluster)
        assert _same_bits(new.cluster_codes, ref.cluster_codes)
    assert new.cluster_count == ref.cluster_count
    assert new.warnings == ref.warnings
    assert new.control_names == ref.control_names


# Per column kind: tokens that parse, then odd tokens (missing, unparseable
# or non-finite). Each file draws, per kind, how often a cell takes an odd
# token, so that bad reals are reached without a bad binary token before them.
_TOKENS = {
    "binary": (["0", "1", " 1", "0 ", "\t1"],
               ["2", "true", "", " ", "na", "NA", " NaN ", ".", "-1", "01", "nan"]),
    "float": (["0", "1.5", "-2", " 3 ", "1_0", "1e-3", "-0.0", "2.5e3", "1."],
              ["inf", "-Infinity", "-nan", "+nan", "1e500", "", " ", ".", "na", " Na ",
               "nan", "NaN", "abc", "1,5", '2"x', "4\n5", "1__0"]),
    "label": (["a", "b", " a ", "c", "x,y", 'q"t', "l\nm", "\tb", "7"],
              ["", " ", "na", "NAN", " . "]),
}
_COLUMN_KINDS = {"z": "binary", "d1": "binary", "d2": "binary",
                 "y": "float", "x": "float", "w": "float", "hh": "label"}


@st.composite
def _delimited_files(draw):
    header = list(_COLUMN_KINDS)
    if draw(st.booleans()):
        header = draw(st.permutations(header))
    odd_one_in = {kind: draw(st.sampled_from([0, 4, 16])) for kind in _TOKENS}
    # A plain file has full rows of tokens free of delimiters, quotes and line
    # breaks, as the byte tokenizer of load_table needs.
    plain = draw(st.booleans())
    tokens = {kind: [[tok for tok in group if not plain or tok.isprintable() and not
                      set(tok) & set(',"')] for group in groups]
              for kind, groups in _TOKENS.items()}
    shapes = ["full"] * 12 + (["spaces"] if plain else ["short", "long", "blank", "spaces"])
    rows = []
    for _ in range(draw(st.integers(0, 16))):
        shape = draw(st.sampled_from(shapes))
        if shape == "blank":
            rows.append([])
            continue
        if shape == "spaces":
            width = len(header) if plain else draw(st.integers(1, len(header) + 1))
            rows.append([" "] * width)
            continue
        row = []
        for col in header:
            kind = _COLUMN_KINDS[col]
            usual, odd = tokens[kind]
            is_odd = odd_one_in[kind] and draw(st.integers(1, odd_one_in[kind])) == 1
            row.append(draw(st.sampled_from(odd if is_odd else usual)))
        if shape == "short":
            row = row[:draw(st.integers(1, len(header) - 1))]
        elif shape == "long":
            row.append(draw(st.sampled_from(["extra", "", "1"])))
        rows.append(row)
    return header, rows


def _assert_same_outcome(new, ref):
    if isinstance(new, Exception):
        assert isinstance(new, (ConfigError, DataError)), repr(new)
    if isinstance(ref, (ConfigError, DataError)):
        assert type(new) is type(ref) and str(new) == str(ref)
    elif isinstance(ref, Exception):
        assert isinstance(new, DataError)
    else:
        assert not isinstance(new, Exception), repr(new)
        _assert_same_table(new, ref)


# Pieces that end at every line, inside lines, and across several lines.
_PIECE_BYTES = (1, 7, 64)


def _csv_only(handle, delimiter, **lines):
    raise data._NotPlain


def _byte_path(path, delimiter=","):
    """Whether load_table splits the whole file at ``path`` as bytes."""
    with open(path, "rb") as handle:
        try:
            for _ in data._byte_tokens(handle, delimiter).chunks:
                pass
        except data._NotPlain:
            return False
    return True


def _assert_streamed_loads_match(path, ref, **kwargs):
    """load_table, reading the file in pieces of each size, against ``ref``."""
    for scan_bytes in (*_PIECE_BYTES, data._SCAN_BYTES):
        with mock.patch.object(data, "_SCAN_BYTES", scan_bytes):
            _assert_same_outcome(_load_outcome(load_table, path, **kwargs), ref)


def _assert_both_tokenizers_match_reference(path, **kwargs):
    """load_table with the byte tokenizer allowed, at several piece sizes, and
    forced off, against the row-wise reference; returns whether the byte
    tokenizer applies."""
    ref = _load_outcome(_rowwise_load, path, **kwargs)
    _assert_streamed_loads_match(path, ref, **kwargs)
    with mock.patch.object(data, "_byte_tokens", _csv_only):
        _assert_same_outcome(_load_outcome(load_table, path, **kwargs), ref)
    return _byte_path(path, kwargs.get("delimiter", ","))


_LOADER_CASES = dict(
    file=_delimited_files(),
    delimiter=st.sampled_from([",", "\t"]),
    bom=st.booleans(),
    padded_header=st.booleans(),
    quoted=st.booleans(),
    line_end=st.sampled_from(["\r\n", "\n"]),
    last_line_end=st.booleans(),
    on_missing=st.sampled_from(["drop", "fail"]),
    controls=st.sampled_from([None, ["x"], ["x", "w"], ["y"]]),
    cluster=st.sampled_from([None, "hh", "z"]),
    chunk_rows=st.sampled_from([1, 2, 3, 1 << 16]),
)


def _write_loader_case(path, file, delimiter, bom, padded_header, quoted, line_end,
                       last_line_end, on_missing, controls, cluster):
    """Writes a drawn file of ``_LOADER_CASES`` to ``path``; returns the
    keyword arguments of load_table that read it. Files written by
    csv.writer quote odd tokens; files written by a plain join do not, so
    their odd tokens make ragged rows, bare carriage returns and stray
    quotes."""
    header, rows = file
    header = [f" {h} " if padded_header else h for h in header]
    buffer = io.StringIO()
    if quoted:
        csv.writer(buffer, delimiter=delimiter, lineterminator=line_end).writerows([header, *rows])
    else:
        buffer.write("".join(delimiter.join(row) + line_end for row in [header, *rows]))
    text = buffer.getvalue()
    if not last_line_end:
        text = text.removesuffix(line_end)
    mapping = {"z": "z", "d1": "d1", "d2": "d2", "y": "y"}
    if controls:
        mapping["controls"] = controls
    if cluster:
        mapping["cluster"] = cluster
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(("\ufeff" if bom else "") + text)
    return dict(mapping=mapping, delimiter=delimiter, on_missing=on_missing)


@given(**_LOADER_CASES)
@settings(max_examples=400, deadline=None)
def test_columnar_loader_matches_rowwise_reference(chunk_rows, **case):
    # Each file is read by both tokenizers.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        kwargs = _write_loader_case(path, **case)
        with mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
            _assert_both_tokenizers_match_reference(path, **kwargs)


_HH = {"z": "z", "d1": "d1", "d2": "d2", "y": "y", "controls": ["x"], "cluster": "hh"}
_CLEAN = "z,d1,d2,y,x,hh\n1,1,0,1.5,0.25,a\n0,0,1,-2.0,1e-3,b\n1,0,0,3.0,-0.0,a\n"


@pytest.mark.parametrize("text, byte_path", [
    (_CLEAN, True),
    (_CLEAN.replace("\n", "\r\n"), True),
    ("\ufeff" + _CLEAN, True),
    (_CLEAN.replace("-2.0", "-2.0\r"), False),  # bare carriage return
    (_CLEAN.replace("\n0,0,1", "\r0,0,1"), False),  # carriage return as a line end
    (_CLEAN.replace(",b\n", ",b\0\n"), False),  # NUL
    (_CLEAN.replace(",b\n", ",bé\n"), False),  # non-ASCII label
    (_CLEAN.replace(",b\n", ',"b"\n'), False),  # quote
    (_CLEAN.replace(",b\n", ",b" + "x" * 60 + "\n"), False),  # longer than the field limit
    (_CLEAN.replace(",b\n", ",b,extra\n"), False),  # ragged: long row
    (_CLEAN.replace(",0.25,a\n", ",0.25\n"), False),  # ragged: short row
    (_CLEAN.replace("\n0,0,1", "\n\n0,0,1"), False),  # empty line
    (_CLEAN.replace("\n0,0,1", "\n,,,,,\n0,0,1"), True),  # all-blank row
    (_CLEAN.replace("\n0,0,1", "\n , ,\t, , ,\n0,0,1"), True),  # all-whitespace row
    (_CLEAN.replace(",b\n", ",\n"), True),  # missing cluster label
    (_CLEAN.split("\n")[0], True),  # header only, no line end
    (_CLEAN.split("\n")[0] + "\n", True),  # header only
    (_CLEAN.rstrip("\n"), True),  # missing last line end
    (_CLEAN.rstrip("\n").replace("\n", "\r\n"), True),
    (_CLEAN.rstrip("\n") + "\r", False),
    (_CLEAN.rstrip("\n").removesuffix(",a"), False),  # ragged last row without a line end
    (_CLEAN.rstrip("\n") + ",extra", False),
    ("", False),
    ("\n" + _CLEAN, False),  # empty header line
    (_CLEAN.replace("1.5", "oops"), True),  # bad token: read again by csv.reader from byte 0
])
def test_byte_tokenizer_fallback_triggers(tmp_path, text, byte_path):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    limit = csv.field_size_limit(40)
    try:
        for on_missing in ("drop", "fail"):
            assert _assert_both_tokenizers_match_reference(
                path, mapping=_HH, on_missing=on_missing) is byte_path
    finally:
        csv.field_size_limit(limit)


def test_lines_shorter_than_the_field_limit_take_the_byte_path(tmp_path):
    path = tmp_path / "t.csv"
    line = "1,1,0,1.5,0.25," + "a" * 25
    path.write_text(_CLEAN.replace("1,1,0,1.5,0.25,a", line), encoding="utf-8")
    limit = csv.field_size_limit(len(line) + 1)
    try:
        assert _assert_both_tokenizers_match_reference(path, mapping=_HH)
        csv.field_size_limit(len(line))
        assert not _assert_both_tokenizers_match_reference(path, mapping=_HH)
    finally:
        csv.field_size_limit(limit)


def _households_csv(path, n, rng):
    # The shape of the clustered bench input: LF line ends, fixed-precision reals.
    lines = ["z,d1,d2,y,x1,x2,hh"] + [
        f"{a},{b},{c},{v:.6f},{w:.4f},{h},hh{g:06d}" for a, b, c, v, w, h, g in zip(
            rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(0, 2, n),
            rng.standard_normal(n), rng.standard_normal(n), rng.integers(-1, 2, n),
            np.arange(n) // 3)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_clean_files_never_reach_csv_reader(tmp_path):
    rng = np.random.default_rng(5)
    households = tmp_path / "hh.csv"
    _households_csv(households, 5000, rng)
    draw = tmp_path / "draw.csv"  # written by save_table: CRLF line ends, repr reals
    save_table(from_arrays(rng.integers(0, 2, 5000), rng.integers(0, 2, 5000),
                           rng.integers(0, 2, 5000), rng.standard_normal(5000)), draw)
    mapping = {"z": "z", "d1": "d1", "d2": "d2", "y": "y", "controls": ["x1", "x2"],
               "cluster": "hh"}
    cases = [(households, mapping), (draw, None)]
    refs = [_rowwise_load(path, mapping) for path, mapping in cases]
    with mock.patch.object(data.csv, "reader", side_effect=AssertionError("csv.reader")), \
            mock.patch.object(data, "_CHUNK_ROWS", 1000):
        for (path, mapping), ref in zip(cases, refs):
            _assert_same_table(load_table(path, mapping), ref)


def test_loader_error_precedence_across_chunks(tmp_path):
    # a bad token early and a missing value later: under "fail" the missing
    # value wins, under "drop" the bad token is named
    lines = ["z,d1,d2,y"] + ["1,1,0,1.0", "0,0,0,2.0"] * 4
    lines[2] = "0,0,0,oops"
    lines[7] = "1,,0,3.0"
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for scan_bytes in (*_PIECE_BYTES, data._SCAN_BYTES):
        with mock.patch.object(data, "_CHUNK_ROWS", 2), \
                mock.patch.object(data, "_SCAN_BYTES", scan_bytes):
            with pytest.raises(DataError, match="missing value at line 8 of"):
                load_table(path, on_missing="fail")
            with pytest.raises(DataError,
                               match="could not parse numeric column 'y': value 'oops'"):
                load_table(path)


_PLAIN_ROWS = ["1,1,0,1.5,0.25,a", "0,0,1,-2.0,1e-3,b"] * 20


@pytest.mark.parametrize("last", [
    b'1,0,0,"3.0",-0.0,a',  # a quote
    "1,0,0,3.0,-0.0,\u00e9".encode(),  # non-ASCII
    b"1,0,0,3.0\r,-0.0,a",  # a bare carriage return
    b"1,0,0,3.0,-0.0",  # ragged
    b"1,0,0,3.0,-0.0,\xff",  # not UTF-8: csv.reader cannot decode the file
])
@pytest.mark.parametrize("early", [None, "oops", "", "no such column"])
def test_a_late_line_that_is_not_plain_sends_the_whole_file_to_csv_reader(tmp_path, last, early):
    # Every piece is plain but the last. The table, or the error, is the one
    # csv.reader gives from the file's first byte, even when an earlier piece
    # has a bad token, a missing value or lacks a mapped column.
    rows = list(_PLAIN_ROWS)
    mapping = dict(_HH)
    if early == "no such column":
        mapping["controls"] = ["x", "age"]
    elif early is not None:
        rows[2] = rows[2].replace("-2.0", early)
    path = tmp_path / "t.csv"
    path.write_bytes(("z,d1,d2,y,x,hh\n" + "\n".join(rows) + "\n").encode() + last + b"\n")
    assert not _byte_path(path)
    for on_missing in ("drop", "fail"):
        with mock.patch.object(data, "_byte_tokens", _csv_only):
            ref = _load_outcome(load_table, path, mapping=mapping, on_missing=on_missing)
        _assert_streamed_loads_match(path, ref, mapping=mapping, on_missing=on_missing)
        _assert_both_tokenizers_match_reference(path, mapping=mapping, on_missing=on_missing)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("text", [
    _CLEAN,  # split as bytes
    _CLEAN.replace(",b\n", ',"b"\n'),  # read by csv.reader
    _CLEAN.replace("-2.0", "oops"),  # an error, named by a second read
])
def test_a_pipe_loads_as_its_file_does(tmp_path, text):
    # A pipe can be read only once; the loader holds it and reads that.
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    read, write = os.pipe()
    try:
        os.write(write, text.encode())
        os.close(write)
        new = _load_outcome(load_table, f"/dev/fd/{read}", mapping=_HH)
    finally:
        os.close(read)
    ref = _load_outcome(load_table, path, mapping=_HH)
    if isinstance(ref, DataError):
        ref = DataError(str(ref).replace(str(path), f"/dev/fd/{read}"))
    _assert_same_outcome(new, ref)


@pytest.mark.parametrize("quoted", [False, True])
def test_a_plain_file_is_read_once(tmp_path, monkeypatch, quoted):
    # Counts the bytes read from the file through every handle the loader
    # opens. A file whose last line is quoted is split as bytes up to that
    # line, then read again by csv.reader from its first byte.
    read = []

    class Counted(io.FileIO):
        def readinto(self, buffer):
            size = super().readinto(buffer)
            read.append(size or 0)
            return size

    monkeypatch.setattr(data, "open", lambda path, mode: io.BufferedReader(Counted(path)),
                        raising=False)
    path = tmp_path / "t.csv"
    rows = _PLAIN_ROWS + ['1,0,0,3.0,-0.0,"a"'] * quoted
    path.write_text("z,d1,d2,y,x,hh\n" + "\n".join(rows) + "\n", encoding="utf-8")
    size = path.stat().st_size
    for scan_bytes in (*_PIECE_BYTES, data._SCAN_BYTES):
        read.clear()
        with mock.patch.object(data, "_SCAN_BYTES", scan_bytes):
            load_table(path, _HH)
        if quoted:
            assert size < sum(read) <= 2 * size
        else:
            assert sum(read) == size


def test_undecodable_file_is_a_data_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("z,d1,d2,y,hh\n1,1,0,1.0,café\n0,0,0,2.0,b\n".encode("latin-1"))
    with pytest.raises(DataError, match="unreadable file"):
        load_table(path, {"z": "z", "d1": "d1", "d2": "d2", "y": "y", "cluster": "hh"})


def _awkward_table(rng, n=60, k=2):
    z = rng.integers(0, 2, n)
    z[:2] = (0, 1)
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    labels = np.array([["plain", "with,comma", 'with "quote"', "two\nlines", "tab\there",
                        "ünï", "cr\rx"][i % 7] + str(i % 5) for i in range(n)], dtype=object)
    return from_arrays(z, rng.integers(0, 2, n), rng.integers(0, 2, n), y,
                       controls=rng.standard_normal((n, k)), cluster=labels)


def _full_compliers(*strata, y_sd=0.0):
    """A population of full compliers: ``(prob, mean_y)`` for each stratum."""
    return PopulationSpec(strata=tuple(stratum("C1C2", prob, mean_y, y_sd=y_sd)
                                       for prob, mean_y in strata))


# Draws of 100000 rows whose outcomes are written by both the text kernel
# (magnitudes from 1e-4 up to 1e16) and repr (the others): half 0.0, which
# repr writes, and half 2.0, an integer the kernel writes with '.0'; the same
# with noise, a few of whose values fall below 1e-4; d.ddde-0X texts and 1e+20;
# and a short decimal, a negative one and two integers beside 2.5e+17 and 1e-05.
_DRAW_SPECS = (
    single_full_complier_spec(), single_full_complier_spec(y_sd=1.0),
    _full_compliers((1.0, {(0, 0): 1e-7, (0, 1): 2e-7, (1, 0): 3e-7, (1, 1): 1e20}), y_sd=1e-6),
    _full_compliers((0.3, {(0, 0): 0.5, (1, 1): -3.75}), (0.3, {(0, 0): 2.5e17, (1, 1): 1e-5}),
                    (0.4, {(0, 0): 2.0, (1, 1): -1200.0})))


@pytest.mark.parametrize("delimiter", [",", "\t", ";", "|", " ", "§"])
def test_writer_bytes_match_rowwise_reference_and_round_trip(tmp_path, delimiter):
    # Blocks of 1-3 rows start and end on each of the seven label kinds, three
    # of which need quoting under every delimiter, one more under "," and one
    # more under tab. The draws add their outcomes, not a delimiter or a
    # block size, so they are saved once, as simulate saves them.
    rng = np.random.default_rng(11)
    plain = _awkward_table(rng, n=9)
    tables = (_awkward_table(rng), _awkward_table(rng, k=0),
              replace(plain, cluster=None, cluster_codes=None, cluster_count=None),
              from_arrays([0, 1, 1], [1, 0, 1], [0, 0, 1], [0.1, -0.0, 1e-310]),
              from_arrays([0, 1], [1, 1], [0, 0], [-0.0, 5e-324],
                          controls=[[1e-310, -0.0], [-1.7976931348623157e308, 1e308]],
                          cluster=["a,b", "c"]))
    cases = list(itertools.product([1, 2, 3, data._CHUNK_ROWS], tables))
    if delimiter == ",":
        cases += [(data._CHUNK_ROWS, sample(spec, 100_000, seed=1)) for spec in _DRAW_SPECS]
    for chunk_rows, table in cases:
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        with mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
            save_table(table, new, delimiter=delimiter)
        _rowwise_save(table, ref, delimiter=delimiter)
        assert new.read_bytes() == ref.read_bytes()
        mapping = {"z": "z", "d1": "d1", "d2": "d2", "y": "y",
                   "controls": list(table.control_names)}
        if table.cluster is not None:
            mapping["cluster"] = "cluster"
        back = load_table(new, mapping, delimiter=delimiter)
        for name in ("z", "d1", "d2", "y", "controls"):
            assert _same_bits(getattr(back, name), getattr(table, name)), name
        if table.cluster is not None:
            assert list(back.cluster) == list(table.cluster)
            assert _same_bits(back.cluster_codes, table.cluster_codes)


def _same_clusters(a, b):
    """Whether the cluster codes ``a`` and ``b`` put the rows into the same
    clusters, whatever the codes are."""
    pairs = np.unique(np.column_stack([a, b]), axis=0)
    return a.shape == b.shape and len(pairs) == len(np.unique(a)) == len(np.unique(b))


def _reload(path, table):
    return load_table(path, {"z": "z", "d1": "d1", "d2": "d2", "y": "y",
                             "controls": list(table.control_names), "cluster": "cluster"})


def _contrast_ses(table):
    fit = slopes(table, [(column, None) for column in ("d1", "d2", "y")])
    return np.sqrt(np.diag(fit.vcov))


def test_labels_that_are_one_cluster_are_written_as_one_text(tmp_path):
    # 1, 1.0 and True are one cluster, as are 0.0 and -0.0: each cluster is
    # written as the str of its label on its first row, so the reload has
    # the same clusters. As strings the ten labels are seven clusters.
    labels = [1, 1.0, True, 2, 0.0, -0.0, 2.5, 1.0, 0.0, 2]
    n = len(labels)
    z = np.arange(n) % 2
    written = ["1", "1", "1", "2", "0.0", "0.0", "2.5", "1", "0.0", "2"]
    for cluster, count, texts in ((labels, 4, written),
                                  ([str(label) for label in labels], 7, list(map(str, labels)))):
        table = from_arrays(z, z, 1 - z, np.linspace(-1.0, 1.0, n), cluster=cluster)
        save_table(table, tmp_path / "new.csv")
        _rowwise_save(table, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        back = _reload(tmp_path / "new.csv", table)
        assert list(back.cluster) == texts
        assert table.cluster_count == back.cluster_count == count
        assert _same_clusters(back.cluster_codes, table.cluster_codes)


def _repro_table(labels):
    rng = np.random.default_rng(20)
    n = len(labels)
    return from_arrays(rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(0, 2, n),
                       rng.standard_normal(n), cluster=np.array(labels, dtype=object))


def test_one_cluster_of_many_labels_reloads_as_one_cluster(tmp_path):
    # Rows 0-199 labelled 1, 1.0 and True in turn are one cluster; with the
    # 20 clusters after them, a reload has 21, and the same first stage SE.
    table = _repro_table([(1, 1.0, True)[i % 3] for i in range(200)]
                         + [2 + i // 10 for i in range(200)])
    save_table(table, tmp_path / "t.csv")
    back = _reload(tmp_path / "t.csv", table)
    assert table.cluster_count == back.cluster_count == 21
    assert _same_clusters(back.cluster_codes, table.cluster_codes)
    first, again = (np.sqrt(slopes(t, [("d1", None)]).vcov[0, 0]) for t in (table, back))
    assert again == pytest.approx(first, rel=1e-12, abs=0)


@pytest.mark.parametrize("labels, message", [
    ([("a", " a")[i % 2] for i in range(200)] + [f"h{i % 30}" for i in range(200)],
     "cluster labels [' a', 'a'] are alike once stripped or read as missing"),
    (["NA"] * 40 + [f"h{i % 30}" for i in range(360)],
     "cluster labels ['NA'] are alike once stripped or read as missing"),
])
def test_a_save_refuses_clusters_that_would_not_reload(tmp_path, labels, message):
    # load_table strips a label and reads NA as missing: " a" would join the
    # cluster "a" (32 clusters reloading as 31), and the NA rows be dropped.
    table = _repro_table(labels)
    path = tmp_path / "t.csv"
    with pytest.raises(DataError, match=re.escape(message) + ".*nothing is written"):
        save_table(table, path)
    assert not path.exists()


@pytest.mark.parametrize("where", ["control name", "cluster label", "delimiter"])
def test_a_save_refuses_text_that_utf8_cannot_encode(tmp_path, where):
    # A lone surrogate has no UTF-8 form: the save names it and writes
    # nothing, and a file already at the path keeps its bytes.
    rng = np.random.default_rng(22)
    n = 8
    columns = (rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(0, 2, n),
               rng.standard_normal(n))
    table, text, delimiter = from_arrays(*columns), "\ud800", ","
    if where == "control name":
        table = from_arrays(*columns, controls=rng.standard_normal((n, 1)),
                            control_names=(text,))
    elif where == "cluster label":
        text = "\ud800x"
        table = _repro_table([text, "a"] * 4)
    else:
        delimiter = text
    path = tmp_path / "t.csv"
    path.write_bytes(b"z,d1,d2,y\r\n0,0,0,1.0\r\n")
    with pytest.raises(DataError, match=re.escape(repr([text])) + ".*nothing is written"):
        save_table(table, path, delimiter=delimiter)
    assert path.read_bytes() == b"z,d1,d2,y\r\n0,0,0,1.0\r\n"
    path.unlink()
    with pytest.raises(DataError, match="no UTF-8 form"):
        save_table(table, path, delimiter=delimiter)
    assert not path.exists()


@pytest.mark.parametrize("seed", range(24))
def test_a_saved_table_reloads_with_its_own_clusters(tmp_path, seed):
    # Int, float and bool labels, some equal (1, 1.0, True), or str labels,
    # some alike once stripped or read as missing: a save either refuses and
    # writes nothing, or the reload puts the rows into the same clusters,
    # with the same count and SEs.
    rng = np.random.default_rng([21, seed])
    numbers = [0, 1, 2, 7, 0.0, -0.0, 1.0, 2.5, 1e-7, 1e16, 10**16, True, False]
    texts = ["a", " a", "a ", "b", "B", "NA", "na", ".", "nan", "x y", "1", "1.0", "True",
             "c,d", 'q"t', "two\nlines", "ü"]
    pool = numbers if seed % 2 else texts
    chosen = rng.choice(len(pool), size=rng.integers(2, 7), replace=False)
    n = 120
    labels = np.array([pool[i] for i in rng.choice(chosen, n)], dtype=object)
    table = from_arrays(rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(0, 2, n),
                        rng.standard_normal(n), controls=rng.standard_normal((n, 1)),
                        cluster=labels)
    path = tmp_path / "t.csv"
    try:
        save_table(table, path)
    except DataError:
        assert not path.exists() and not seed % 2
        return
    back = _reload(path, table)
    assert back.n == table.n and back.cluster_count == table.cluster_count
    assert _same_clusters(back.cluster_codes, table.cluster_codes)
    np.testing.assert_allclose(_contrast_ses(back), _contrast_ses(table),
                               rtol=1e-12, atol=0)


def _blocks_saved(table, path, **kwargs):
    """save_table(table, path); returns the length of each block of rows written."""
    blocks = []
    write = data._write_rows

    def counted(handle, *args, **kwargs):
        class Counted:
            def write(self, data):
                blocks.append(len(data))
                return handle.write(data)
        return write(Counted(), *args, **kwargs)

    with mock.patch.object(data, "_write_rows", counted):
        save_table(table, path, **kwargs)
    return blocks


def test_one_long_label_is_written_as_csv_writes_it(tmp_path):
    # A label of 5000 characters, quoted, among short ones: each row's field
    # is its own, and the blocks of rows are as long as without it.
    rng = np.random.default_rng(13)
    n = 3 * 4096 + 7
    z = rng.integers(0, 2, n)
    labels = np.array([f"hh{i}" for i in rng.integers(0, 50, n)], dtype=object)
    labels[[5, n - 1]] = "ü,long" * 1000
    table = from_arrays(z, z, 1 - z, rng.standard_normal(n), cluster=labels)
    blocks = _blocks_saved(table, tmp_path / "new.csv")
    _rowwise_save(table, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    from lafte import _text

    assert len(blocks) == -(-n // min(data._CHUNK_ROWS, _text._PASS))


def test_reals_reach_repr_only_outside_the_exact_range(tmp_path, monkeypatch):
    # Of a draw, 7 of whose outcomes lie under 1e-4, and of the awkward
    # table, whose outcomes span 1e-300 to 1e300, repr writes exactly the
    # reals outside the kernel's range, in order.
    from lafte import _text

    calls = []
    monkeypatch.setattr(_text, "repr", lambda value: calls.append(value) or repr(value),
                        raising=False)
    for table, name, least in ((sample(s2_spec(y_sd=1.0), 100_000, seed=5), "draw.csv", 7),
                               (_awkward_table(np.random.default_rng(12)), "awkward.csv", 11)):
        calls.clear()
        save_table(table, tmp_path / name)
        outside = [value for column in (table.y, *table.controls.T) for value in column.tolist()
                   if not _text.LEAST <= abs(value) < _text.BOUND]
        assert calls == outside and len(outside) >= least


def test_nothing_forks(tmp_path, monkeypatch):
    # A household table of 2 MiB or more, and more rows than a save was once
    # split at, is parsed, read from the cache and written by this one process.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    path = tmp_path / "hh.csv"
    _households_csv(path, 100_000, np.random.default_rng(10))
    assert os.path.getsize(path) >= 1 << 21
    mapping = {"z": "z", "d1": "d1", "d2": "d2", "y": "y", "controls": ["x1", "x2"],
               "cluster": "hh"}
    with mock.patch.object(os, "fork", side_effect=AssertionError("os.fork")):
        parsed = load_table(path, mapping)
        table = load_table(path, mapping)
        save_table(table, tmp_path / "t.csv")
    _assert_same_table(table, parsed)
    assert table.n > 98304 and len(os.listdir(tmp_path / "cache" / "lafte")) == 1
    _rowwise_save(table, tmp_path / "ref.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("delimiter", [",", "\t", ";", "§"])
def test_blocks_cut_at_the_byte_bound_match_rowwise_reference(tmp_path, delimiter):
    # Where _BLOCK_BYTES holds fewer rows than a pass, the blocks are cut at
    # it: one byte gives a block per row, a block of a table without clusters
    # is never longer than the bound, and the bytes are the row-wise writer's.
    rng = np.random.default_rng(14)
    clustered = _awkward_table(rng, n=500, k=3)
    plain = replace(clustered, cluster=None, cluster_codes=None, cluster_count=None)
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    for table, block_bytes in itertools.product((clustered, plain), (1, 700, 5000)):
        with mock.patch.object(data, "_BLOCK_BYTES", block_bytes):
            blocks = _blocks_saved(table, new, delimiter=delimiter)
        _rowwise_save(table, ref, delimiter=delimiter)
        assert new.read_bytes() == ref.read_bytes()
        if block_bytes == 1:
            assert len(blocks) == table.n
            continue
        assert 1 < len(blocks) < table.n
        if table.cluster is None:
            assert max(blocks) <= block_bytes


def test_a_save_holds_the_same_memory_at_any_table_size(tmp_path):
    # A save lays out one block of rows at a time, and the text kernel
    # computes in temporaries allocated once per save: nothing it holds
    # grows with the table.
    small, large = (sample(s2_spec(y_sd=1.0), n, seed=16) for n in (100_000, 400_000))
    save_table(small, tmp_path / "warm.csv")  # allocations made once per process
    peaks = []
    for table in (small, large):
        tracemalloc.start()
        try:
            save_table(table, tmp_path / "t.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.5e6
    assert max(peaks) < 4e6


@pytest.mark.parametrize("failing", ["header", "first block", "a middle block", "last block"])
def test_a_failed_write_ends_the_save_with_the_bytes_before_it(tmp_path, failing):
    # A write that fails (a full disk, say) ends the save with its own error,
    # raised in this process; the file is closed and holds what was written
    # before it, a prefix of the row-wise writer's bytes.
    table = _awkward_table(np.random.default_rng(8))
    _rowwise_save(table, tmp_path / "ref.csv")
    rows_per_block = 4
    fail_at = {"header": 0, "first block": 1, "a middle block": 8,
               "last block": -(-table.n // rows_per_block)}[failing]
    written, handles = [], []

    class Full:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.handle.__exit__(*exc)

        def write(self, data):
            if len(written) == fail_at:
                raise OSError(errno.ENOSPC, "No space left on device")
            written.append(bytes(data))
            return self.handle.write(data)

    def opener(path, mode):
        handles.append(open(path, mode))
        return Full(handles[-1])

    with mock.patch.object(data, "_CHUNK_ROWS", rows_per_block), \
            mock.patch.object(data, "open", opener, create=True), \
            mock.patch.object(os, "fork", side_effect=AssertionError("os.fork")), \
            pytest.raises(OSError) as failure:
        save_table(table, tmp_path / "new.csv")
    assert failure.value.errno == errno.ENOSPC
    assert len(written) == fail_at and len(handles) == 1 and handles[0].closed
    saved = (tmp_path / "new.csv").read_bytes()
    assert saved == b"".join(written)
    assert (tmp_path / "ref.csv").read_bytes().startswith(saved)


@pytest.mark.parametrize("labels", [
    ["b", "a", "c", "a", "b", "b"],
    [10, 2, 2, -1, 10, 30],
    ["hh10", "hh2", "b", "hh2", "a", "hh1"],
    ["only"] * 6,
])
def test_cluster_codes_follow_sorted_labels(labels):
    t = from_arrays([0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1], [0, 0, 1, 1, 0, 1],
                    [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], cluster=labels)
    unique, expected = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
    assert t.cluster_codes.dtype == np.int64
    assert np.array_equal(t.cluster_codes, expected)
    assert t.cluster_count == unique.size
    with pytest.raises(ValueError):
        t.cluster_codes[0] = 1


@pytest.mark.parametrize("labels", [["a", None, "b", "a"], ["a", " ", "b", "a"],
                                    [2, None, 1, 2], [None] * 4,
                                    [1.0, float("nan"), 2.0, float("nan")],
                                    np.array([1.0, np.nan, 2.0, np.nan])])
def test_missing_cluster_label_rejected(labels):
    with pytest.raises(DataError, match="missing cluster label"):
        from_arrays([0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0],
                    cluster=labels)


@pytest.mark.parametrize("labels, message", [
    ([[1], [2], [1], [2]], r"cluster labels must be one per row, not an array of shape \(4, 1\)"),
    (np.arange(4).reshape(4, 1), r"one per row, not an array of shape \(4, 1\)"),
    (5, r"one per row, not an array of shape \(\)"),
    ([[1], [2, 3], [1], [2, 3]], "cluster labels must be hashable, such as strings or numbers; "
                                 "got list"),
])
def test_cluster_labels_that_are_not_one_scalar_per_row_are_data_errors(labels, message):
    with pytest.raises(DataError, match=message):
        from_arrays([0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0],
                    cluster=labels)


@pytest.mark.parametrize("name, value, message", [
    ("z", 5, r"column 'z' must hold one value per row, not an array of shape \(\)"),
    ("y", 5.0, r"column 'y' must hold one value per row, not an array of shape \(\)"),
    ("z", [[0], [1], [0], [1]], r"column 'z' .* shape \(4, 1\)"),
    ("y", [[1.0], [2.0], [3.0], [4.0]], r"column 'y' .* shape \(4, 1\)"),
    ("d1", [[0], [1], [1], [0]], r"column 'd1' .* shape \(4, 1\)"),
    ("d2", [[0, 0, 1, 1]], r"column 'd2' .* shape \(1, 4\)"),
    ("controls", 5.0, r"controls must be one row per row, not an array of shape \(\)"),
    ("controls", np.zeros((4, 1, 1)), r"controls .* shape \(4, 1, 1\)"),
])
def test_columns_that_are_not_one_value_per_row_are_data_errors(name, value, message):
    columns = dict(z=[0, 1, 0, 1], d1=[0, 1, 1, 0], d2=[0, 0, 1, 1], y=[1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DataError, match=message):
        from_arrays(**{**columns, name: value})


@pytest.mark.parametrize("labels, message", [
    ([2, " ", 1, 2], "missing cluster label"),
    ([2, "a", 1, 2], "cluster labels of types int, str cannot be ordered"),
])
def test_mixed_type_cluster_labels_are_data_errors(labels, message):
    with pytest.raises(DataError, match=message):
        from_arrays([0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0],
                    cluster=labels)


@pytest.mark.parametrize("delimiter, message", [
    *((d, "one character") for d in (";;", "", None, 5)),
    # A real's repr has digits, ".", "-", "+" and letters ("1e-05", "inf"):
    # written unquoted, it would split at such a delimiter.
    *((d, "a character no field can contain") for d in (".", "1", "e", "-", '"', "\n")),
])
def test_bad_delimiter_is_config_error(tmp_path, fix8_path, delimiter, message):
    with pytest.raises(ConfigError, match=f"delimiter must be {message}"):
        load_table(fix8_path, delimiter=delimiter)
    out = tmp_path / "out.csv"
    with pytest.raises(ConfigError, match=f"delimiter must be {message}"):
        save_table(fix8_table(), out, delimiter=delimiter)
    assert not out.exists()


def test_load_lets_go_of_the_file_before_building_the_table(tmp_path, monkeypatch):
    n = 200_000
    rng = np.random.default_rng(77)
    z = rng.integers(0, 2, n)
    path = tmp_path / "draw.csv"
    save_table(from_arrays(z, (rng.random(n) < 0.3 + 0.4 * z).astype(int),
                           (rng.random(n) < 0.5).astype(int), rng.standard_normal(n)), path)
    seen = {}
    real = data._build_table
    made = [0]
    init = data.ObservationTable.__init__

    def counted(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    def spy(z, d1, d2, y, *args):
        seen["held"] = tracemalloc.get_traced_memory()[0]
        seen["dtypes"] = (z.dtype, d1.dtype, d2.dtype)
        before = made[0]
        table = real(z, d1, d2, y, *args)
        seen["made"] = made[0] - before
        return table

    monkeypatch.setattr(data.ObservationTable, "__init__", counted)
    monkeypatch.setattr(data, "_build_table", spy)
    load_table(path)  # allocations made once per process are not counted
    tracemalloc.start()
    try:
        table = load_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # When the table is built, only its parsed columns are held: a byte per
    # binary field and 8 per real (2.2 MB), not the 5.3 MB file or its tokens.
    assert seen["dtypes"] == (np.uint8,) * 3
    assert seen["held"] < n * (3 + 8) + 100_000
    # The table is made once, whole: its warnings are not added by a copy.
    assert seen["made"] == 1
    assert table.z.dtype == table.d1.dtype == table.d2.dtype == np.uint8
    # The file is streamed: beyond its parsed columns, the load never holds
    # half the file (the file and its line offsets alone would be 7 MB).
    columns = sum(getattr(table, name).nbytes for name in ("z", "d1", "d2", "y", "controls"))
    assert peak - columns < path.stat().st_size / 2


@pytest.mark.parametrize("piped", [False, True], ids=["file", "pipe"])
def test_a_parse_allocates_each_column_once(tmp_path, monkeypatch, piped):
    # Just past 2**17 rows, columns grown by doubling from 2**14 rows would
    # reach 2**18 rows; sized from the file, they are allocated once. A pipe
    # is held whole, as its bytes, and sized from them the same way.
    n = 2**17 + 2**12
    rng = np.random.default_rng(79)
    path = tmp_path / "draw.csv"
    save_table(from_arrays(rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(0, 2, n),
                           rng.standard_normal(n)), path)
    monkeypatch.setattr(data, "_SCAN_BYTES", 1 << 12)  # pieces of few tokens
    if piped:
        read, write = os.pipe()
        writer = threading.Thread(
            target=lambda: (os.write(write, path.read_bytes()), os.close(write)))
        writer.start()
        try:
            source, size, again = data._source(f"/dev/fd/{read}")
        finally:
            writer.join()
            os.close(read)
    else:
        source, size, again = data._source(path)
    assert (size, again) == (os.path.getsize(path), not piped)
    args = (source, size, path, ",", ["z", "d1", "d2", "y"],
            ["instrument", "treatment", "treatment", "float"], "drop")
    data._parse(*args)  # allocations made once per process are not counted
    tracemalloc.start()
    try:
        columns = data._parse(*args)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert columns[0].size == n
    assert peak - sum(column.nbytes for column in columns) < n * 11 / 4


def test_load_holds_the_parsed_controls_once(tmp_path):
    n = 200_000
    path, small = tmp_path / "hh.csv", tmp_path / "small.csv"
    _households_csv(path, n, np.random.default_rng(78))
    _households_csv(small, 100, np.random.default_rng(78))
    mapping = {"z": "z", "d1": "d1", "d2": "d2", "y": "y", "controls": ["x1", "x2"],
               "cluster": "hh"}
    load_table(small, mapping)  # allocations made once per process are not counted
    tracemalloc.start()
    try:
        table = load_table(path, mapping)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Holding the parsed control columns beside their n x 2 copy until the
    # table was built peaked 7.5 MB above the finished table; each is let go
    # once copied, which must save at least one control column (1.6 MB).
    assert peak - held < 7.5e6 - n * 8
    assert table.controls.shape == (n, 2) and table.controls.flags.c_contiguous


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("fault, on_missing, error, message", [
    ("bad token", "drop", DataError, "could not parse numeric column 'y': value 'oops'"),
    ("missing value", "fail", DataError, "missing value at line 3 of"),
    ("absent column", "drop", ColumnMissingError, r"column\(s\) \['age'\] not found"),
])
def test_every_load_error_comes_from_one_csv_reader_pass(tmp_path, quoted, fault, on_missing,
                                                         error, message):
    # A plain file with an error goes to csv.reader as a quoted file does, and
    # csv.reader's one pass over it finds the error: the file is not rescanned.
    text, mapping = _CLEAN, dict(_HH)
    if fault == "bad token":
        text = text.replace("-2.0", "oops")
    elif fault == "missing value":
        text = text.replace("-2.0", " ")
    else:
        mapping["controls"] = ["x", "age"]
    if quoted:
        text = text.replace(",b\n", ',"b"\n')
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    built = []
    reader = csv.reader

    def counting_reader(*args, **kwargs):
        built.append(args)
        return reader(*args, **kwargs)

    with mock.patch.object(data.csv, "reader", counting_reader):
        with pytest.raises(error, match=message):
            load_table(path, mapping, on_missing=on_missing)
    assert len(built) == 1


def test_mapping_keys_of_mixed_types_are_config_errors(fix8_path):
    mapping = {1: "z", "zz": "z", "z": "z", "d1": "d1", "d2": "d2", "y": "y"}
    with pytest.raises(ConfigError, match=r"unknown mapping keys: \[1, 'zz'\]"):
        load_table(fix8_path, mapping)


def test_controls_must_be_a_list_of_names(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(FIX8_CSV.replace("\n", ",1,2,3,4\n").replace("y,1,2,3,4", "y,a,g,e,age"),
                    encoding="utf-8")
    mapping = {"z": "z", "d1": "d1", "d2": "d2", "y": "y"}
    with pytest.raises(ConfigError, match="'controls' must be a list of column names, got 'age'"):
        load_table(path, {**mapping, "controls": "age"})
    for controls in (["age"], ("age",)):
        table = load_table(path, {**mapping, "controls": controls})
        assert table.control_names == ("age",) and table.controls.shape == (8, 1)


@pytest.mark.parametrize("named, message", [
    ({"controls": ["y"]}, "column 'y' is named as 'y' and as control 1"),
    ({"d1": "z"}, "column 'z' is named as 'z' and as 'd1'"),
    ({"controls": ["x1", "x1"]}, "column 'x1' is named as control 1 and as control 2"),
], ids=["y as a control", "d1 as z", "a control twice"])
def test_a_column_named_twice_is_refused_by_load_table(tmp_path, fix8_path, monkeypatch,
                                                       capsys, named, message):
    # Before any file is opened, and as the CLI refuses it: the outcome as a
    # control made the reduced form exactly 0, and d1 mapped to the z column
    # a D1 first stage of exactly 1.
    mapping = {"z": "z", "d1": "d1", "d2": "d2", "y": "y", **named}
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"mapping": {k: mapping[k] for k in ("z", "d1", "d2", "y")},
                                  "controls": mapping.get("controls", [])}), encoding="utf-8")
    opened = []
    monkeypatch.setattr(data, "_source", lambda path: opened.append(path))
    with pytest.raises(ConfigError) as refused:
        load_table("absent.csv", mapping)
    assert str(refused.value) == f"{message}; z, d1, d2, y and each control must be distinct columns"
    code = main(["estimate", "--config", str(config), "--data", "absent.csv"])
    assert (code, capsys.readouterr().err, opened) == (1, f"error: {refused.value}\n", [])
    # The cluster may name any column.
    monkeypatch.undo()
    table = load_table(fix8_path, {"z": "z", "d1": "d1", "d2": "d2", "y": "y", "cluster": "z"})
    assert list(table.cluster) == [str(v) for v in table.z]


def test_control_names_are_empty_or_one_per_control_column():
    # One name for two columns used to save a header narrower than its rows.
    fix8 = fix8_table()
    z, d1, d2, y = fix8.z, fix8.d1, fix8.d2, fix8.y
    controls = np.arange(16.0).reshape(8, 2)
    with pytest.raises(DataError, match=r"1 control name\(s\) for 2 control column\(s\)"):
        from_arrays(z, d1, d2, y, controls=controls, control_names=("a",))
    with pytest.raises(DataError, match=r"1 control name\(s\) for 0 control column\(s\)"):
        from_arrays(z, d1, d2, y, control_names=("a",))
    assert from_arrays(z, d1, d2, y, controls=controls).control_names == ("x0", "x1")
