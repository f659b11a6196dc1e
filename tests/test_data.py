import csv
import io
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lafte import data
from lafte import (
    ColumnMissingError,
    ConfigError,
    DataError,
    derive,
    from_arrays,
    load_table,
    save_table,
)

from conftest import FIX8_CSV, fix8_table


def test_load_fix8(fix8_path):
    table = load_table(fix8_path, {"z": "z", "d1": "d1", "d2": "d2", "y": "y"})
    assert table.n == 8
    assert table.column_names == ("z", "d1", "d2", "y")
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
    d = derive(t)
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
    d = derive(t)
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


def test_constant_derived_column_warning():
    # d2 >= d1 everywhere makes d_or equal d2, so g_or is constant zero
    t = from_arrays([1, 1, 0, 0], [1, 0, 0, 0], [1, 1, 1, 0], [1.0, 2.0, 3.0, 4.0])
    assert any("g_or" in w and "constant" in w for w in t.warnings)


def test_tables_are_immutable(fix8):
    with pytest.raises(ValueError):
        fix8.z[0] = 0
    with pytest.raises(ValueError):
        derive(fix8).d_and[0] = 5.0


def test_validation_needs_two_rows():
    with pytest.raises(DataError, match="at least 2"):
        from_arrays([1], [1], [1], [1.0])


def test_validation_report_attached_on_failure():
    with pytest.raises(DataError) as info:
        from_arrays([1, 1], [1, 2], [1, 0], [1.0, 2.0])
    report = info.value.report
    assert report is not None and not report.ok
    assert any("non-binary treatment" in e for e in report.errors)


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
    warnings = [f"dropped {dropped} row(s) with missing values"] if dropped else []
    return from_arrays(z, d1, d2, y, controls=controls, control_names=tuple(control_names),
                       cluster=cluster, column_names=tuple(header), warnings=warnings)


def _rowwise_save(table, path, *, delimiter=","):
    names = ["z", "d1", "d2", "y"]
    names += list(table.control_names) or [f"x{j}" for j in range(table.controls.shape[1])]
    if table.cluster is not None:
        names.append("cluster")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(names)
        for i in range(table.n):
            row = [int(table.z[i]), int(table.d1[i]), int(table.d2[i]), repr(float(table.y[i]))]
            row += [repr(float(v)) for v in table.controls[i]]
            if table.cluster is not None:
                row.append(str(table.cluster[i]))
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
    assert new.column_names == ref.column_names
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
    rows = []
    for _ in range(draw(st.integers(0, 16))):
        shape = draw(st.sampled_from(["full"] * 12 + ["short", "long", "blank", "spaces"]))
        if shape == "blank":
            rows.append([])
            continue
        if shape == "spaces":
            rows.append([" "] * draw(st.integers(1, len(header) + 1)))
            continue
        row = []
        for col in header:
            kind = _COLUMN_KINDS[col]
            usual, odd = _TOKENS[kind]
            is_odd = odd_one_in[kind] and draw(st.integers(1, odd_one_in[kind])) == 1
            row.append(draw(st.sampled_from(odd if is_odd else usual)))
        if shape == "short":
            row = row[:draw(st.integers(1, len(header) - 1))]
        elif shape == "long":
            row.append(draw(st.sampled_from(["extra", "", "1"])))
        rows.append(row)
    return header, rows


@given(
    file=_delimited_files(),
    delimiter=st.sampled_from([",", "\t"]),
    bom=st.booleans(),
    padded_header=st.booleans(),
    on_missing=st.sampled_from(["drop", "fail"]),
    controls=st.sampled_from([None, ["x"], ["x", "w"], ["y"]]),
    cluster=st.sampled_from([None, "hh", "z"]),
    chunk_rows=st.sampled_from([1, 2, 3, 1 << 16]),
)
@settings(max_examples=400, deadline=None)
def test_columnar_loader_matches_rowwise_reference(file, delimiter, bom, padded_header,
                                                   on_missing, controls, cluster, chunk_rows):
    header, rows = file
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter)
    writer.writerow([f" {h} " if padded_header else h for h in header])
    writer.writerows(rows)
    mapping = {"z": "z", "d1": "d1", "d2": "d2", "y": "y"}
    if controls:
        mapping["controls"] = controls
    if cluster:
        mapping["cluster"] = cluster
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(("\ufeff" if bom else "") + buffer.getvalue())
        kwargs = dict(mapping=mapping, delimiter=delimiter, on_missing=on_missing)
        ref = _load_outcome(_rowwise_load, path, **kwargs)
        with mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
            new = _load_outcome(load_table, path, **kwargs)
    if isinstance(new, Exception):
        assert isinstance(new, (ConfigError, DataError)), repr(new)
    if isinstance(ref, (ConfigError, DataError)):
        assert type(new) is type(ref) and str(new) == str(ref)
    elif isinstance(ref, Exception):
        assert isinstance(new, DataError)
    else:
        assert not isinstance(new, Exception), repr(new)
        _assert_same_table(new, ref)


def test_loader_error_precedence_across_chunks(tmp_path):
    # a bad token early and a missing value later: under "fail" the missing
    # value wins, under "drop" the bad token is named
    lines = ["z,d1,d2,y"] + ["1,1,0,1.0", "0,0,0,2.0"] * 4
    lines[2] = "0,0,0,oops"
    lines[7] = "1,,0,3.0"
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with mock.patch.object(data, "_CHUNK_ROWS", 2):
        with pytest.raises(DataError, match="missing value at line 8 of"):
            load_table(path, on_missing="fail")
        with pytest.raises(DataError, match="could not parse numeric column 'y': value 'oops'"):
            load_table(path)


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


@pytest.mark.parametrize("delimiter", [",", "\t"])
def test_writer_bytes_match_rowwise_reference_and_round_trip(tmp_path, delimiter):
    rng = np.random.default_rng(11)
    for table in (_awkward_table(rng), _awkward_table(rng, k=0),
                  from_arrays([0, 1, 1], [1, 0, 1], [0, 0, 1], [0.1, -0.0, 1e-310])):
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        save_table(table, new, delimiter=delimiter)
        _rowwise_save(table, ref, delimiter=delimiter)
        assert new.read_bytes() == ref.read_bytes()
        names = list(table.control_names) or [f"x{j}" for j in range(table.controls.shape[1])]
        mapping = {"z": "z", "d1": "d1", "d2": "d2", "y": "y", "controls": names}
        if table.cluster is not None:
            mapping["cluster"] = "cluster"
        back = load_table(new, mapping, delimiter=delimiter)
        for name in ("z", "d1", "d2", "y", "controls"):
            assert _same_bits(getattr(back, name), getattr(table, name)), name
        if table.cluster is not None:
            assert list(back.cluster) == list(table.cluster)
            assert _same_bits(back.cluster_codes, table.cluster_codes)


@pytest.mark.parametrize("labels", [
    ["b", "a", "c", "a", "b", "b"],
    [10, 2, 2, -1, 10, 30],
])
def test_cluster_codes_follow_sorted_labels(labels):
    t = from_arrays([0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1], [0, 0, 1, 1, 0, 1],
                    [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], cluster=labels)
    expected = np.unique(np.asarray(labels, dtype=object), return_inverse=True)[1]
    assert t.cluster_codes.dtype == np.int64
    assert np.array_equal(t.cluster_codes, expected)
    assert t.cluster_count == len(set(labels))
    with pytest.raises(ValueError):
        t.cluster_codes[0] = 1


@pytest.mark.parametrize("labels", [["a", None, "b", "a"], ["a", " ", "b", "a"]])
def test_missing_cluster_label_rejected(labels):
    with pytest.raises(DataError, match="missing cluster label"):
        from_arrays([0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0],
                    cluster=labels)
