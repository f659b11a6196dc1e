import csv
import io
import itertools
import os
import tempfile
import tracemalloc
from dataclasses import replace
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
    # copy=False adopts an input of the stored dtype, and freezes it in place.
    table = from_arrays(z, d1, d2, y, copy=False)
    assert np.shares_memory(table.y, y) and np.shares_memory(table.z, z)
    assert not y.flags.writeable


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


def _csv_only(handle, delimiter):
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


@given(
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
@settings(max_examples=400, deadline=None)
def test_columnar_loader_matches_rowwise_reference(file, delimiter, bom, padded_header, quoted,
                                                   line_end, last_line_end, on_missing,
                                                   controls, cluster, chunk_rows):
    # Each file is read by both tokenizers. Files written by csv.writer quote
    # odd tokens; files written by a plain join do not, so their odd tokens
    # make ragged rows, bare carriage returns and stray quotes.
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
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(("\ufeff" if bom else "") + text)
        with mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
            _assert_both_tokenizers_match_reference(
                path, mapping=mapping, delimiter=delimiter, on_missing=on_missing)


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
    (_CLEAN.replace("1.5", "oops"), True),  # bad token: rescanned by csv.reader
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


def test_a_file_that_grows_while_it_is_read_is_a_data_error(tmp_path, fix8_path, monkeypatch):
    # The columns are sized by the file's line breaks, counted before it is split.
    monkeypatch.setattr(data, "_line_breaks", lambda handle: (3, 0))
    with pytest.raises(DataError, match="changed while it was read"):
        load_table(fix8_path)


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
    # Blocks of 1-3 rows start and end on each of the seven label kinds, three
    # of which need quoting under either delimiter and one under each.
    rng = np.random.default_rng(11)
    plain = _awkward_table(rng, n=9)
    tables = (_awkward_table(rng), _awkward_table(rng, k=0),
              replace(plain, cluster=None, cluster_codes=None, cluster_count=None),
              from_arrays([0, 1, 1], [1, 0, 1], [0, 0, 1], [0.1, -0.0, 1e-310]),
              from_arrays([0, 1], [1, 1], [0, 0], [-0.0, 5e-324],
                          controls=[[1e-310, -0.0], [-1.7976931348623157e308, 1e308]],
                          cluster=["a,b", "c"]))
    for chunk_rows, table in itertools.product([1, 2, 3, data._CHUNK_ROWS], tables):
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        with mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
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
                                    [2, None, 1, 2], [None] * 4])
def test_missing_cluster_label_rejected(labels):
    with pytest.raises(DataError, match="missing cluster label"):
        from_arrays([0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0],
                    cluster=labels)


@pytest.mark.parametrize("labels, message", [
    ([2, " ", 1, 2], "missing cluster label"),
    ([2, "a", 1, 2], "cluster labels of types int, str cannot be ordered"),
])
def test_mixed_type_cluster_labels_are_data_errors(labels, message):
    with pytest.raises(DataError, match=message):
        from_arrays([0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0],
                    cluster=labels)


@pytest.mark.parametrize("delimiter", [";;", "", None, 5])
def test_delimiter_not_one_character_is_config_error(tmp_path, fix8_path, delimiter):
    with pytest.raises(ConfigError, match="delimiter must be one character"):
        load_table(fix8_path, delimiter=delimiter)
    out = tmp_path / "out.csv"
    with pytest.raises(ConfigError, match="delimiter must be one character"):
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
    real = data.from_arrays

    def spy(z, d1, d2, y, **kwargs):
        seen["held"] = tracemalloc.get_traced_memory()[0]
        seen["dtypes"] = (z.dtype, d1.dtype, d2.dtype)
        return real(z, d1, d2, y, **kwargs)

    monkeypatch.setattr(data, "from_arrays", spy)
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
    assert table.z.dtype == table.d1.dtype == table.d2.dtype == np.uint8
    # The file is streamed: beyond its parsed columns, the load never holds
    # half the file (the file and its line offsets alone would be 7 MB).
    columns = sum(getattr(table, name).nbytes for name in ("z", "d1", "d2", "y", "controls"))
    assert peak - columns < path.stat().st_size / 2


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
