"""The on-disk cache of load_table's parsed columns and of the table's one
fit: a hit builds the table a parse builds and reads the fit a fit computes,
and an entry that is damaged, stale or cannot be kept is never read in place
of the parse or the fit."""

import csv
import dataclasses
import json
import os
import shutil
import sys
import tempfile
import threading
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from lafte import (ConfigError, DataError, EstimationError, ObservationTable, RankDeficientError,
                   RelevanceError, TreatmentDef, cli, data, estimands, iv_estimand, load_table)

from test_data import (
    _HH,
    _LOADER_CASES,
    _households_csv,
    _load_outcome,
    _write_loader_case,
)

_HOUSEHOLDS = {"z": "z", "d1": "d1", "d2": "d2", "y": "y", "controls": ["x1", "x2"],
               "cluster": "hh"}


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A real cache directory, which every file of any size uses; yields
    the directory the entries are in."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(data, "_CACHE_BYTES", 0)
    return tmp_path / "xdg" / "lafte"


def _entries(directory):
    return sorted(os.listdir(directory)) if os.path.isdir(directory) else []


def _assert_identical_tables(new, ref):
    """Every field of two tables: arrays by dtype, shape, bits and read-only
    flag, the rest by equality; and one label string per cluster."""
    for field in dataclasses.fields(ObservationTable):
        a, b = getattr(new, field.name), getattr(ref, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert not a.flags.writeable and not b.flags.writeable, field.name
            if b.dtype == object:
                assert list(a) == list(b), field.name
            else:
                assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name
    if ref.cluster is not None:
        assert len({id(label) for label in new.cluster}) == new.cluster_count


def _assert_same_outcome(new, ref):
    if isinstance(ref, Exception):
        assert type(new) is type(ref) and str(new) == str(ref)
    else:
        assert not isinstance(new, Exception), repr(new)
        _assert_identical_tables(new, ref)


def _no_parse(*args, **kwargs):
    raise AssertionError("a hit parsed the file")


@given(**_LOADER_CASES)
@settings(max_examples=150, deadline=None)
def test_a_hit_builds_the_table_of_a_miss(chunk_rows, **case):
    # Every drawn file is loaded twice with a real cache: the second load
    # reads the entry the first wrote, and gives the same table (or the same
    # error, raised after the columns were read).
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"XDG_CACHE_HOME": tmp}), \
            mock.patch.object(data, "_CACHE_BYTES", 0), \
            mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
        path = os.path.join(tmp, "t.csv")
        kwargs = _write_loader_case(path, **case)
        miss = _load_outcome(load_table, path, **kwargs)
        entries = _entries(os.path.join(tmp, "lafte"))
        if not isinstance(miss, Exception):
            assert len(entries) == 1
        if entries:
            with mock.patch.object(data, "_parse", _no_parse):
                hit = _load_outcome(load_table, path, **kwargs)
        else:  # the columns could not be read: the error is the parse's again
            hit = _load_outcome(load_table, path, **kwargs)
        _assert_same_outcome(hit, miss)


_BAD = b"z,d1,d2,y,x,hh\n1,1,0,1.5,0.25,a\n0,0,1,-2.0,1e-3,b\n1,0,0,3.0,-0.0,a\n"


@pytest.mark.parametrize("fault, mapping, on_missing", [
    (b"oops", _HH, "drop"),  # a bad token
    (b" ", _HH, "fail"),  # a missing value under "fail"
    (b"-2.0", {**_HH, "controls": ["x", "age"]}, "drop"),  # an absent column
    (b"\xff", _HH, "drop"),  # not UTF-8
])
def test_a_file_that_raises_while_read_keeps_no_entry(tmp_path, cache, fault, mapping,
                                                      on_missing):
    path = tmp_path / "t.csv"
    path.write_bytes(_BAD.replace(b"-2.0", fault))
    first = _load_outcome(load_table, path, mapping=mapping, on_missing=on_missing)
    assert isinstance(first, (ConfigError, DataError))
    assert _entries(cache) == []
    second = _load_outcome(load_table, path, mapping=mapping, on_missing=on_missing)
    assert type(second) is type(first) and str(second) == str(first)
    assert _entries(cache) == []


def test_an_error_from_the_columns_is_raised_again_on_a_hit(tmp_path, cache):
    # A non-finite outcome is refused by from_arrays, after the columns were
    # read: they are kept, and the hit raises the same error.
    path = tmp_path / "t.csv"
    path.write_bytes(_BAD.replace(b"-2.0", b"inf"))
    with pytest.raises(DataError, match="non-finite") as first:
        load_table(path, _HH)
    assert len(_entries(cache)) == 1
    with mock.patch.object(data, "_parse", _no_parse), pytest.raises(DataError) as second:
        load_table(path, _HH)
    assert str(second.value) == str(first.value)


def _households(path, n=300, seed=4):
    _households_csv(path, n, np.random.default_rng(seed))


def _parsed(path, mapping):
    """load_table with the cache turned off: the parse."""
    with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": "relative"}):
        return load_table(path, mapping)


def _entry_name(path, parts):
    return data._cache_entry(path, os.path.getsize(path), parts)[0]


_PARTS = [["z", "d1", "d2", "y", "x1", "x2", "hh"],
          ["instrument", "treatment", "treatment", "float", "float", "float", "cluster"],
          ",", "drop"]


@pytest.mark.parametrize("change", [
    lambda parts: parts.__setitem__(0, parts[0][:-2] + ["x2", "x1"]),  # the mapped columns
    lambda parts: parts.__setitem__(1, parts[1][:-1] + ["float"]),  # their kinds
    lambda parts: parts.__setitem__(2, "\t"),  # the delimiter
    lambda parts: parts.__setitem__(3, "fail"),  # the missing policy
], ids=["columns", "kinds", "delimiter", "missing"])
def test_each_setting_is_part_of_the_key(tmp_path, cache, change):
    path = tmp_path / "hh.csv"
    _households(path)
    parts = json.loads(json.dumps(_PARTS))
    change(parts)
    assert _entry_name(path, parts) != _entry_name(path, _PARTS)


@contextmanager
def _counting(module, name):
    """Counts the calls of ``module.name`` while the block runs."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with mock.patch.object(module, name, counted):
        yield calls


@pytest.mark.parametrize("part", ["code", "another module", "numpy", "python", "field limit",
                                  "machine"])
def test_each_version_is_part_of_the_key(tmp_path, cache, monkeypatch, part):
    # The entry's name is the one key of the columns and of the fit kept at
    # <entry>.fit: a change to any part of it parses the file and fits the
    # table again.
    path = tmp_path / "hh.csv"
    _households(path)
    estimands._table_fit(load_table(path, _HOUSEHOLDS))
    before = os.path.basename(_entry_name(path, _PARTS))
    assert _entries(cache) == [before, before + ".fit"]
    if part in ("code", "another module"):
        package = tmp_path / "lafte"
        shutil.copytree(Path(data.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        changed = package / ("data.py" if part == "code" else "regression.py")
        changed.write_bytes(changed.read_bytes() + b"\n")
        monkeypatch.setattr(data, "__file__", str(package / "data.py"))
    elif part == "numpy":
        monkeypatch.setattr(np, "__version__", np.__version__ + ".1")
    elif part == "python":
        monkeypatch.setattr(sys, "version", sys.version + " ")
    elif part == "machine":
        monkeypatch.setattr(data, "_machine", lambda: "0" * 64)
    else:
        limit = csv.field_size_limit(csv.field_size_limit() + 1)
    try:
        after = os.path.basename(_entry_name(path, _PARTS))
        assert after != before
        with _counting(data, "_parse") as parses, _counting(estimands, "ols") as fits:
            estimands._table_fit(load_table(path, _HOUSEHOLDS))
        assert parses == fits == [1]
        assert _entries(cache) == sorted([before, before + ".fit", after, after + ".fit"])
    finally:
        if part == "field limit":
            csv.field_size_limit(limit)


def test_new_bytes_of_the_same_size_and_times_miss(tmp_path, cache):
    # The key is the file's bytes: a rewrite that keeps its size and whose
    # modification time is put back is not read from the old entry.
    path = tmp_path / "hh.csv"
    _households(path)
    old = load_table(path, _HOUSEHOLDS)
    info = os.stat(path)
    text = path.read_bytes()
    at = text.index(b"\n") + 1  # the first row's instrument, 0 or 1, flipped
    path.write_bytes(text[:at] + bytes([text[at] ^ 1]) + text[at + 1:])
    os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns))
    new = load_table(path, _HOUSEHOLDS)
    assert new.z.tobytes() != old.z.tobytes()
    _assert_identical_tables(new, _parsed(path, _HOUSEHOLDS))
    assert len(_entries(cache)) == 2


@pytest.mark.parametrize("damage", ["truncated", "bad JSON", "trailing bytes",
                                    "label past the end", "negative label", "header only",
                                    "empty", "huge count"])
def test_a_damaged_entry_gives_the_parse(tmp_path, cache, capfd, damage):
    path = tmp_path / "hh.csv"
    _households(path)
    load_table(path, _HOUSEHOLDS)
    (name,) = _entries(cache)
    entry = cache / name
    raw = entry.read_bytes()
    header = raw[:raw.index(b"\n") + 1]
    labels = len(json.loads(header)[2])
    damaged = {
        "truncated": raw[:-1],
        "bad JSON": b"[" + raw,
        "trailing bytes": raw + b"\0",
        "label past the end": raw[:-8] + np.int64(labels).tobytes(),
        "negative label": raw[:-8] + np.int64(-1).tobytes(),
        "header only": header,
        "empty": b"",
        # Columns no address space holds: their allocation fails, and is refused.
        "huge count": (json.dumps([10**15, *json.loads(header)[1:]]).encode()
                       + raw[len(header) - 1:]),
    }[damage]
    entry.write_bytes(damaged)
    with _counting(data, "_parse") as parses:
        table = load_table(path, _HOUSEHOLDS)
    assert parses == [1]
    _assert_identical_tables(table, _parsed(path, _HOUSEHOLDS))
    assert entry.read_bytes() == raw  # the parse wrote the entry again
    assert capfd.readouterr() == ("", "")


def _symlinked(base):
    real = base.parent / "elsewhere"
    real.mkdir(mode=0o700)
    base.mkdir()
    os.symlink(real, base / "lafte")


def _regular_file(base):
    base.write_text("not a directory")


def _lafte_is_a_file(base):
    base.mkdir()
    (base / "lafte").write_text("not a directory")


@pytest.mark.parametrize("make, value", [
    (None, "relative/cache"),
    (_regular_file, None),
    (_lafte_is_a_file, None),
    (_symlinked, None),
    ("other owner", None),
], ids=["relative", "a file", "lafte a file", "symlink", "other owner"])
def test_an_unusable_cache_directory_parses_and_keeps_nothing(tmp_path, monkeypatch, capfd,
                                                              make, value):
    monkeypatch.setattr(data, "_CACHE_BYTES", 0)
    base = tmp_path / "xdg"
    if make == "other owner":
        (base / "lafte").mkdir(parents=True, mode=0o700)
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    elif make is not None:
        make(base)
    monkeypatch.setenv("XDG_CACHE_HOME", value or str(base))
    path = tmp_path / "hh.csv"
    _households(path)
    before = sorted(str(p) for p in tmp_path.rglob("*"))
    with mock.patch.object(data, "_cache_read", _no_parse):
        table = load_table(path, _HOUSEHOLDS)
    _assert_identical_tables(table, _parsed(path, _HOUSEHOLDS))
    assert sorted(str(p) for p in tmp_path.rglob("*")) == before
    assert capfd.readouterr() == ("", "")


def test_the_directory_is_made_private(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_CACHE_BYTES", 0)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    (tmp_path / "xdg" / "lafte").mkdir(parents=True, mode=0o755)
    path = tmp_path / "hh.csv"
    _households(path)
    load_table(path, _HOUSEHOLDS)
    assert os.stat(tmp_path / "xdg" / "lafte").st_mode & 0o777 == 0o700
    assert len(os.listdir(tmp_path / "xdg" / "lafte")) == 1


def test_an_unset_xdg_cache_home_means_the_home_cache(tmp_path, monkeypatch):
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path))
    assert data._cache_dir() == str(tmp_path / ".cache" / "lafte")
    monkeypatch.setenv("XDG_CACHE_HOME", "")
    assert data._cache_dir() == str(tmp_path / ".cache" / "lafte")


@pytest.mark.parametrize("change", ["appended", "same size"])
def test_a_file_changed_during_the_parse_keeps_no_entry(tmp_path, cache, change):
    path = tmp_path / "hh.csv"
    _households(path)
    real = data._parse

    def changing(*args, **kwargs):
        columns = real(*args, **kwargs)
        info = os.stat(path)
        if change == "appended":
            with open(path, "a", encoding="utf-8") as handle:
                handle.write("1,1,1,0.5,0.5,0,hh999999\n")
        else:  # the same bytes, written again, with the old modification time
            path.write_bytes(path.read_bytes())
            os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns))
        return columns

    with mock.patch.object(data, "_parse", changing):
        table = load_table(path, _HOUSEHOLDS)
    estimands._table_fit(table)  # nor a fit kept under the name of bytes it was not read from
    assert _entries(cache) == []
    load_table(path, _HOUSEHOLDS)
    assert len(_entries(cache)) == 1


def test_eviction_keeps_the_directory_under_the_cap(tmp_path, cache, monkeypatch):
    # Entries of five files, each used at a known time; the cap holds two
    # and a half. The least recently used go first, and a hit is a use.
    paths = []
    for seed in range(5):
        paths.append(tmp_path / f"hh{seed}.csv")
        _households(paths[-1], seed=seed)
    load_table(paths[0], _HOUSEHOLDS)
    (first,) = _entries(cache)
    size = os.path.getsize(cache / first)
    monkeypatch.setattr(data, "_CACHE_CAP", int(2.5 * size))
    names = {}
    for when, path in enumerate(paths):
        load_table(path, _HOUSEHOLDS)  # the first file's second load is a hit
        names[path] = os.path.basename(_entry_name(path, _PARTS))
        os.utime(cache / names[path], ns=(when * 10**9, when * 10**9))
        total = sum(os.path.getsize(cache / name) for name in _entries(cache))
        assert total <= data._CACHE_CAP
    assert _entries(cache) == sorted([names[paths[3]], names[paths[4]]])
    os.utime(cache / names[paths[3]], ns=(0, 0))
    load_table(paths[3], _HOUSEHOLDS)  # a hit brings its entry up to now
    assert os.stat(cache / names[paths[3]]).st_mtime_ns > 4 * 10**9
    load_table(paths[0], _HOUSEHOLDS)  # a miss: the oldest entry goes
    assert _entries(cache) == sorted([names[paths[3]], names[paths[0]]])


def test_an_entry_past_the_cap_is_not_kept_and_evicts_nothing(tmp_path, cache, monkeypatch):
    # The cap holds one small entry and 100 kB; the columns of 20000
    # household rows pass it. They are not kept, the small entry is not
    # evicted for them, and the table, with no entry, is the parse's.
    small, large = tmp_path / "small.csv", tmp_path / "large.csv"
    _households(small)
    _households(large, n=20_000)
    load_table(small, _HOUSEHOLDS)
    (first,) = _entries(cache)
    monkeypatch.setattr(data, "_CACHE_CAP", os.path.getsize(cache / first) + 100_000)
    table = load_table(large, _HOUSEHOLDS)
    assert _entries(cache) == [first]
    assert "_entry" not in table.__dict__
    _assert_identical_tables(table, _parsed(large, _HOUSEHOLDS))
    estimands._table_fit(table)  # nor is its fit kept
    assert _entries(cache) == [first]


def test_a_pipe_and_a_small_file_keep_no_entry(tmp_path, monkeypatch):
    # At the real floor of 2 MiB: a file that large keeps its columns, a file
    # one line shorter, or the same bytes through a pipe, does not.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    cache = tmp_path / "xdg" / "lafte"
    path, small = tmp_path / "hh.csv", tmp_path / "small.csv"
    _households(path, n=70_000)
    lines = path.read_bytes().splitlines(keepends=True)
    size = sum(map(len, lines))
    while size >= data._CACHE_BYTES:
        last = lines.pop()
        size -= len(last)
    small.write_bytes(b"".join(lines))
    path.write_bytes(b"".join(lines) + last)
    assert os.path.getsize(small) < data._CACHE_BYTES <= os.path.getsize(path)
    load_table(small, _HOUSEHOLDS)
    assert _entries(cache) == []
    read, write = os.pipe()
    writer = threading.Thread(target=lambda: (os.write(write, path.read_bytes()), os.close(write)))
    writer.start()
    try:
        piped = load_table(f"/dev/fd/{read}", _HOUSEHOLDS)
    finally:
        writer.join()
        os.close(read)
    assert _entries(cache) == []
    table = load_table(path, _HOUSEHOLDS)
    assert len(_entries(cache)) == 1
    _assert_identical_tables(piped, table)


def test_a_miss_writes_its_columns_as_they_are(tmp_path):
    # The entry of 200000 clustered rows holds each column's own bytes, the
    # labels' codes among them: writing it copies no column (1.6 MB).
    n = 200_000
    labels = [f"hh{i:04d}" for i in range(1000)]
    columns = [np.zeros(n, np.uint8), np.zeros(n), np.arange(1000).repeat(n // 1000)]
    entry = str(tmp_path / "entry")
    data._cache_keep(entry, [n, 0, labels], columns)  # allocations made once are not counted
    tracemalloc.start()
    try:
        data._cache_keep(entry, [n, 0, labels], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 8 / 2


def test_the_cli_commands_share_one_entry(tmp_path, cache, capsys):
    path = tmp_path / "hh.csv"
    _households(path, n=2000)
    args = ["--data", str(path), "--cluster", "hh", "--controls", "x1,x2",
            "--format", "structured"]
    documents = []
    for command in ("estimate", "bounds", "bounds"):
        assert cli.main([command, *args]) == 0
        documents.append(capsys.readouterr().out)
        # The columns, and the table's one fit beside them.
        assert len(_entries(cache)) == 2
    entry = os.path.basename(_entry_name(path, _PARTS))
    assert _entries(cache) == [entry, entry + ".fit"]
    assert documents[1] == documents[2]
    with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": "relative"}):
        assert cli.main(["bounds", *args]) == 0
    assert capsys.readouterr().out == documents[1]


def _shuffled_households(path, n=2000, seed=9):
    """A clustered table whose labels are met out of their sorted order."""
    rng = np.random.default_rng(seed)
    groups = rng.permutation(n // 4).repeat(4)
    lines = ["z,d1,d2,y,x1,x2,hh"] + [
        f"{a},{b},{c},{v!r},{w!r},{x!r},h{g}" for a, b, c, v, w, x, g in zip(
            *(rng.integers(0, 2, n).tolist() for _ in range(3)),
            *(rng.standard_normal(n).tolist() for _ in range(3)), groups.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fit_files(cache, path, mapping):
    """The cache's files other than the columns entry of ``path``."""
    entry = os.path.basename(load_table(path, mapping).__dict__["_entry"])
    return [name for name in _entries(cache) if name != entry]


def _no_fit(*args, **kwargs):
    raise AssertionError("a kept fit was fit again")


def test_hit_codes_are_the_label_codes(tmp_path, cache):
    path = tmp_path / "hh.csv"
    _shuffled_households(path)
    parsed = _parsed(path, _HOUSEHOLDS)
    for table in (load_table(path, _HOUSEHOLDS), load_table(path, _HOUSEHOLDS)):  # miss, hit
        codes, count = data._label_codes(table.cluster, DataError)
        assert table.cluster_codes.tobytes() == codes.tobytes() == parsed.cluster_codes.tobytes()
        assert table.cluster_count == count == parsed.cluster_count
        met = list(dict.fromkeys(table.cluster))
        assert met != sorted(met)  # the labels are met out of their sorted order


@pytest.mark.parametrize("mapping", [_HOUSEHOLDS, None], ids=["clustered", "unclustered"])
def test_a_kept_fit_is_the_fit_bit_for_bit(tmp_path, cache, mapping):
    path = tmp_path / "hh.csv"
    _shuffled_households(path)
    fresh = estimands._table_fit(_parsed(path, mapping))
    estimands._table_fit(load_table(path, mapping))  # a miss keeps the fit
    (fit_file,) = _fit_files(cache, path, mapping)
    os.utime(cache / fit_file, ns=(0, 0))
    with mock.patch.object(estimands, "ols", _no_fit):
        kept = estimands._table_fit(load_table(path, mapping))
    assert os.stat(cache / fit_file).st_mtime_ns > 0  # a hit is a use
    for name in [*fresh._fields, "covariance_kind", "response_constant"]:
        a, b = getattr(kept, name), getattr(fresh, name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, b.flags.writeable)
            assert a.tobytes() == b.tobytes(), name
        else:
            assert type(a) is type(b) and a == b, name
    assert (fresh.covariance_kind, fresh.cluster_count, fresh.response_constant) == (
        ("cluster", 500, False) if mapping else ("hc1", None, False))


@pytest.mark.parametrize("mapping, k", [(_HOUSEHOLDS, 4), (None, 2)],
                         ids=["two controls", "none"])
def test_a_kept_fit_is_a_fixed_line_and_four_arrays(tmp_path, cache, mapping, k):
    # The table fixes every other field of its fit: the file holds the 13k
    # coefficients, their covariance and the 13 minima and maxima, as float64.
    path = tmp_path / "hh.csv"
    _shuffled_households(path)
    fit = estimands._table_fit(load_table(path, mapping))
    (fit_file,) = _fit_files(cache, path, mapping)
    line, rest = (cache / fit_file).read_bytes().split(b"\n", 1)
    assert json.loads(line) == "fit"
    assert len(rest) == 8 * (13 * k + (13 * k) ** 2 + 26)
    assert rest == b"".join(a.tobytes() for a in (fit.coefficients, fit.vcov, fit.response_min,
                                                  fit.response_max))


def _damage_fit(entry, how, wider):
    """Damage the kept fit at ``entry`` as ``how`` says; ``wider`` is the fit
    of the same table with one more control."""
    raw = entry.read_bytes()
    line, rest = raw.split(b"\n", 1)
    if how == "truncated":
        entry.write_bytes(raw[:-1])
    elif how == "trailing bytes":
        entry.write_bytes(raw + b"\0")
    elif how == "header only":
        entry.write_bytes(line + b"\n")
    elif how == "empty":
        entry.write_bytes(b"")
    elif how == "one more control":  # the arrays of k + 1 columns of W
        arrays = (wider.coefficients, wider.vcov, wider.response_min, wider.response_max)
        entry.write_bytes(line + b"\n" + b"".join(a.tobytes() for a in arrays))
    else:
        entry.write_bytes(b"not JSON\n" + rest)


_COMMANDS = [[command, "--format", form] for command in ("estimate", "diagnose", "bounds")
             for form in ("text", "structured")]


@pytest.mark.parametrize("command", _COMMANDS, ids=" ".join)
def test_the_commands_do_not_depend_on_the_kept_fit(tmp_path, cache, capsys, command):
    path = tmp_path / "hh.csv"
    _shuffled_households(path)
    argv = [*command, "--data", str(path), "--cluster", "hh", "--controls", "x1,x2"]

    def run():
        assert cli.main(argv) == 0
        return capsys.readouterr()

    with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": "relative"}):
        off = run()
    assert run() == off  # a miss: the columns are parsed, the table fit
    (fit_file,) = _fit_files(cache, path, _HOUSEHOLDS)
    kept = (cache / fit_file).read_bytes()
    with mock.patch.object(estimands, "ols", _no_fit):
        assert run() == off
    table = _parsed(path, _HOUSEHOLDS)
    wider = estimands._table_fit(data.from_arrays(
        table.z, table.d1, table.d2, table.y, cluster=table.cluster,
        controls=np.column_stack([table.controls, table.controls[:, 0] ** 2])))
    for how in ("truncated", "one more control", "not JSON", "trailing bytes", "header only",
                "empty"):
        _damage_fit(cache / fit_file, how, wider)
        assert run() == off
        assert (cache / fit_file).read_bytes() == kept  # the fit was kept again


def test_a_fit_kept_on_another_machine_is_not_read(tmp_path, cache, monkeypatch):
    # The entry's name holds the machine: a cache shared with a machine whose
    # CPU or numpy differs keeps an entry and a fit for each, and neither
    # reads the other's.
    path = tmp_path / "hh.csv"
    _shuffled_households(path)
    fresh = estimands._table_fit(load_table(path, _HOUSEHOLDS))
    ours = _entries(cache)
    monkeypatch.setattr(data, "_machine", lambda: "0" * 64)
    with _counting(estimands, "ols") as fits:
        other = load_table(path, _HOUSEHOLDS)
        kept = estimands._table_fit(other)
    assert fits == [1]
    assert kept.coefficients.tobytes() == fresh.coefficients.tobytes()
    theirs = os.path.basename(other.__dict__["_entry"])
    assert _entries(cache) == sorted([*ours, theirs, theirs + ".fit"])


def test_a_fit_that_raises_keeps_nothing(tmp_path, cache):
    # A control that copies x1 is collinear: the fit raises on a miss, keeps
    # nothing, and raises the same again on a hit of the columns.
    path = tmp_path / "hh.csv"
    _shuffled_households(path)
    text = path.read_text().splitlines()
    path.write_text("\n".join([text[0] + ",copy"] + [row + "," + row.split(",")[4]
                                                     for row in text[1:]]) + "\n")
    mapping = {**_HOUSEHOLDS, "controls": ["x1", "copy"]}
    errors = []
    for _ in range(2):
        with pytest.raises(RankDeficientError) as raised:
            estimands._table_fit(load_table(path, mapping))
        errors.append(str(raised.value))
        assert len(_entries(cache)) == 1  # the columns only
    assert errors[0] == errors[1]
    # Outcomes that overflow the fit: an EstimationError, and nothing kept.
    text = path.read_text().splitlines()
    huge = [",".join(row.split(",")[:3] + [("1e308", "-1e308")[i % 2]] + row.split(",")[4:])
            for i, row in enumerate(text[1:])]
    path.write_text("\n".join(text[:1] + huge) + "\n")
    with pytest.raises(EstimationError, match="not finite"):
        estimands._table_fit(load_table(path, _HOUSEHOLDS))
    assert len(_entries(cache)) == 2  # the two files' columns


def test_a_relevance_failure_reads_the_same_from_a_kept_fit(tmp_path, cache):
    # A relevance failure is raised by the reading of a fit that did not
    # raise: the fit is kept, and a hit raises the same error from it.
    path = tmp_path / "hh.csv"
    _shuffled_households(path)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:1] + [row[:2] + "0" + row[3:] for row in text[1:]]) + "\n")
    errors = []
    for load in (lambda: _parsed(path, _HOUSEHOLDS), lambda: load_table(path, _HOUSEHOLDS),
                 lambda: load_table(path, _HOUSEHOLDS)):
        with pytest.raises(RelevanceError) as raised:
            iv_estimand(load(), TreatmentDef.FIRST)
        errors.append(str(raised.value))
    assert errors[0] == errors[1] == errors[2]
    assert len(_fit_files(cache, path, _HOUSEHOLDS)) == 1


def test_a_replaced_table_fits_again(tmp_path, cache):
    path = tmp_path / "hh.csv"
    _shuffled_households(path)
    estimands._table_fit(load_table(path, _HOUSEHOLDS))
    with _counting(estimands, "ols") as fits:
        estimands._table_fit(load_table(path, _HOUSEHOLDS))
        assert fits == []
        loaded = load_table(path, _HOUSEHOLDS)
        estimands._table_fit(dataclasses.replace(loaded))
        estimands._table_fit(data.from_arrays(loaded.z, loaded.d1, loaded.d2, loaded.y,
                                              controls=loaded.controls, cluster=loaded.cluster))
    assert fits == [1, 1]
