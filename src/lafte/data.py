"""Observational data: ingestion, validation, and derived treatment columns.

The estimation input is a rectangular table with a binary instrument ``z``,
binary enrollment indicators ``d1`` and ``d2`` for the first and second part
of a two-part treatment, a real-valued outcome ``y``, optional real control
columns, and an optional cluster label. Everything downstream regresses one
of 13 row-local columns of ``(d1, d2, y)`` on the instruments.
:data:`COLUMNS` is their one catalogue: a name, a report label and a row
formula each. The engine evaluates it on a table's rows, as the 13 side by
side columns of :class:`DerivedColumns`; ``strata.analytic_moments``
evaluates it on the cells of a population spec.

===============  ==================  ===================================
``d1``           D1                  input: first part
``d2``           D2                  input: second part
``d_and``        D∧                  ``d1 * d2`` (both parts)
``d_or``         D∨                  ``d1 + d2 - d1*d2`` (at least one)
``d_sum``        D1+D2               ``d1 + d2`` (multivalued count)
``y``            Y                   input: outcome
``g_or``         D∨−D2               ``d_or - d2``
``g_and``        D∧−D2               ``d_and - d2``
``gy_or``        (D∨−D2)Y            ``(d_or - d2) * y``
``gy_and``       (D∧−D2)Y            ``(d_and - d2) * y``
``dand_y``       D∧Y                 ``d_and * y``
``untreated_y``  (1−D1)(1−D2)Y       ``(1 - d1) * (1 - d2) * y``
``kernel_y``     (1−D1−D2+2D∧)Y      ``(1 - d1 - d2 + 2*d1*d2) * y``
===============  ==================  ===================================

:func:`load_table` and :func:`save_table` move tables through delimited
text. Their token grammar and their bytes are those of the ``csv`` module,
which reads any file the loader's byte tokenizer does not take (quoted,
non-ASCII or ragged files, and any file with an error; see
:func:`load_table`) and writes the header. The rows are split as plain
strings, and written as one array of bytes per block of rows, with no
Python work per real: each real's ``repr`` is computed from its bits by
``lafte._text`` (exactly, for every magnitude from 1e-4 up to 1e16, which
``repr`` writes in fixed notation; ``repr`` itself writes the others), and
each cluster's one text is quoted and encoded once. A table is
written, and a file read, by this one process. The parsed columns of a
large file are kept in an on-disk cache, keyed by the file's bytes, and a later load of
the same bytes reads them from there (:func:`_read_columns`); the table is
built from them as from a parse.

:func:`from_arrays` raises :class:`~lafte.exceptions.DataError` for a table
that breaks an invariant; its message lists every finding, joined by "; ".
A table is made once, whole, with its warnings and a name for each control
(``x0``, ``x1``, ... where none is given, as :func:`save_table` heads it).

``cluster_codes`` holds each row's cluster label as an ``int64`` index into
the sorted distinct labels (the inverse of ``np.unique(cluster)``), computed
once when the table is built; ``cluster_count`` is their number. The fits
receive the codes, which give the same per-cluster sums as the labels. A
load sorts only the distinct labels of a file, and the cache keeps its
codes, so a hit builds the labels and the codes with one gather each.

Tables are immutable after construction. Each instance also keeps a cache,
outside its dataclass fields, of values that are pure functions of its
columns: ``estimands.slopes`` keeps the table's one fit of the 13 columns
there, and every slope read off it, so that the table is fit once. The
columns themselves are never held whole: the fit builds them a block of
rows at a time, with :meth:`DerivedColumns.of`, as it reads them. A table
that :func:`load_table` read from the on-disk cache, or kept there, also
remembers that entry, and ``estimands`` keeps its one fit on disk at
``<entry>.fit``, so that a later load of the same bytes is not fit again.
A table made by :func:`from_arrays`, or a copy with fields replaced, starts
with an empty cache and no entry. Tables are safe to share across threads: two
threads may compute the same cache entry at once, and both see equal
values.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
import os
import stat
import sys
import tempfile
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import compress, islice, product
from operator import itemgetter
from typing import BinaryIO, Callable, Iterator, Mapping, NamedTuple

import numpy as np

from .exceptions import ColumnMissingError, ConfigError, DataError

DEFAULT_MAPPING = {"z": "z", "d1": "d1", "d2": "d2", "y": "y"}

# Tokens treated as a missing value when reading delimited text.
_MISSING_TOKENS = {"", ".", "na", "nan"}

_BINARY = {"0", "1"}

# The dtype load_table parses each kind of column to, and the table stores;
# a cluster column is parsed to codes, and the table stores its labels too.
_DTYPES = {"instrument": np.uint8, "treatment": np.uint8, "float": float, "cluster": np.int64}

# Rows load_table takes from csv.reader at a time, and strata.sample draws;
# save_table's blocks (a pass of lafte._text, 4096 rows) are at most this
# long too, so that setting it lower moves where every block ends.
# A parsed block holds a Python string per field, about 60 bytes each.
_CHUNK_ROWS = 1 << 14

# The most bytes of a block of rows that save_table lays out (see
# _write_rows) and writes.
_BLOCK_BYTES = 1 << 22

# Bytes read at a time by load_table, which extends each read to a line end;
# each such piece of a plain file is split as one chunk.
_SCAN_BYTES = 1 << 16

# The least file (bytes) whose parsed columns load_table keeps on disk (see
# _cache_entry), and the most bytes the cache directory holds.
_CACHE_BYTES = 1 << 21
_CACHE_CAP = 1 << 30

# The lines of /proc/cpuinfo that name a CPU's model: x86, then ARM.
_CPU_KEYS = {"vendor_id", "cpu family", "model", "CPU implementer", "CPU part"}


class Column(NamedTuple):
    """A catalogue entry; ``formula`` reads only earlier columns, and the
    inputs ``d1``, ``d2`` and ``y`` have none."""

    name: str
    label: str
    formula: Callable[[DerivedColumns], np.ndarray] | None = None


# Every column regressed on the instruments, in the order of a table's one fit.
COLUMNS = (
    Column("d1", "D1"),
    Column("d2", "D2"),
    Column("d_and", "D∧", lambda c: c.d1 * c.d2),
    Column("d_or", "D∨", lambda c: c.d1 + c.d2 - c.d_and),
    Column("d_sum", "D1+D2", lambda c: c.d1 + c.d2),
    Column("y", "Y"),
    Column("g_or", "D∨−D2", lambda c: c.d_or - c.d2),
    Column("g_and", "D∧−D2", lambda c: c.d_and - c.d2),
    Column("gy_or", "(D∨−D2)Y", lambda c: c.g_or * c.y),
    Column("gy_and", "(D∧−D2)Y", lambda c: c.g_and * c.y),
    Column("dand_y", "D∧Y", lambda c: c.d_and * c.y),
    Column("untreated_y", "(1−D1)(1−D2)Y", lambda c: (1 - c.d1) * (1 - c.d2) * c.y),
    Column("kernel_y", "(1−D1−D2+2D∧)Y", lambda c: (1 - c.d1 - c.d2 + 2 * c.d_and) * c.y),
)

RESPONSES = tuple(column.name for column in COLUMNS)

LABELS = {column.name: column.label for column in COLUMNS}

_POSITION = {name: j for j, name in enumerate(RESPONSES)}


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ObservationTable:
    """Validated dataset of (z, d1, d2, y, controls, cluster); build it with from_arrays."""

    z: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    y: np.ndarray
    controls: np.ndarray
    control_names: tuple[str, ...] = ()
    cluster: np.ndarray | None = None
    warnings: tuple[str, ...] = ()
    cluster_codes: np.ndarray | None = None
    cluster_count: int | None = None

    @property
    def n(self) -> int:
        return int(self.z.shape[0])

    def cached(self, key, compute):
        """``compute()``, evaluated once per table instance and ``key``."""
        cache = self.__dict__.setdefault("_cache", {})
        if key not in cache:
            cache[key] = compute()
        return cache[key]


class DerivedColumns(NamedTuple):
    """The columns of ``RESPONSES`` side by side in one read-only ``n x 13``
    array; each is also an attribute, such as ``columns.kernel_y``."""

    values: np.ndarray

    @classmethod
    def of(cls, d1, d2, y) -> DerivedColumns:
        """The 13 columns of rows ``(d1, d2, y)``, one column at a time."""
        columns = cls(np.empty((np.shape(y)[0], len(RESPONSES)), order="F"))
        columns.d1[:], columns.d2[:], columns.y[:] = d1, d2, y
        for name, _, formula in COLUMNS:
            if formula is not None:
                columns.column(name)[:] = formula(columns)
        columns.values.flags.writeable = False
        return columns

    def column(self, name: str) -> np.ndarray:
        return self.values[:, _POSITION[name]]

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in _POSITION:
            raise AttributeError(name)
        return self.column(name)


def _non_binary(col: np.ndarray) -> np.ndarray:
    """The entries that are neither 0 nor 1, in row order (``~np.isin(col,
    (0, 1))`` without its ``int64`` copy of ``col``); one comparison for an
    unsigned ``col``. Of a binary column, an empty array: no mask is kept."""
    return col[col > 1 if col.dtype.kind == "u" else (col != 0) & (col != 1)]


def _validate_arrays(z, d1, d2, y, controls, control_names, cluster) -> list[str]:
    errors: list[str] = []
    n = z.shape[0]
    for name, col in (("d1", d1), ("d2", d2), ("y", y)):
        if col.shape[0] != n:
            errors.append(f"column '{name}' has {col.shape[0]} rows, expected {n}")
    if controls.shape[0] != n:
        errors.append(f"controls have {controls.shape[0]} rows, expected {n}")
    if cluster is not None and cluster.ndim == 1 and cluster.shape[0] != n:
        errors.append(f"cluster column has {cluster.shape[0]} rows, expected {n}")
    if errors:
        return errors
    if n < 2:
        errors.append(f"table has {n} rows; at least 2 required")
    bad_z = _non_binary(z)
    if bad_z.size:
        errors.append(f"non-binary instrument column 'z': value {bad_z[0].item()!r}")
    for name, col in (("d1", d1), ("d2", d2)):
        bad = _non_binary(col)
        if bad.size:
            errors.append(f"non-binary treatment column '{name}': value {bad[0].item()!r}")
    if not bad_z.size and n >= 1:
        # A binary z has the arm 0 when its least value is 0, and 1 when its largest is 1.
        for arm, end in ((0, z.min()), (1, z.max())):
            if end != arm:
                errors.append(f"empty instrument arm (z={arm})")
    if not np.isfinite(y).all():
        errors.append("outcome column 'y' contains non-finite values")
    if controls.size and not np.isfinite(controls).all():
        errors.append("control columns contain non-finite values")
    if control_names and len(control_names) != controls.shape[1]:
        errors.append(f"{len(control_names)} control name(s) for "
                      f"{controls.shape[1]} control column(s)")
    return errors


def _collect_warnings(z, d1, d2, codes, count) -> list[str]:
    warnings: list[str] = []
    treated = np.count_nonzero(z)
    for arm, size in ((0, z.size - treated), (1, treated)):
        if size < 2:
            warnings.append(f"tiny instrument arm: only {size} row(s) with z={arm}")
        elif codes is not None:
            # W holds 1 and z, so an arm's residuals sum to 0: one cluster of them scores 0.
            rows = z == arm  # a byte per row; the arm's codes would take 8
            if not ((codes != codes[rows.argmax()]) & rows).any():
                warnings.append(f"every row with z={arm} lies in one cluster: the cluster-"
                                "robust standard errors leave out that arm's variation")
    if count == z.size:
        warnings.append("every cluster is a singleton; clustering is equivalent to HC1")
    # A column of (d1, d2) alone is constant when it is over the occupied (d1, d2) cells.
    cell = 2 * d1  # uint8, summed in place; np.bincount would copy it to int64
    cell += d2
    cells = np.array([c for c in range(4) if (cell == c).any()])
    derived = DerivedColumns.of(cells // 2, cells % 2, np.zeros(cells.size))
    for name in ("d_and", "d_or", "d_sum", "g_or", "g_and"):
        if np.ptp(derived.column(name)) == 0:
            warnings.append(f"derived column '{name}' is constant")
    return warnings


def _label_missing(label) -> bool:
    return label is None or label != label or str(label).strip() == ""  # NaN: unequal to itself


def _numbers(labels, size: int, numbers: dict) -> np.ndarray:
    """The number of each of the ``size`` labels ``labels`` in ``numbers``,
    which numbers each new one as it is met; TypeError for a label that is
    not hashable."""
    return np.fromiter((numbers.setdefault(label, len(numbers)) for label in labels),
                       np.int64, size)


def _sorted_codes(met: list, codes: np.ndarray) -> tuple[np.ndarray, list]:
    """``codes``, the :func:`_numbers` of labels, each a place in ``met``
    (the distinct labels, as they were met), recoded to their places in the
    sorted labels, and those labels, sorting only them; TypeError if they
    do not order."""
    order = sorted(range(len(met)), key=met.__getitem__)
    places = np.empty(len(met), np.int64)
    places[order] = np.arange(len(met))
    return places[codes], [met[i] for i in order]


def _label_codes(labels, error: type[Exception]) -> tuple[np.ndarray, int]:
    """The cluster label rule of :func:`from_arrays` and of ``regression.ols``:
    each row's code 0..G-1 in sorted-label order, and G, as a load codes
    its labels (:func:`_numbers`, :func:`_sorted_codes`). Dense integer
    codes (an integer array using each of 0..G-1) pass through. A None, NaN
    or blank label is missing: ``error`` names its first row. Labels that
    are not one per row, not hashable or do not order raise ``error`` too.
    """
    if not isinstance(labels, np.ndarray):
        labels = np.array(labels, dtype=object)
    if labels.ndim != 1:
        raise error(f"cluster labels must be one per row, not an array of shape {labels.shape}")
    if (labels.dtype.kind == "i" and labels.size and labels.min() >= 0
            and labels.max() < labels.size and np.bincount(labels).all()):
        return labels, int(labels.max()) + 1
    numbers: dict = {}
    try:
        codes = _numbers(labels, len(labels), numbers)
    except TypeError:
        kinds = sorted({type(label).__name__ for label in labels})
        raise error(f"cluster labels must be hashable, such as strings or numbers; "
                    f"got {', '.join(kinds)}") from None
    if any(map(_label_missing, numbers)):
        row = next(i for i, label in enumerate(labels) if _label_missing(label))
        raise error(f"missing cluster label at row {row}")
    try:
        return _sorted_codes(list(numbers), codes)[0], len(numbers)
    except TypeError:
        kinds = sorted({type(label).__name__ for label in numbers})
        raise error(f"cluster labels of types {', '.join(kinds)} cannot be ordered") from None


def from_arrays(z, d1, d2, y, *, controls=None, control_names=(),
                cluster=None) -> ObservationTable:
    """Build a validated table from in-memory arrays.

    The table stores copies: ``z``, ``d1`` and ``d2`` as ``uint8``, ``y`` and
    the controls as ``float64`` and the cluster labels as objects, all
    read-only, so the caller's arrays stay writeable and unshared.
    ``control_names`` is empty (the controls are then named ``x0``, ``x1``,
    ...) or names each control column. A None, NaN or blank cluster label is missing.

    Raises
    ------
    DataError
        If any table invariant fails; the message lists every finding.
    """
    z, d1, d2, y = np.asarray(z), np.asarray(d1), np.asarray(d2), np.array(y, dtype=float)
    controls = np.array(np.empty((z.size, 0)) if controls is None else controls, dtype=float)
    if controls.ndim == 1:
        controls = controls[:, None]
    shapes = [f"column '{name}' must hold one value per row, not an array of shape {col.shape}"
              for name, col in (("z", z), ("d1", d1), ("d2", d2), ("y", y)) if col.ndim != 1]
    if controls.ndim != 2:
        shapes.append(f"controls must be one row per row, not an array of shape {controls.shape}")
    if shapes:
        raise DataError("; ".join(shapes))
    cluster = None if cluster is None else np.array(cluster, dtype=object)
    codes = count = None
    coding = []
    if cluster is not None and (cluster.ndim != 1 or cluster.shape[0] == z.shape[0]):
        try:
            codes, count = _label_codes(cluster, DataError)
        except DataError as exc:
            coding.append(str(exc))
    return _build_table(z, d1, d2, y, controls, tuple(control_names), cluster, codes, count,
                        (), True, coding)


def _build_table(z, d1, d2, y, controls, control_names, cluster, codes, count, warnings,
                 copy, coding=()) -> ObservationTable:
    """:func:`from_arrays` of columns of one value per row, ``y`` and the
    controls already ``float64``, the cluster labels objects with their
    ``codes`` and ``count``, or ``coding``, the error that coding them raised.
    With ``copy`` False, binary columns already ``uint8`` are frozen in place too."""
    errors = _validate_arrays(z, d1, d2, y, controls, control_names, cluster) + list(coding)
    if errors:
        raise DataError("; ".join(errors))

    z, d1, d2 = (_freeze(col.astype(np.uint8, copy=copy)) for col in (z, d1, d2))
    codes = None if codes is None else _freeze(codes)
    return ObservationTable(
        z, d1, d2, _freeze(y), _freeze(controls),
        control_names=control_names or tuple(f"x{j}" for j in range(controls.shape[1])),
        cluster=None if cluster is None else _freeze(cluster),
        warnings=(*warnings, *_collect_warnings(z, d1, d2, codes, count)),
        cluster_codes=codes, cluster_count=count)


def _check_delimiter(delimiter, name: str = "delimiter") -> None:
    """Refuse a delimiter that is not one character, or that can occur inside an
    unquoted field: a letter or digit, ``.``, ``+``, ``-``, a quote, CR or LF."""
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ConfigError(f"{name} must be one character, got {delimiter!r}")
    if delimiter.isalnum() or delimiter in '.+-"\r\n':
        raise ConfigError(f"{name} must be a character no field can contain, got {delimiter!r}")


def _check_missing(on_missing) -> None:
    """Refuse a missing-data policy other than ``drop`` and ``fail``."""
    if on_missing not in ("drop", "fail"):
        raise ConfigError(f"unknown missing-data policy {on_missing!r}")


def _floats(tokens) -> np.ndarray | None:
    """Tokens parsed by Python's ``float`` grammar; None if any does not parse."""
    try:
        return np.array(tokens, dtype=float)
    except ValueError:
        return None


def _binary(tokens) -> np.ndarray | None:
    """``0``/``1`` tokens, surrounding whitespace allowed, as uint8; None if any other."""
    if not set(tokens) <= _BINARY:
        tokens = [tok.strip() for tok in tokens]
        if not set(tokens) <= _BINARY:
            return None
    return np.frombuffer("".join(tokens).encode(), np.uint8) - 48


def _missing(tokens, values: np.ndarray | None) -> np.ndarray:
    """Mask of one column's missing tokens; given its floats, only NaNs are checked."""
    if values is not None:
        mask = np.isnan(values)
        mask[mask] = [tokens[i].strip().lower() in _MISSING_TOKENS for i in np.flatnonzero(mask)]
        return mask
    blank = {tok for tok in set(tokens) if tok.strip().lower() in _MISSING_TOKENS}
    return (np.fromiter(map(blank.__contains__, tokens), bool, len(tokens)) if blank
            else np.zeros(len(tokens), dtype=bool))


class _Chunk(NamedTuple):
    """Records of a file, as a tokenizer split them."""

    column: Callable[[int], list[str]]  # the tokens at one position, "" past a row's end
    fields: Callable[[int], list[str]]  # every token of one record


class _Tokens(NamedTuple):
    """A file as a tokenizer splits it: its header (None for an empty file),
    its chunks of records, and how many of its bytes have been read."""

    header: list[str] | None
    chunks: Iterator[_Chunk]
    position: Callable[[], int]


class _NotPlain(Exception):
    """A piece of the file that the byte tokenizer does not take."""


def _source(path) -> tuple[Callable[[], BinaryIO], int, bool]:
    """A function that opens the file at ``path`` as bytes, from its start,
    each time it is called, the file's size, and whether the file at
    ``path`` can be read again. A pipe can be read only once, so it is held,
    and cannot."""
    with open(path, "rb") as handle:
        if handle.seekable():
            return (lambda: open(path, "rb")), os.fstat(handle.fileno()).st_size, True
        raw = handle.read()
    return (lambda: io.BytesIO(raw)), len(raw), False


def _csv_text(handle: BinaryIO) -> io.TextIOWrapper:
    """The binary file ``handle`` as text for ``csv.reader``: UTF-8 after an
    optional BOM, line ends as written."""
    return io.TextIOWrapper(handle, encoding="utf-8-sig", newline="")


def _csv_chunk(rows: list[list[str]]) -> _Chunk:
    short = min(map(len, rows))

    def column(p: int) -> list[str]:
        if p < short:
            return list(map(itemgetter(p), rows))
        return [row[p] if p < len(row) else "" for row in rows]

    return _Chunk(column, rows.__getitem__)


def _csv_tokens(text, delimiter: str) -> _Tokens:
    """The records of the text file ``text`` as ``csv.reader`` reads them."""
    reader = csv.reader(text, delimiter=delimiter)
    header = next(reader, None)
    return _Tokens(header, map(_csv_chunk, iter(lambda: list(islice(reader, _CHUNK_ROWS)), [])),
                   text.buffer.tell)


def _check_plain(piece: bytes, delimiter: str, width: int) -> None:
    """Raises :class:`_NotPlain` unless ``piece``, which starts a line, is
    ASCII with no quote, no NUL and no carriage return outside a CRLF, and
    each of its lines has ``width`` fields and is shorter than
    ``csv.field_size_limit()``.
    """
    if not piece.isascii() or b'"' in piece or b"\0" in piece:
        raise _NotPlain
    text = np.frombuffer(piece, np.uint8)
    at = np.flatnonzero((text == ord(delimiter)) | (text == 10))
    is_end = text[at] == 10
    # Every width-th separator ends a line, and no other does.
    expected = is_end[width - 1::width]
    if not expected.all() or expected.size != np.count_nonzero(is_end):
        raise _NotPlain
    ends = at[is_end]
    # A line feed at 0 has no carriage return before it.
    if np.count_nonzero(text == 13) != np.count_nonzero(text[np.maximum(ends - 1, 0)] == 13):
        raise _NotPlain
    if text[-1] != 10:
        if at.size % width != width - 1:
            raise _NotPlain
        ends = np.append(ends, text.size)
    if np.diff(ends, prepend=-1).max() > csv.field_size_limit():  # a length plus one
        raise _NotPlain


def _token_chunk(lines: bytes, split: bytes, width: int) -> _Chunk:
    """The tokens of whole ``lines`` (without the last line feed), split at
    the bytes ``split`` maps to a line feed; of its own, so that each chunk
    keeps its own tokens and the bytes go as soon as they are split."""
    tokens = lines.translate(split, b"\r").decode("ascii").split("\n")
    return _Chunk(lambda p: tokens[p::width], lambda i: tokens[i * width:(i + 1) * width])


def _byte_tokens(handle, delimiter: str) -> _Tokens:
    """The records of the binary file ``handle``, split as bytes: its header
    line, then a chunk per piece of ``_SCAN_BYTES`` bytes and the rest of
    its last line, each checked by :func:`_check_plain` before it is split.

    ``csv.reader`` splits a file the same way when, after an optional BOM,
    its header line is not empty, the delimiter is ASCII and neither a
    quote, a NUL nor a line break, and the header and each piece pass that
    check against the header's width. Raises :class:`_NotPlain` here, or
    while the chunks are read, at the first that does not.
    """
    if not delimiter.isascii() or delimiter in '"\0\r\n':
        raise _NotPlain
    first = handle.readline().removeprefix(codecs.BOM_UTF8)
    if not first or first.startswith((b"\n", b"\r")):
        raise _NotPlain
    width = first.count(delimiter.encode()) + 1
    _check_plain(first, delimiter, width)
    split = bytes.maketrans(delimiter.encode(), b"\n")

    def chunks() -> Iterator[_Chunk]:
        while piece := handle.read(_SCAN_BYTES):
            if not piece.endswith(b"\n"):
                piece += handle.readline()
            _check_plain(piece, delimiter, width)
            yield _token_chunk(piece.removesuffix(b"\n"), split, width)

    header = first.rstrip(b"\r\n").decode("ascii").split(delimiter)
    return _Tokens(header, chunks(), handle.tell)


def _parse_columns(columns: list[list[str]], kinds, fields, labels: dict[str, int]):
    """Parse one chunk, given the tokens of each mapped column.

    Returns the values of each mapped column over the kept rows (None when a
    kept token does not parse) and the mask of rows dropped for a missing
    value. Rows whose every field (``fields(i)``) is blank are neither kept
    nor dropped. A cluster label is parsed to its :func:`_numbers` in ``labels``.
    """
    floats = [_floats(col) if kind == "float" else None for col, kind in zip(columns, kinds)]
    missing = np.logical_or.reduce([_missing(col, v) for col, v in zip(columns, floats)])
    if missing.any():
        keep = ~missing
        blank = [i for i in np.flatnonzero(missing) if not any(t.strip() for t in fields(i))]
        missing[blank] = False
        columns = [list(compress(col, keep)) for col in columns]
        floats = [None if v is None else v[keep] for v in floats]
    values = []
    for col, v, kind in zip(columns, floats, kinds):
        if kind == "float":
            column = _floats(col) if v is None else v
        elif kind == "cluster":
            column = _numbers(map(str.strip, col), len(col), labels)
        else:
            column = _binary(col)
        if column is None:
            return None, missing
        values.append(column)
    return values, missing


def _token_error(columns: list[list[str]], cols, kinds) -> DataError:
    """The error for the first token of a kept row that does not parse, given
    the tokens of each mapped column of a chunk :func:`_parse_columns` could
    not parse (so that there is one)."""
    for fields in zip(*columns):
        if any(tok.strip().lower() in _MISSING_TOKENS for tok in fields):
            continue
        for tok, name, kind in zip(fields, cols, kinds):
            if kind == "float" and _floats([tok]) is None:
                return DataError(f"could not parse numeric column '{name}': value {tok!r}")
            if kind in ("instrument", "treatment") and tok.strip() not in _BINARY:
                # Only 0/1: "true"/"false" are rejected to avoid silent coercion.
                return DataError(f"non-binary {kind} column '{name}': value {tok!r}")


def load_table(path, mapping: Mapping[str, object] | None = None, *,
               delimiter: str = ",", on_missing: str = "drop") -> ObservationTable:
    """Read a delimited text file into a validated :class:`ObservationTable`.

    Parameters
    ----------
    path : str or Path
        UTF-8 delimited text file with a header row; a leading byte-order
        mark is ignored and header names are stripped.
    mapping : mapping, optional
        Column-name mapping with required keys ``z``, ``d1``, ``d2``, ``y``
        and optional keys ``controls`` (list of names) and ``cluster``.
        Defaults to the identity mapping ``{"z": "z", ...}``. The mapped
        ``z``, ``d1``, ``d2``, ``y`` and the controls name distinct columns
        (a :class:`ConfigError` otherwise, before the file is opened); the
        cluster may name any column.
    delimiter : str
        Field delimiter, one character that cannot occur inside a field (see
        :func:`_check_delimiter`); comma by default, tab selectable.
    on_missing : {"drop", "fail"}
        Rows with a missing value in any mapped column are dropped (with a
        warning recording the count) or cause an error.

    Token grammar: a mapped token is missing when, stripped of whitespace and
    lower-cased, it is empty, ``.``, ``na`` or ``nan`` (so ``-nan`` is a NaN,
    not missing). Rows whose every field is blank are skipped silently; short
    rows are padded with empty fields. Binary columns accept exactly ``0`` or
    ``1`` with optional surrounding whitespace. Real columns follow Python's
    ``float`` grammar (``1_0``, ``inf`` and ``1e500`` parse). Cluster labels
    are stripped. Errors name the first offending line or token.

    Records are what ``csv.reader`` makes of the file, and the grammar above
    applies to its tokens. The file is streamed in line-aligned pieces, by
    this one process, and never held whole (a pipe, which can be read only
    once, is held, and never cached). A plain file is parsed in one reading, split as bytes,
    which gives the same tokens faster. Any other file is read again by
    ``csv.reader``, from its first byte: one that, after its BOM, has a
    non-ASCII byte, a quote, a NUL, a carriage return outside a CRLF, an
    empty header line, a line with more or fewer fields than the header, or
    a line as long as ``csv.field_size_limit()``. An error is always the one
    ``csv.reader``'s reading of the file gives: a plain file that has an
    error is read again by ``csv.reader``, which finds it in one pass. So the
    table, or the error, does not depend on which piece shows that a file is
    not plain, or has an error.

    The parsed columns of a seekable file of 2 MiB or more are kept in
    ``$XDG_CACHE_HOME/lafte`` (``~/.cache/lafte`` when it is unset), in an
    entry named by the one key of every kept file (:func:`_cache_entry`).
    Such a file is read once more, first, to hash it; when the entry is
    there, it is read in place of the parse, and the table, its warnings and
    its errors are the same. The entry, in the one layout of every kept file
    (:func:`_cache_keep`), is a JSON line, with a cluster column's sorted
    distinct labels, then each column's bytes, a cluster column's as each
    row's code: a hit builds the labels and ``cluster_codes`` with one
    gather each, and does no work per row in Python. A file that raises
    while it is read keeps no entry. An ``XDG_CACHE_HOME`` that cannot be
    used turns the cache off. The table remembers the entry it was read from
    or kept at, and ``estimands`` keeps its one fit at ``<entry>.fit``: a
    later command on the same bytes reads that fit in place of fitting the
    table again.
    """
    _check_missing(on_missing)
    _check_delimiter(delimiter)
    mapping = dict(DEFAULT_MAPPING) if mapping is None else dict(mapping)
    allowed = {"z", "d1", "d2", "y", "controls", "cluster"}
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown mapping keys: {sorted(unknown, key=str)}")
    controls = mapping.get("controls")
    if not isinstance(controls, (list, tuple, type(None))):
        raise ConfigError(f"mapping 'controls' must be a list of column names, got {controls!r}")
    control_names = [str(c) for c in controls or ()]
    uses: dict[str, str] = {}
    for use, column in ([(f"'{k}'", str(mapping[k])) for k in DEFAULT_MAPPING if k in mapping]
                        + [(f"control {j}", c) for j, c in enumerate(control_names, 1)]):
        if column in uses:
            raise ConfigError(f"column '{column}' is named as {uses[column]} and as {use}; "
                              "z, d1, d2, y and each control must be distinct columns")
        uses[column] = use
    for key in ("z", "d1", "d2", "y"):
        if key not in mapping:
            raise ConfigError(f"mapping is missing required key '{key}'")
    cluster_name = mapping.get("cluster")

    cols = [str(mapping[key]) for key in ("z", "d1", "d2", "y")] + control_names
    cols += [str(cluster_name)] if cluster_name else []
    kinds = ["instrument", "treatment", "treatment"] + ["float"] * (1 + len(control_names))
    kinds += ["cluster"] if cluster_name else []
    columns, dropped, labels, entry = _read_columns(path, delimiter, cols, kinds, on_missing)
    if not columns[0].size:
        raise DataError(f"no complete rows in {path}")
    z, d1, d2, y, *rest = columns
    del columns  # so that ``rest`` holds the only reference to each parsed control
    codes = rest.pop() if cluster_name else None
    controls = np.empty((z.shape[0], len(rest)))
    for j in range(len(rest)):
        # Let go of each parsed column once copied: the controls are held once.
        controls[:, j], rest[j] = rest[j], None
    table = _build_table(
        z, d1, d2, y, controls, tuple(control_names),
        None if codes is None else np.array(labels, object)[codes],
        codes, None if codes is None else len(labels),
        [f"dropped {dropped} row(s) with missing values"] if dropped else [], False)
    if entry is not None:
        table.__dict__["_entry"] = entry
    return table


def _read_columns(path, delimiter: str, cols: list[str], kinds: list[str], on_missing: str):
    """Each column ``cols`` of the file at ``path`` (parsed as ``kinds``)
    over the kept rows, the number of rows dropped for a missing value, the
    sorted distinct labels of a cluster column, whose rows hold each one's
    code, and the cache entry the columns were read from or kept at (None
    when neither).

    They are read from the cache when it holds them (:func:`_cache_read`)
    and each label code is a label's, else parsed (:func:`_parse`) and kept
    there, unless the file's :func:`_identity` changed since it was hashed.
    """
    try:
        source, size, again = _source(path)
        entry = _cache_entry(path, size, [cols, kinds, delimiter, on_missing]) if again else None
        hit = None if entry is None else _cache_read(entry[0], partial(_column_arrays, kinds))
        if hit is not None:
            (rows, dropped, labels), columns = hit
            codes = columns[-1]
            if "cluster" not in kinds or not rows or 0 <= codes.min() <= codes.max() < len(labels):
                return columns, dropped, labels, entry[0]
        parsed = _parse(source, size, path, delimiter, cols, kinds, on_missing)
        with suppress(OSError):
            if (entry is not None and _identity(os.stat(path)) == entry[1]
                    and _cache_keep(entry[0], [parsed[0][0].size, *parsed[1:]], parsed[0])):
                return (*parsed, entry[0])
        return (*parsed, None)
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"unreadable file {path}: {exc}") from None


def _column_arrays(kinds: list[str], header) -> list[np.ndarray]:
    """The empty columns of ``kinds`` for an entry's JSON line ``[kept,
    dropped, labels]``; ValueError or TypeError unless it is such a line."""
    kept, dropped, labels = header
    if (not all(type(count) is int and count >= 0 for count in (kept, dropped))
            or not isinstance(labels, list) or not set(map(type, labels)) <= {str}):
        raise ValueError("not a cache entry")
    return [np.empty(kept, _DTYPES[kind]) for kind in kinds]


def _parse(source, size: int, path, delimiter: str, cols, kinds, on_missing: str):
    """:func:`_read_columns` of the file of ``size`` bytes that ``source`` opens.

    The file is split as bytes while every piece of it is plain. The first
    piece that is not, or any error, sends the whole file through
    ``csv.reader``, whose reading alone decides the error.
    """
    try:
        with source() as handle:
            return _collect(_byte_tokens(handle, delimiter), size, path, cols, kinds, on_missing)
    except (_NotPlain, ConfigError, DataError):
        pass
    # Out of the handler, so that the byte path's columns are let go.
    with _csv_text(source()) as text:
        return _collect(_csv_tokens(text, delimiter), size, path, cols, kinds, on_missing)


def _collect(tokens: _Tokens, size: int, path, cols, kinds, on_missing: str):
    """:func:`_read_columns` of one tokenizer's records, from a file of
    ``size`` bytes.

    Each column is allocated once, for the rows that ``size`` and the bytes
    per kept row read so far foretell, and 1/64 more; it grows only when
    they fall short, by the rows foretold for the bytes left, and is cut to
    size once, in place, at the end. The error, if any, is found in this one
    pass: under ``on_missing="fail"`` a missing value anywhere, else the
    first bad token of a kept row. The labels of a cluster column are
    numbered as they are met, then sorted (a parsed label is a stripped,
    non-blank string, so it is never missing and always orders), and the
    rows recoded to their sorted places (:func:`_sorted_codes`).
    """
    header, chunks, position = tokens
    if header is None:
        raise DataError(f"file {path} is empty")
    header = [h.strip() for h in header]
    absent = [col for col in cols if col not in header]
    if absent:
        raise ColumnMissingError(f"column(s) {absent} not found in {path}; header is {header}")
    positions = [header.index(col) for col in cols]
    columns = [np.empty(0, _DTYPES[kind]) for kind in kinds]
    labels: dict[str, int] = {}
    kept = dropped = 0
    line = 2
    error = None  # under "fail", a bad token stands only if no value is missing
    for tokens in chunks:
        mapped = list(map(tokens.column, positions))
        chunk, missing = _parse_columns(mapped, kinds, tokens.fields, labels)
        if on_missing == "fail" and missing.any():
            raise DataError(f"missing value at line {line + int(np.argmax(missing))} of {path}")
        if chunk is None:
            error = error or _token_error(mapped, cols, kinds)
            if on_missing == "drop":
                raise error
        elif error is None:
            end = kept + chunk[0].size
            if end > columns[0].size:
                # The kept rows that the bytes per kept row so far foretell,
                # and 1/64 more: a column grown again may be copied whole.
                rows = max(end, -(-end * size * 65 // (64 * position())))
                if columns[0].size:
                    for column in columns:
                        column.resize(rows, refcheck=False)  # in place
                else:  # the pages of rows foretold but never kept are never touched
                    columns = [np.empty(rows, column.dtype) for column in columns]
            for column, values in zip(columns, chunk):
                column[kept:end] = values
            kept = end
        dropped += int(missing.sum())
        line += missing.size
        del tokens, mapped  # before the next chunk is split
    if error is not None:
        raise error
    for column in columns:
        column.resize(kept, refcheck=False)  # in place: the array is not copied
    if "cluster" not in kinds:
        return columns, dropped, []
    met = list(labels)
    del labels  # its table, before the labels are sorted
    columns[-1], distinct = _sorted_codes(met, columns[-1])
    return columns, dropped, distinct


def _identity(info: os.stat_result) -> tuple[int, ...]:
    """What changes when a file is replaced or written to."""
    return info.st_dev, info.st_ino, info.st_size, info.st_mtime_ns, info.st_ctime_ns


def _cache_dir() -> str | None:
    """``lafte`` in ``$XDG_CACHE_HOME``, or in ``~/.cache`` when that is
    unset or empty, made if need be with mode 0700; None when it is not an
    absolute path, cannot be made, is a symlink or not a directory, or
    another user owns it."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base) or not hasattr(os, "getuid"):
        return None
    directory = os.path.join(base, "lafte")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        info = os.lstat(directory)
        if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid():
            return None
        if stat.S_IMODE(info.st_mode) != 0o700:
            os.chmod(directory, 0o700)
    except OSError:
        return None
    return directory


def _machine() -> str:
    """The sha256 of what makes the bits of one fit differ between machines:
    the architecture, the CPU's model (which picks the BLAS's kernels, read
    from ``/proc/cpuinfo`` where there is one), and numpy's build, BLAS and
    SIMD dispatch (``np.show_config``)."""
    cpu = []
    with suppress(OSError), open("/proc/cpuinfo", encoding="utf-8", errors="replace") as info:
        for line in info:
            if not line.strip():
                break  # the first CPU's lines end here
            key, _, value = line.partition(":")
            if key.strip() in _CPU_KEYS:
                cpu.append([key.strip(), value.strip()])
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints it
        config = None
    return hashlib.sha256(json.dumps([os.uname().machine, cpu, config]).encode()).hexdigest()


def _cache_entry(path, size: int, parts: list) -> tuple[str, tuple] | None:
    """Where the columns that ``parts`` (the mapped columns, their kinds, the
    delimiter and the missing policy) read from the file at ``path``, which
    can be read again, are kept, and the file's :func:`_identity` before it
    was hashed; None when a file of ``size`` is not cached: a file under
    ``_CACHE_BYTES``, or no usable cache directory (:func:`_cache_dir`).

    The entry is named by the sha256 of the file's bytes, ``parts``, the
    source of every module of this package, the numpy and Python versions,
    ``csv.field_size_limit()`` and the :func:`_machine`: anything that
    could change the columns, or the bits of the table's fit that
    ``estimands`` keeps at ``<entry>.fit``. This is the one key of every
    kept file.
    """
    if size < _CACHE_BYTES:
        return None
    directory = _cache_dir()
    if directory is None:
        return None
    try:
        with open(path, "rb", buffering=0) as handle:
            identity = _identity(os.fstat(handle.fileno()))
            digest = hashlib.sha256()
            block = bytearray(1 << 20)
            while read := handle.readinto(block):
                digest.update(memoryview(block)[:read])
        package = os.path.dirname(__file__)
        code = []
        for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
            with open(os.path.join(package, name), "rb") as source:
                code.append([name, hashlib.sha256(source.read()).hexdigest()])
    except OSError:
        return None
    key = [digest.hexdigest(), *parts, code, np.__version__, sys.version, csv.field_size_limit(),
           _machine()]
    return os.path.join(directory, hashlib.sha256(json.dumps(key).encode()).hexdigest()), identity


def _cache_read(path: str, arrays_of: Callable[[object], list[np.ndarray]]):
    """The JSON line that starts the file at ``path`` in the cache directory
    and the arrays ``arrays_of`` makes for it, read from the rest; None when
    it cannot be read, ``arrays_of`` refuses the line (ValueError, TypeError,
    MemoryError) or the rest is not their bytes. A hit is brought up to now."""
    try:
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            arrays = arrays_of(header)
            if os.fstat(handle.fileno()).st_size - handle.tell() != sum(a.nbytes for a in arrays):
                return None
            for array in arrays:
                if handle.readinto(array) != array.nbytes:
                    return None
    except (OSError, ValueError, TypeError, MemoryError):
        return None
    with suppress(OSError):
        os.utime(path)  # the files least recently used go first
    return header, arrays


def _cache_keep(path: str, header, arrays: list[np.ndarray]) -> bool:
    """Keeps ``header`` as one JSON line, then the bytes of ``arrays``, at
    ``path`` in the cache directory, through a temporary file that replaces
    it whole, then removes the oldest files while the directory holds more
    than ``_CACHE_CAP`` bytes. Whether it was kept: nothing is, if anything
    fails, nor is anything removed for a file that alone would pass the cap."""
    line = json.dumps(header).encode() + b"\n"
    if len(line) + sum(array.nbytes for array in arrays) > _CACHE_CAP:
        return False
    directory = os.path.dirname(path)
    temporary = None
    try:
        handle, temporary = tempfile.mkstemp(dir=directory)
        with open(handle, "wb") as out:
            out.write(line)
            for array in arrays:
                out.write(np.ascontiguousarray(array).data)
        os.replace(temporary, path)
        temporary = None
        with os.scandir(directory) as listing:
            kept = sorted((info.st_mtime_ns, info.st_size, item.path) for item in listing
                          for info in [item.stat(follow_symlinks=False)])
    except OSError:
        return False
    finally:
        if temporary is not None:
            with suppress(OSError):
                os.unlink(temporary)
    total = sum(size for _, size, _ in kept)
    for _, size, name in kept:
        if total <= _CACHE_CAP:
            break
        with suppress(OSError):
            os.unlink(name)
        total -= size
    return True


def _csv_fields(values: list[str], delimiter: str) -> list[str]:
    """Each of the distinct strings ``values`` as ``csv.writer`` writes it in a field."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter)
    writer.writerow(values)
    if buffer.getvalue() == delimiter.join(values) + "\r\n":
        return values
    fields = []
    for value in values:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([value])
        fields.append(buffer.getvalue()[:-2])
    return fields


def _labels(table: ObservationTable, delimiter: str, path) -> list[bytes]:
    """The cluster fields of ``table``, in code order: one text per cluster,
    the ``str`` of its label on its first row, as ``csv.writer`` writes it
    after the delimiter, UTF-8; each row's ``cluster_codes`` gathers its
    field. DataError, writing nothing, for texts that :func:`load_table`
    would not read as their clusters."""
    texts = [str(label) for label in
             table.cluster[np.unique(table.cluster_codes, return_index=True)[1]]]
    keys = [text.strip() for text in texts]
    alike = Counter(keys)
    refused = [text for key, text in zip(keys, texts)
               if alike[key] > 1 or key.lower() in _MISSING_TOKENS]
    if refused:
        raise DataError(f"cluster labels {refused} are alike once stripped or read as missing, "
                        f"as load_table reads them; nothing is written to {path}")
    return [(delimiter + field).encode() for field in _csv_fields(texts, delimiter)]


def save_table(table: ObservationTable, path, *, delimiter: str = ",") -> None:
    """Write a table in the delimited format :func:`load_table` reads.

    The bytes are those of ``csv.writer`` with its defaults: binary columns
    are written as ``0``/``1`` and reals with ``repr`` (the ``csv`` module's
    float format), so reloading reproduces every value bit-identically.
    Each cluster is written as one text, the ``str`` of its label on its
    first row (``1``, ``1.0`` and ``True`` are one cluster), quoted when it
    contains the delimiter, a quote or a line break; lines end in CRLF. Each
    control column is headed by its name. Rows are written a block
    at a time, each block laid out as one array (:func:`_write_rows`).

    The text of each real is computed by ``lafte._text`` from the value's
    bits, exactly as ``repr`` writes it, with whole-array arithmetic for
    every magnitude from 1e-4 up to 1e16, the range ``repr`` writes in
    fixed notation; ``repr`` itself writes the others (zeros, subnormals,
    non-finite values and every ``e±XX`` text), on those values only. Each
    cluster's text is quoted and encoded once, and each row's is gathered by
    its ``cluster_codes`` (:func:`_labels`), so a label costs its own
    length, however long the others are. A 1e6-row draw is written in
    about 0.16 s (2-vCPU machine, median of 15 fresh processes). Only
    :func:`_write_rows` imports ``lafte._text``, so that a command that
    writes no table never compiles it.

    Raises
    ------
    DataError
        If two header names are the same once stripped, as :func:`load_table`
        reads them (a control named ``y``, say), or two clusters' texts are
        (``a`` and `` a``), or a text reads as missing (``NA``), or the
        delimiter, a name or a text has no UTF-8 form (holds a lone
        surrogate); nothing is written.
    """
    _check_delimiter(delimiter)
    names = ["z", "d1", "d2", "y", *table.control_names]
    names += ["cluster"] if table.cluster is not None else []
    stripped = [str(name).strip() for name in names]
    repeated = [name for i, name in enumerate(stripped) if name in stripped[:i]]
    if repeated:
        raise DataError(f"column '{repeated[0]}' repeats in the header {names}; "
                        f"nothing is written to {path}")
    header = io.StringIO()
    csv.writer(header, delimiter=delimiter).writerow(names)
    try:
        labels = None if table.cluster is None else _labels(table, delimiter, path)
        head = header.getvalue()[:-2].encode()
    except UnicodeEncodeError:
        texts = map(str, [delimiter, *names, *(() if table.cluster is None else table.cluster)])
        refused = sorted({text for text in texts if any("\ud800" <= c <= "\udfff" for c in text)})
        raise DataError(f"the delimiter, column names or cluster labels {refused} have no "
                        f"UTF-8 form; nothing is written to {path}") from None
    with open(path, "wb") as handle:
        handle.write(head)
        _write_rows(handle, table, delimiter, labels)
        handle.write(b"\r\n")


def _write_rows(handle: BinaryIO, table: ObservationTable, delimiter: str,
                labels: list[bytes] | None) -> None:
    """Writes the rows of ``table`` to the binary file ``handle``, a pass
    of ``lafte._text`` at a time (at most ``_CHUNK_ROWS``), or fewer rows
    where a block would pass ``_BLOCK_BYTES``. Each row starts with the
    line end of the row before it; :func:`save_table` ends the last.

    A block's rows are laid out in one matrix of uint64 words: the line
    end, the ``(z, d1, d2)`` fields and a delimiter, from a table of the 8
    rows, then each real's three words, which ``lafte._text`` writes in
    place, with a word holding the delimiter between two reals. Each byte
    that is no part of the text is 0xFF, which no UTF-8 text holds, and
    the block is written without those bytes. A table with clusters has
    each row's field, ``labels`` at its ``cluster_codes``, follow the rest
    of the row in the block's bytes.
    """
    from . import _text

    encoded, pad = delimiter.encode(), b"\xff"
    texts = [b"\r\n" + encoded.join(bits) + encoded for bits in product((b"0", b"1"), repeat=3)]
    head = -(-len(texts[0]) // 8)
    heads = np.frombuffer(b"".join(text.rjust(8 * head, pad) for text in texts),
                          np.uint64).reshape(8, head)
    reals = [table.y, *table.controls.T]
    fixed = len(texts[0]) + (len(reals) - 1) * len(encoded)
    slot = _text.WIDTH // 8
    # Each real's slot starts at a word of the matrix, after a delimiter.
    fields = [head + j * (slot + 1) for j in range(len(reals))]
    width = fields[-1] + slot
    # The bytes of a row: its matrix row and, on average, its label field.
    row_bytes = 8 * width
    if labels is not None:
        lengths = np.fromiter(map(len, labels), np.int64, len(labels))
        row_bytes += int(np.bincount(table.cluster_codes) @ lengths) // max(table.n, 1)
    step = max(1, min(_CHUNK_ROWS, _text._PASS, _BLOCK_BYTES // row_bytes, table.n))
    block = np.empty((step, width), np.uint64)
    block[:, [at - 1 for at in fields[1:]]] = np.frombuffer(encoded.rjust(8, pad), np.uint64)
    kernel = _text.Kernel()
    for first in range(0, table.n, step):
        rows = slice(first, first + step)
        cells = 4 * table.z[rows] + 2 * table.d1[rows] + table.d2[rows]
        part = block[:cells.size]
        part[:, :head] = heads[cells]
        kept_bytes = np.full(cells.size, fixed)
        for at, column in zip(fields, reals):
            kept_bytes += kernel(column[rows], part[:, at:at + slot])
        text = part.tobytes().translate(None, pad)
        if labels is None:
            handle.write(text)
            continue
        codes = table.cluster_codes[rows]
        # The bytes of the block alternate: a row's kept bytes, then its field.
        parts = np.column_stack([kept_bytes, lengths[codes]]).ravel()
        from_matrix = np.repeat(np.arange(parts.size) % 2 == 0, parts)
        out = np.empty(from_matrix.size, np.uint8)
        out[from_matrix] = np.frombuffer(text, np.uint8)
        out[~from_matrix] = np.frombuffer(b"".join(map(labels.__getitem__, codes.tolist())),
                                          np.uint8)
        handle.write(out)
