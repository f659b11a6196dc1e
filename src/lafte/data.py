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
non-ASCII or ragged files; see :func:`load_table`) and writes the header;
the rows are split and joined as plain strings, a block of rows at a time.

``cluster_codes`` holds each row's cluster label as an ``int64`` index into
the sorted distinct labels (the inverse of ``np.unique(cluster)``), computed
once by :func:`from_arrays`; ``cluster_count`` is their number. The fits
receive the codes, which give the same per-cluster sums as the labels.

Tables are immutable after construction. Each instance also keeps a cache,
outside its dataclass fields, of values that are pure functions of its
columns: ``estimands.slopes`` keeps the table's one fit of the 13 columns
there, and every slope read off it, so that the table is fit once. The
columns themselves are never held whole: the fit builds them a block of
rows at a time, with :meth:`DerivedColumns.of`, as it reads them. A table
made by ``dataclasses.replace`` starts with an empty cache. Tables are safe
to share across threads: two threads may compute the same cache entry at
once, and both see equal values.
"""

from __future__ import annotations

import codecs
import csv
import io
from dataclasses import dataclass, replace
from itertools import chain, compress, islice, product
from operator import itemgetter
from typing import BinaryIO, Callable, Iterator, Mapping, NamedTuple

import numpy as np

from .exceptions import ColumnMissingError, ConfigError, DataError

DEFAULT_MAPPING = {"z": "z", "d1": "d1", "d2": "d2", "y": "y"}

# Tokens treated as a missing value when reading delimited text.
_MISSING_TOKENS = {"", ".", "na", "nan"}

_BINARY = {"0", "1"}

# The dtype load_table parses each kind of column to, and the table stores.
_DTYPES = {"instrument": np.uint8, "treatment": np.uint8, "float": float, "cluster": object}

# Rows parsed at a time by load_table, and written at a time by save_table.
# A parsed block holds a Python string per field, about 60 bytes each.
_CHUNK_ROWS = 1 << 14

# Bytes read at a time by load_table, which extends each read to a line end.
_SCAN_BYTES = 1 << 16


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


@dataclass(frozen=True)
class ValidationReport:
    """Fatal findings and non-fatal warnings collected while building a table."""

    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


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
    column_names: tuple[str, ...] = ()
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


@dataclass(frozen=True)
class DerivedColumns:
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
    """Mask of the entries that are neither 0 nor 1 (``~np.isin(col, (0, 1))``
    without its ``int64`` copy of ``col``)."""
    return (col != 0) & (col != 1)


def _validate_arrays(z, d1, d2, y, controls, cluster, labels, codes) -> list[str]:
    # ``labels`` are the distinct cluster labels, None when some label is None;
    # ``codes`` are None when the labels do not order.
    errors: list[str] = []
    n = z.shape[0]
    for name, col in (("d1", d1), ("d2", d2), ("y", y)):
        if col.shape[0] != n:
            errors.append(f"column '{name}' has {col.shape[0]} rows, expected {n}")
    if controls.shape[0] != n:
        errors.append(f"controls have {controls.shape[0]} rows, expected {n}")
    if errors:
        return errors
    if n < 2:
        errors.append(f"table has {n} rows; at least 2 required")
    bad_z = _non_binary(z)
    if bad_z.any():
        errors.append(f"non-binary instrument column 'z': value {z[bad_z][0]!r}")
    for name, col in (("d1", d1), ("d2", d2)):
        bad = _non_binary(col)
        if bad.any():
            errors.append(f"non-binary treatment column '{name}': value {col[bad][0]!r}")
    if not bad_z.any() and n >= 1:
        for arm in (0, 1):
            if not np.any(z == arm):
                errors.append(f"empty instrument arm (z={arm})")
    if not np.isfinite(y).all():
        errors.append("outcome column 'y' contains non-finite values")
    if controls.size and not np.isfinite(controls).all():
        errors.append("control columns contain non-finite values")
    if cluster is not None:
        if cluster.shape[0] != n:
            errors.append(f"cluster column has {cluster.shape[0]} rows, expected {n}")
        elif labels is None or any(str(lab).strip() == "" for lab in labels):
            errors.append("missing cluster label")
        elif codes is None:
            kinds = sorted({type(lab).__name__ for lab in labels})
            errors.append(f"cluster labels of types {', '.join(kinds)} cannot be ordered")
    return errors


def _collect_warnings(table: ObservationTable) -> list[str]:
    warnings: list[str] = []
    for arm in (0, 1):
        size = int(np.sum(table.z == arm))
        if size < 2:
            warnings.append(f"tiny instrument arm: only {size} row(s) with z={arm}")
    if table.cluster_count == table.n:
        warnings.append("every cluster is a singleton; clustering is equivalent to HC1")
    # A column of (d1, d2) alone is constant when it is over the occupied (d1, d2) cells.
    cell = 2 * table.d1 + table.d2  # uint8; np.bincount would copy it to int64
    cells = np.array([c for c in range(4) if (cell == c).any()])
    derived = DerivedColumns.of(cells // 2, cells % 2, np.zeros(cells.size))
    for name in ("d_and", "d_or", "d_sum", "g_or", "g_and"):
        if np.ptp(derived.column(name)) == 0:
            warnings.append(f"derived column '{name}' is constant")
    return warnings


def _factorise(cluster: np.ndarray) -> tuple[list, np.ndarray | None]:
    """The sorted distinct labels and each row's index into them, as
    ``np.unique(cluster, return_inverse=True)`` gives them, sorting only the
    distinct labels; the unsorted labels and None when they do not order."""
    labels = list(dict.fromkeys(cluster))
    try:
        labels.sort()
    except TypeError:
        return labels, None
    index = {label: i for i, label in enumerate(labels)}
    return labels, np.fromiter(map(index.__getitem__, cluster), np.int64, cluster.shape[0])


def from_arrays(z, d1, d2, y, *, controls=None, control_names=(), cluster=None,
                column_names=(), warnings=(), copy=True) -> ObservationTable:
    """Build a validated table from in-memory arrays.

    The table stores ``z``, ``d1`` and ``d2`` as ``uint8``, ``y`` and the
    controls as ``float64`` and the cluster labels as objects, all read-only.
    By default it stores copies, so the caller's arrays stay writeable and
    unshared. With ``copy=False`` an input that already has its stored dtype
    and is contiguous is adopted and made read-only in place, which saves a
    copy for a caller that lets go of its arrays.

    Raises
    ------
    DataError
        If any table invariant fails; the message lists every finding.
    """
    take = np.array if copy else np.asarray  # np.array always copies
    z = np.asarray(z)
    d1 = np.asarray(d1)
    d2 = np.asarray(d2)
    y = take(y, dtype=float)
    if controls is None:
        controls = np.empty((z.shape[0], 0))
    controls = take(controls, dtype=float)
    if controls.ndim == 1:
        controls = controls[:, None]
    labels = codes = None
    if cluster is not None:
        cluster = take(cluster, dtype=object)
        if cluster.shape[0] == z.shape[0] and not np.equal(cluster, None).any():
            labels, codes = _factorise(cluster)

    errors = _validate_arrays(z, d1, d2, y, controls, cluster, labels, codes)
    if errors:
        raise DataError("; ".join(errors),
                        report=ValidationReport(tuple(errors), tuple(warnings)))

    table = ObservationTable(
        z=_freeze(z.astype(np.uint8, copy=copy)),
        d1=_freeze(d1.astype(np.uint8, copy=copy)),
        d2=_freeze(d2.astype(np.uint8, copy=copy)),
        y=_freeze(y),
        controls=_freeze(controls),
        control_names=tuple(control_names),
        cluster=None if cluster is None else _freeze(cluster),
        column_names=tuple(column_names),
        warnings=tuple(warnings),
        cluster_codes=None if codes is None else _freeze(codes),
        cluster_count=None if labels is None else len(labels),
    )
    return replace(table, warnings=table.warnings + tuple(_collect_warnings(table)))


def derive(table: ObservationTable) -> DerivedColumns:
    """Build the 13 columns of ``RESPONSES`` for every row at once.
    Deterministic and row-local; not cached, and not used by the fit."""
    return DerivedColumns.of(table.d1, table.d2, table.y)


def _check_delimiter(delimiter) -> None:
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ConfigError(f"delimiter must be one character, got {delimiter!r}")


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
    """Up to ``_CHUNK_ROWS`` records of a file, as a tokenizer split them."""

    column: Callable[[int], list[str]]  # the tokens at one position, "" past a row's end
    fields: Callable[[int], list[str]]  # every token of one record


class _Tokens(NamedTuple):
    """A file as a tokenizer splits it: its header (None for an empty file),
    its chunks of records, and ``settle``, which reads the rest of the file
    and raises :class:`_NotPlain` if that tokenizer could not have split it."""

    header: list[str] | None
    chunks: Iterator[_Chunk]
    settle: Callable[[], None]


class _NotPlain(Exception):
    """A piece of the file that the byte tokenizer does not take."""


def _source(path) -> Callable[[], BinaryIO]:
    """A function that opens the file at ``path`` as bytes, from its start,
    each time it is called. A pipe can be read only once, so it is held."""
    with open(path, "rb") as handle:
        if handle.seekable():
            return lambda: open(path, "rb")
        raw = handle.read()
    return lambda: io.BytesIO(raw)


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
                   lambda: None)


def _pieces(handle) -> Iterator[bytes]:
    """The rest of the binary file ``handle`` in pieces of ``_SCAN_BYTES``
    bytes, each extended to the end of its last line."""
    while piece := handle.read(_SCAN_BYTES) + handle.readline():
        yield piece


def _line_ends(piece: bytes, delimiter: str, width: int) -> np.ndarray:
    """Offsets of the line ends of ``piece``, which starts a line: its line
    feeds, then its size if its last line has none.

    Raises :class:`_NotPlain` unless ``piece`` is ASCII with no quote, no NUL
    and no carriage return outside a CRLF, and each of its lines has
    ``width`` fields and is shorter than ``csv.field_size_limit()``.
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
    return ends


def _token_chunk(lines: bytes, split: bytes, width: int) -> _Chunk:
    """The tokens of whole ``lines`` (without the last line feed), split at
    the bytes ``split`` maps to a line feed; of its own, so that each chunk
    keeps its own tokens and the bytes go as soon as they are split."""
    tokens = lines.translate(split, b"\r").decode("ascii").split("\n")
    return _Chunk(lambda p: tokens[p::width], lambda i: tokens[i * width:(i + 1) * width])


def _byte_tokens(handle, delimiter: str) -> _Tokens:
    """The records of the binary file ``handle``, split as bytes a piece at a
    time; each piece is checked by :func:`_line_ends` before it is split.

    ``csv.reader`` splits a file the same way when, after an optional BOM,
    its header line is not empty, the delimiter is ASCII and neither a
    quote, a NUL nor a line break, and each piece passes that check against
    the header's width. Raises :class:`_NotPlain` here, or while the chunks
    are read or the file is settled, at the first that does not.
    """
    if not delimiter.isascii() or delimiter in '"\0\r\n':
        raise _NotPlain
    pieces = _pieces(handle)
    first = next(pieces, b"").removeprefix(codecs.BOM_UTF8)
    if not first or first.startswith((b"\n", b"\r")):
        raise _NotPlain
    header_end = first.find(b"\n") if b"\n" in first else len(first)
    width = first.count(delimiter.encode(), 0, header_end) + 1
    checked = chain([(first, _line_ends(first, delimiter, width))],
                    ((piece, _line_ends(piece, delimiter, width)) for piece in pieces))
    split = bytes.maketrans(delimiter.encode(), b"\n")

    def chunks() -> Iterator[_Chunk]:
        first_line = 1  # line 0 of the first piece is the header
        for piece, ends in checked:
            for i in range(first_line, ends.size, _CHUNK_ROWS):
                stop = min(i + _CHUNK_ROWS, ends.size)
                yield _token_chunk(piece[ends[i - 1] + 1 if i else 0:ends[stop - 1]], split,
                                   width)
            first_line = 0

    def settle() -> None:
        for piece in pieces:
            _line_ends(piece, delimiter, width)

    header = first[:header_end].rstrip(b"\r").decode("ascii").split(delimiter)
    return _Tokens(header, chunks(), settle)


def _parse_columns(columns: list[list[str]], kinds, fields):
    """Parse one chunk, given the tokens of each mapped column.

    Returns the values of each mapped column over the kept rows (None when a
    kept token does not parse) and the mask of rows dropped for a missing
    value. Rows whose every field (``fields(i)``) is blank are neither kept
    nor dropped.
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
            column = np.array([tok.strip() for tok in col], dtype=object)
        else:
            column = _binary(col)
        if column is None:
            return None, missing
        values.append(column)
    return values, missing


def _token_error(fields, cols, kinds) -> DataError | None:
    """The error for the first token of a kept row that does not parse, if any."""
    for tok, name, kind in zip(fields, cols, kinds):
        if kind == "float" and _floats([tok]) is None:
            return DataError(f"could not parse numeric column '{name}': value {tok!r}")
        if kind in ("instrument", "treatment") and tok.strip() not in _BINARY:
            # Only 0/1: "true"/"false" are rejected to avoid silent coercion.
            return DataError(f"non-binary {kind} column '{name}': value {tok!r}")
    return None


def _raise_first_error(source, path, delimiter: str, positions, cols, kinds,
                       on_missing: str) -> None:
    """Rescan the file row by row with ``csv.reader`` and raise the error a
    columnar pass ran into: a missing value anywhere under
    ``on_missing="fail"``, else the first bad token of a kept row."""
    error = None
    with _csv_text(source()) as text:
        reader = csv.reader(text, delimiter=delimiter)
        next(reader)
        for rownum, row in enumerate(reader, start=2):
            fields = [row[i] if i < len(row) else "" for i in positions]
            if any(tok.strip().lower() in _MISSING_TOKENS for tok in fields):
                if on_missing == "fail" and any(tok.strip() for tok in row):
                    raise DataError(f"missing value at line {rownum} of {path}")
            elif error is None:
                error = _token_error(fields, cols, kinds)
            elif on_missing == "drop":
                break
    raise error


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
        Defaults to the identity mapping ``{"z": "z", ...}``.
    delimiter : str
        Field delimiter, one character; comma by default, tab selectable.
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
    applies to its tokens. The file is streamed: it is read in line-aligned
    pieces, and neither it nor its line offsets are ever held whole (a pipe,
    which can be read only once, is held). A plain file is split as bytes,
    which gives the same tokens faster. Any other file is read by
    ``csv.reader``, from its first byte: one that, after its BOM, has a
    non-ASCII byte, a quote, a NUL, a carriage return outside a CRLF, an
    empty header line, a line with more or fewer fields than the header, or
    a line as long as ``csv.field_size_limit()``. The table, or the error,
    does not depend on which piece shows that a file is not plain.
    """
    if on_missing not in ("drop", "fail"):
        raise ConfigError(f"unknown missing-data policy {on_missing!r}")
    _check_delimiter(delimiter)
    mapping = dict(DEFAULT_MAPPING) if mapping is None else dict(mapping)
    allowed = {"z", "d1", "d2", "y", "controls", "cluster"}
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown mapping keys: {sorted(unknown)}")
    for key in ("z", "d1", "d2", "y"):
        if key not in mapping:
            raise ConfigError(f"mapping is missing required key '{key}'")
    control_names = [str(c) for c in mapping.get("controls", []) or []]
    cluster_name = mapping.get("cluster")

    cols = [str(mapping[key]) for key in ("z", "d1", "d2", "y")] + control_names
    cols += [str(cluster_name)] if cluster_name else []
    kinds = ["instrument", "treatment", "treatment"] + ["float"] * (1 + len(control_names))
    kinds += ["cluster"] if cluster_name else []
    header, columns, dropped = _read_columns(path, delimiter, cols, kinds, on_missing)
    if not columns[0].size:
        raise DataError(f"no complete rows in {path}")
    z, d1, d2, y, *rest = columns
    del columns  # so that ``rest`` holds the only reference to each parsed control
    cluster = rest.pop() if cluster_name else None
    controls = np.empty((z.shape[0], len(rest))) if rest else None
    for j in range(len(rest)):
        # Let go of each parsed column once copied: the controls are held once.
        controls[:, j], rest[j] = rest[j], None
    return from_arrays(
        z, d1, d2, y, controls=controls,
        control_names=tuple(control_names), cluster=cluster, column_names=tuple(header),
        warnings=[f"dropped {dropped} row(s) with missing values"] if dropped else [],
        copy=False,
    )


def _read_columns(path, delimiter: str, cols: list[str], kinds: list[str], on_missing: str):
    """The stripped header of the file at ``path``, each column ``cols``
    (parsed as ``kinds``) over the kept rows, and the number of rows dropped
    for a missing value.

    The file is split as bytes while every piece of it is plain; the first
    piece that is not sends the whole file through ``csv.reader``.
    """
    try:
        source = _source(path)
        with source() as handle:
            line_feeds, returns = _line_breaks(handle)
            try:
                return _collect(_byte_tokens(handle, delimiter), line_feeds + 1, source, path,
                                delimiter, cols, kinds, on_missing)
            except _NotPlain:
                pass
        # Out of the handler, so that the byte path's columns are let go.
        with _csv_text(source()) as text:
            return _collect(_csv_tokens(text, delimiter), line_feeds + returns + 1, source, path,
                            delimiter, cols, kinds, on_missing)
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"unreadable file {path}: {exc}") from None


def _line_breaks(handle) -> tuple[int, int]:
    """The line feeds and the carriage returns of the binary file ``handle``,
    which is then rewound. A record ends at one of them or at the end of the
    file, so they bound the number of records."""
    line_feeds = returns = 0
    for piece in iter(lambda: handle.read(_SCAN_BYTES), b""):
        text = np.frombuffer(piece, np.uint8)
        line_feeds += np.count_nonzero(text == 10)
        returns += np.count_nonzero(text == 13)
    handle.seek(0)
    return line_feeds, returns


def _collect(tokens: _Tokens, records: int, source, path, delimiter: str, cols, kinds,
             on_missing: str):
    """:func:`_read_columns` of one tokenizer's records, at most ``records``.

    Each column is filled in place, so it is held once. Before it raises an
    error, it settles the rest of the file: the error stands only if the
    tokenizer could have split the whole file.
    """
    header, chunks, settle = tokens
    if header is None:
        raise DataError(f"file {path} is empty")
    header = [h.strip() for h in header]
    absent = [col for col in cols if col not in header]
    if absent:
        settle()
        raise ColumnMissingError(f"column(s) {absent} not found in {path}; header is {header}")
    positions = [header.index(col) for col in cols]
    columns = [np.empty(records, _DTYPES[kind]) for kind in kinds]
    kept = dropped = 0
    line = 2
    for tokens in chunks:
        chunk, missing = _parse_columns(list(map(tokens.column, positions)), kinds, tokens.fields)
        if on_missing == "fail" and missing.any():
            settle()
            raise DataError(f"missing value at line {line + int(np.argmax(missing))} of {path}")
        if chunk is None:
            settle()
            _raise_first_error(source, path, delimiter, positions, cols, kinds, on_missing)
        if kept + chunk[0].size > records:
            raise DataError(f"file {path} changed while it was read")
        for column, values in zip(columns, chunk):
            column[kept:kept + values.size] = values
        kept += chunk[0].size
        dropped += int(missing.sum())
        line += missing.size
        del tokens  # before the next chunk is split
    for column in columns:
        column.resize(kept, refcheck=False)  # in place: the array is not copied
    return header, columns, dropped


def _csv_fields(values, delimiter: str) -> dict[str, str]:
    """Each distinct string of ``values`` as ``csv.writer`` writes it in a field."""
    distinct = list(dict.fromkeys(values))
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter)
    writer.writerow(distinct)
    if buffer.getvalue() == delimiter.join(distinct) + "\r\n":
        return dict(zip(distinct, distinct))
    fields = {}
    for value in distinct:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([value])
        fields[value] = buffer.getvalue()[:-2]
    return fields


def save_table(table: ObservationTable, path, *, delimiter: str = ",") -> None:
    """Write a table in the delimited format :func:`load_table` reads.

    The bytes are those of ``csv.writer`` with its defaults: binary columns
    are written as ``0``/``1`` and reals with ``repr`` (the ``csv`` module's
    float format), so reloading reproduces every value bit-identically.
    Cluster labels are written with ``str`` and quoted when they contain the
    delimiter, a quote or a line break; lines end in CRLF. Control columns
    without names are headed ``x0``, ``x1``, ... Rows are written
    ``_CHUNK_ROWS`` at a time, each block as one string.
    """
    _check_delimiter(delimiter)
    names = ["z", "d1", "d2", "y"]
    names += list(table.control_names) or [f"x{j}" for j in range(table.controls.shape[1])]
    reals = [table.y, *table.controls.T]
    labels = None
    if table.cluster is not None:
        names.append("cluster")
        labels = _csv_fields(map(str, table.cluster), delimiter)
    # The (z, d1, d2) fields of a row, at 4*z + 2*d1 + d2.
    prefixes = [delimiter.join(bits) for bits in product("01", repeat=3)]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, delimiter=delimiter).writerow(names)
        for start in range(0, table.n, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            codes = 4 * table.z[rows] + 2 * table.d1[rows] + table.d2[rows]
            fields = [map(prefixes.__getitem__, codes.tolist())]
            fields += [map(repr, column[rows].tolist()) for column in reals]
            if labels is not None:
                fields.append(map(labels.__getitem__, map(str, table.cluster[rows])))
            handle.write("\r\n".join(map(delimiter.join, zip(*fields))))
            handle.write("\r\n")
