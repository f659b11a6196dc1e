"""Observational data: ingestion, validation, and derived treatment columns.

The estimation input is a rectangular table with a binary instrument ``z``,
binary enrollment indicators ``d1`` and ``d2`` for the first and second part
of a two-part treatment, a real-valued outcome ``y``, optional real control
columns, and an optional cluster label. Everything downstream consumes
composite columns derived row-locally from these five ingredients:

==============  =============================
``d_and``       ``d1 * d2`` (both parts)
``d_or``        ``d1 + d2 - d1*d2`` (at least one part)
``d_sum``       ``d1 + d2`` (multivalued count)
``g_or``        ``d_or - d2``
``g_and``       ``d_and - d2``
``gy_or``       ``(d_or - d2) * y``
``gy_and``      ``(d_and - d2) * y``
``dand_y``      ``d_and * y``
``untreated_y`` ``(1 - d1) * (1 - d2) * y``
``kernel_y``    ``(1 - d1 - d2 + 2*d1*d2) * y``
==============  =============================

``cluster_codes`` holds each row's cluster label as an ``int64`` index into
the sorted distinct labels (the inverse of ``np.unique(cluster)``), computed
once by :func:`from_arrays`; ``cluster_count`` is their number. The fits
receive the codes, which give the same per-cluster sums as the labels.

Tables are immutable after construction. Each instance also keeps a cache,
outside its dataclass fields, of values that are pure functions of its
columns: the derived columns (computed once, by :func:`from_arrays`) and
the estimates the analysis functions memoize by key, so that each fit runs
once per table. A table made by ``dataclasses.replace`` starts with an
empty cache. Tables are safe to share across threads: two threads may
compute the same cache entry at once, and both see equal values.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from itertools import compress, count, islice
from operator import itemgetter
from typing import Mapping

import numpy as np

from .exceptions import ColumnMissingError, ConfigError, DataError

DEFAULT_MAPPING = {"z": "z", "d1": "d1", "d2": "d2", "y": "y"}

# Tokens treated as a missing value when reading delimited text.
_MISSING_TOKENS = {"", ".", "na", "nan"}

_BINARY = {"0", "1"}

# Rows read and transposed into columns at a time by load_table.
_CHUNK_ROWS = 1 << 16

_DERIVED_NAMES = (
    "d_and", "d_or", "d_sum", "g_or", "g_and",
    "gy_or", "gy_and", "dand_y", "untreated_y", "kernel_y",
)


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

    @property
    def derived(self) -> DerivedColumns:
        """The derived columns of this table, computed once."""
        return self.cached("derived", lambda: derive(self))

    def column(self, name: str) -> np.ndarray:
        """``d1`` or ``d2`` as floats, ``y``, or a derived column, by name."""
        if name in ("d1", "d2"):
            return getattr(self, name).astype(float)
        return self.y if name == "y" else self.derived.column(name)


@dataclass(frozen=True)
class DerivedColumns:
    """All composite regressands, derived row-locally from a table."""

    d_and: np.ndarray
    d_or: np.ndarray
    d_sum: np.ndarray
    g_or: np.ndarray
    g_and: np.ndarray
    gy_or: np.ndarray
    gy_and: np.ndarray
    dand_y: np.ndarray
    untreated_y: np.ndarray
    kernel_y: np.ndarray

    def column(self, name: str) -> np.ndarray:
        if name not in _DERIVED_NAMES:
            raise KeyError(f"unknown derived column {name!r}")
        return getattr(self, name)


def _validate_arrays(z, d1, d2, y, controls, cluster, labels) -> list[str]:
    # ``labels`` are the distinct cluster labels, None when some label is None.
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
    bad_z = ~np.isin(z, (0, 1))
    if bad_z.any():
        errors.append(f"non-binary instrument column 'z': value {z[bad_z][0]!r}")
    for name, col in (("d1", d1), ("d2", d2)):
        bad = ~np.isin(col, (0, 1))
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
    return errors


def _collect_warnings(table: ObservationTable) -> list[str]:
    warnings: list[str] = []
    for arm in (0, 1):
        size = int(np.sum(table.z == arm))
        if size < 2:
            warnings.append(f"tiny instrument arm: only {size} row(s) with z={arm}")
    if table.cluster_count == table.n:
        warnings.append("every cluster is a singleton; clustering is equivalent to HC1")
    for name in ("d_and", "d_or", "d_sum", "g_or", "g_and"):
        if np.ptp(table.derived.column(name)) == 0:
            warnings.append(f"derived column '{name}' is constant")
    return warnings


def from_arrays(z, d1, d2, y, *, controls=None, control_names=(), cluster=None,
                column_names=(), warnings=()) -> ObservationTable:
    """Build a validated table from in-memory arrays.

    Raises
    ------
    DataError
        If any table invariant fails; the message lists every finding.
    """
    z = np.asarray(z)
    d1 = np.asarray(d1)
    d2 = np.asarray(d2)
    y = np.asarray(y, dtype=float)
    if controls is None:
        controls = np.empty((z.shape[0], 0))
    controls = np.asarray(controls, dtype=float)
    if controls.ndim == 1:
        controls = controls[:, None]
    labels = codes = None
    if cluster is not None:
        cluster = np.asarray(cluster, dtype=object)
        if cluster.shape[0] == z.shape[0] and not np.equal(cluster, None).any():
            labels, codes = np.unique(cluster, return_inverse=True)

    errors = _validate_arrays(z, d1, d2, y, controls, cluster, labels)
    if errors:
        raise DataError("; ".join(errors),
                        report=ValidationReport(tuple(errors), tuple(warnings)))

    table = ObservationTable(
        z=_freeze(z.astype(np.int64)),
        d1=_freeze(d1.astype(np.int64)),
        d2=_freeze(d2.astype(np.int64)),
        y=_freeze(y),
        controls=_freeze(controls),
        control_names=tuple(control_names),
        cluster=None if cluster is None else _freeze(cluster),
        column_names=tuple(column_names),
        warnings=tuple(warnings),
        cluster_codes=None if codes is None else _freeze(codes.astype(np.int64)),
        cluster_count=None if labels is None else int(labels.size),
    )
    result = replace(table, warnings=table.warnings + tuple(_collect_warnings(table)))
    # Same columns, fresh cache: hand over the derived columns computed above.
    result.cached("derived", lambda: table.derived)
    return result


def derive(table: ObservationTable) -> DerivedColumns:
    """Compute all composite columns. Deterministic and row-local."""
    d1 = table.d1.astype(float)
    d2 = table.d2.astype(float)
    y = table.y
    d_and = d1 * d2
    d_or = d1 + d2 - d_and
    g_or = d_or - d2
    g_and = d_and - d2
    return DerivedColumns(
        d_and=_freeze(d_and),
        d_or=_freeze(d_or),
        d_sum=_freeze(d1 + d2),
        g_or=_freeze(g_or),
        g_and=_freeze(g_and),
        gy_or=_freeze(g_or * y),
        gy_and=_freeze(g_and * y),
        dand_y=_freeze(d_and * y),
        untreated_y=_freeze((1 - d1) * (1 - d2) * y),
        kernel_y=_freeze((1 - d1 - d2 + 2 * d_and) * y),
    )


def _floats(tokens) -> np.ndarray | None:
    """Tokens parsed by Python's ``float`` grammar; None if any does not parse."""
    try:
        return np.array(tokens, dtype=float)
    except ValueError:
        return None


def _binary(tokens) -> np.ndarray | None:
    """``0``/``1`` tokens, surrounding whitespace allowed, as int64; None if any other."""
    if not set(tokens) <= _BINARY:
        tokens = [tok.strip() for tok in tokens]
        if not set(tokens) <= _BINARY:
            return None
    return np.frombuffer("".join(tokens).encode(), np.uint8).astype(np.int64) - 48


def _missing(tokens, values: np.ndarray | None) -> np.ndarray:
    """Mask of one column's missing tokens; given its floats, only NaNs are checked."""
    if values is not None:
        mask = np.isnan(values)
        mask[mask] = [tokens[i].strip().lower() in _MISSING_TOKENS for i in np.flatnonzero(mask)]
        return mask
    blank = {tok for tok in set(tokens) if tok.strip().lower() in _MISSING_TOKENS}
    return (np.fromiter(map(blank.__contains__, tokens), bool, len(tokens)) if blank
            else np.zeros(len(tokens), dtype=bool))


def _parse_rows(rows, positions, kinds):
    """Parse one chunk of records column by column.

    Returns the values of each mapped column over the kept rows (None when a
    kept token does not parse) and the mask of rows dropped for a missing
    value. Rows whose every field is blank are neither kept nor dropped.
    """
    width = max(positions) + 1
    if min(map(len, rows)) < width:
        rows = [row + [""] * (width - len(row)) for row in rows]
    tokens = {p: list(map(itemgetter(p), rows)) for p in positions}
    floats = {p: _floats(tokens[p]) for p, kind in zip(positions, kinds) if kind == "float"}
    missing = np.logical_or.reduce([_missing(tokens[p], floats.get(p)) for p in tokens])
    if missing.any():
        keep = ~missing
        blank = [i for i in np.flatnonzero(missing) if not any(t.strip() for t in rows[i])]
        missing[blank] = False
        tokens = {p: list(compress(col, keep)) for p, col in tokens.items()}
        floats = {p: None if v is None else v[keep] for p, v in floats.items()}
    values = []
    for p, kind in zip(positions, kinds):
        if kind == "float":
            column = _floats(tokens[p]) if floats[p] is None else floats[p]
        elif kind == "cluster":
            column = np.array([tok.strip() for tok in tokens[p]], dtype=object)
        else:
            column = _binary(tokens[p])
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


def _raise_first_error(reader, positions, cols, kinds, on_missing: str, path) -> None:
    """Rescan row by row and raise the error a columnar pass ran into: a missing
    value anywhere under ``on_missing="fail"``, else the first bad token of a kept row."""
    error = None
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
        Field delimiter; comma by default, tab selectable.
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
    """
    if on_missing not in ("drop", "fail"):
        raise ConfigError(f"unknown missing-data policy {on_missing!r}")
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

    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            header = next(reader, None)
            if header is None:
                raise DataError(f"file {path} is empty")
            header = [h.strip() for h in header]
            cols = [str(mapping[key]) for key in ("z", "d1", "d2", "y")] + control_names
            cols += [str(cluster_name)] if cluster_name else []
            absent = [col for col in cols if col not in header]
            if absent:
                raise ColumnMissingError(
                    f"column(s) {absent} not found in {path}; header is {header}")
            positions = [header.index(col) for col in cols]
            kinds = ["instrument", "treatment", "treatment"] + ["float"] * (1 + len(control_names))
            kinds += ["cluster"] if cluster_name else []

            parts: list[list] = []
            dropped = 0
            for start in count(2, _CHUNK_ROWS):
                rows = list(islice(reader, _CHUNK_ROWS))
                if not rows:
                    break
                chunk, missing = _parse_rows(rows, positions, kinds)
                if on_missing == "fail" and missing.any():
                    line = start + int(np.argmax(missing))
                    raise DataError(f"missing value at line {line} of {path}")
                dropped += int(missing.sum())
                if chunk is None:
                    handle.seek(0)
                    reader = csv.reader(handle, delimiter=delimiter)
                    next(reader)
                    _raise_first_error(reader, positions, cols, kinds, on_missing, path)
                parts.append(chunk)
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"unreadable file {path}: {exc}") from None

    if not sum(len(chunk[0]) for chunk in parts):
        raise DataError(f"no complete rows in {path}")
    z, d1, d2, y, *rest = (np.concatenate(column) for column in zip(*parts))
    cluster = rest.pop() if cluster_name else None
    return from_arrays(
        z, d1, d2, y, controls=np.column_stack(rest) if rest else None,
        control_names=tuple(control_names), cluster=cluster, column_names=tuple(header),
        warnings=[f"dropped {dropped} row(s) with missing values"] if dropped else [],
    )


def save_table(table: ObservationTable, path, *, delimiter: str = ",") -> None:
    """Write a table in the delimited format :func:`load_table` reads.

    Binary columns are written as ``0``/``1`` and reals with ``repr`` (the
    ``csv`` module's float format), so reloading reproduces every value
    bit-identically. Cluster labels are written with ``str`` and quoted
    when they contain the delimiter, a quote or a line break; lines end in
    CRLF. Control columns without names are headed ``x0``, ``x1``, ...
    """
    names = ["z", "d1", "d2", "y"]
    names += list(table.control_names) or [f"x{j}" for j in range(table.controls.shape[1])]
    columns = [table.z.tolist(), table.d1.tolist(), table.d2.tolist(), table.y.tolist(),
               *table.controls.T.tolist()]
    if table.cluster is not None:
        names.append("cluster")
        columns.append(map(str, table.cluster))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(names)
        writer.writerows(zip(*columns))
