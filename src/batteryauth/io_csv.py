"""CSV adapters for cycle and EIS data.

CSV is the only external data format. Column names are fixed lower-case,
comma-delimited, decimal point, UTF-8. Cycle files need ``voltage`` and
``capacity`` columns; EIS files need ``frequency``, ``z_real``, ``z_imag``.
All other columns are optional metadata; missing values fall back to the
``meta_defaults`` record supplied by the caller.

Both writers go through one row writer and emit every column the
parsers understand, so ``parse(serialize(records))`` reproduces the
records exactly. The parsers check records with the ``records``
validators; ``min_len`` is the one limit a caller can relax.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import replace
from typing import List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from .errors import MalformedCsv, MissingColumn, NonFiniteValue
from .records import (
    DEFAULT_MIN_CYCLE_LEN,
    DEFAULT_MIN_SWEEP_LEN,
    CycleRecord,
    EisSpectrum,
    Record,
    SampleMeta,
    make_cycle,
    make_spectrum,
    validate_cycle,
    validate_spectrum,
)

_CYCLE_REQUIRED = ("voltage", "capacity")
_EIS_REQUIRED = ("frequency", "z_real", "z_imag")
_META_STR_COLS = ("dataset_id", "cell_id", "battery_model", "architecture")
_META_NUM_COLS = ("soc_percent", "soh_percent", "temperature_c")
# every column that shapes a record's meta or its group key
_META_COLS = _META_STR_COLS + _META_NUM_COLS + ("cycle_index",)
# rows read per block; kept below the collector's first threshold (700)
_BLOCK_ROWS = 256


def _parse_float(value: Optional[str], column: str, row_num: int) -> float:
    if value is None:
        raise MissingColumn(f"row {row_num}: no {column} value (the row is shorter than the header)")
    try:
        x = float(value)
    except ValueError:
        raise NonFiniteValue(f"row {row_num}: column {column!r} is not a number: {value!r}")
    if not math.isfinite(x):
        raise NonFiniteValue(f"row {row_num}: non-finite {column} value {value!r}")
    return x


def _parse_opt_int(value: Optional[str], column: str, row_num: int) -> Optional[int]:
    if value is None or value == "":
        return None
    try:
        x = float(value)
    except ValueError:
        raise NonFiniteValue(f"row {row_num}: column {column!r} is not an integer: {value!r}")
    if not math.isfinite(x):
        raise NonFiniteValue(f"row {row_num}: non-finite {column} value {value!r}")
    if x != int(x):
        raise NonFiniteValue(f"row {row_num}: column {column!r} must be integral: {value!r}")
    return int(x)


def _read_columns(text: str, required: Sequence[str], wanted: Sequence[str]) -> Tuple[int, dict]:
    """Check the header, then read the data rows once and transpose them.

    Returns the row count and {name: column} for every required or wanted
    column the header has. As with ``csv.DictReader``, blank lines are
    skipped, the last of duplicate column names wins, and a row shorter
    than the header reads None where it has no field. A line the csv
    module cannot read (say, a field over ``csv.field_size_limit()``)
    raises MalformedCsv with its line number.

    Rows are read and transposed ``_BLOCK_ROWS`` at a time. Each row is a
    list the cyclic garbage collector tracks: a whole file's rows held at
    once would set off collections mid-parse, now and then a full one over
    the whole heap, and a call's time would hang on what the process had
    allocated before it.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise MissingColumn("empty CSV: no header row")
        for col in required:
            if col not in header:
                raise MissingColumn(f"CSV header lacks required column {col!r}")
        width = len(header)
        position = {name: i for i, name in enumerate(header)}
        columns = {c: [] for c in (*required, *wanted) if c in position}
        n = 0
        nonblank = filter(None, reader)
        for rows in iter(lambda: list(itertools.islice(nonblank, _BLOCK_ROWS)), []):
            if min(map(len, rows)) < width:
                rows = [row + [None] * (width - len(row)) for row in rows]
            table = list(zip(*rows))
            for c, column in columns.items():
                column.extend(table[position[c]])
            n += len(rows)
    except csv.Error as exc:
        raise MalformedCsv(f"line {reader.line_num}: {exc}") from exc
    return n, columns


def _float_columns(columns: dict, names: Sequence[str]) -> Optional[List[np.ndarray]]:
    """The named columns as float arrays, or None if any value is missing,
    not a number or not finite."""
    try:
        arrays = [np.array(list(map(float, columns[c]))) for c in names]
    except (TypeError, ValueError):
        return None
    return arrays if all(np.isfinite(a).all() for a in arrays) else None


def _fields_meta(fields: dict, defaults: SampleMeta, row_num: int) -> Tuple[SampleMeta, Optional[int]]:
    """The meta and the cycle index that one row's metadata fields give."""
    cycle_index = _parse_opt_int(fields.get("cycle_index"), "cycle_index", row_num)
    # an empty or absent field keeps the default
    kwargs = {col: fields[col] for col in _META_STR_COLS if fields.get(col)}
    for col in _META_NUM_COLS:
        if fields.get(col):
            kwargs[col] = _parse_float(fields[col], col, row_num)
    if cycle_index is not None:
        kwargs["cycle_index"] = cycle_index
    return (replace(defaults, **kwargs) if kwargs else defaults), cycle_index


def _raise_first_error(columns: dict, numeric: Sequence[str], n: int) -> NoReturn:
    """Raise the error a row-by-row parse meets first: rows in file order;
    in a row the numeric columns, then cycle_index, then the numeric meta."""
    optional = [c for c in ("cycle_index",) + _META_NUM_COLS if c in columns]
    for i in range(n):
        row_num = i + 2
        for col in numeric:
            _parse_float(columns[col][i], col, row_num)
        _fields_meta({c: columns[c][i] for c in optional}, SampleMeta(), row_num)
    raise AssertionError("the row check accepted rows the column parse rejected")


def _read_groups(
    text: str, numeric: Sequence[str], grouping: Sequence[str], defaults: SampleMeta, key_of
) -> List[Tuple[tuple, SampleMeta, List[np.ndarray]]]:
    """Parse the rows and gather them into records.

    Rows with the same metadata fields share one meta, built once.
    ``key_of(fields, meta, cycle_index)`` names each row's record. Records
    appear in first-row order with their first row's meta; rows inside a
    record keep file order. Returns (key, meta, numeric arrays) per record.
    """
    n, columns = _read_columns(text, numeric, _META_COLS + tuple(grouping))
    if n == 0:
        return []
    names = [c for c in _META_COLS + tuple(grouping) if c in columns]
    # rows are told apart by the metadata columns that vary; each row maps
    # to the first row with the same fields
    varying = [columns[c] for c in names if len(set(columns[c])) > 1]
    first_row: dict = {}
    if varying:
        ids = [first_row.setdefault(t, i) for i, t in enumerate(zip(*varying))]
    else:
        first_row, ids = {(): 0}, [0] * n
    firsts = list(first_row.values())
    fields = [{c: columns[c][r] for c in names} for r in firsts]
    arrays = _float_columns(columns, numeric)
    try:
        metas = [_fields_meta(f, defaults, r + 2) for f, r in zip(fields, firsts)]
    except NonFiniteValue:
        metas = None
    if arrays is None or metas is None:
        _raise_first_error(columns, numeric, n)

    group_ids: dict = {}
    heads = []
    group_at = np.zeros(n, dtype=int)
    for r, f, (meta, cycle_index) in zip(firsts, fields, metas):
        key = key_of(f, meta, cycle_index)
        g = group_ids.setdefault(key, len(group_ids))
        if g == len(heads):
            heads.append((key, meta))
        group_at[r] = g
    row_group = group_at[ids]
    order = np.argsort(row_group, kind="stable")
    bounds = np.cumsum(np.bincount(row_group))[:-1]
    parts = [np.split(a[order], bounds) for a in arrays]
    return [(key, meta, [p[g] for p in parts]) for g, (key, meta) in enumerate(heads)]


def parse_cycle_csv(
    text: str,
    meta_defaults: SampleMeta = SampleMeta(),
    min_len: int = DEFAULT_MIN_CYCLE_LEN,
) -> List[CycleRecord]:
    """Parse cycle rows into one CycleRecord per (cell_id, cycle_index, cycle_kind).

    Groups appear in first-row order; rows inside a group keep file order.
    Pass ``min_len=0`` to accept arbitrarily short cycles (test use only).
    """
    groups = _read_groups(
        text, _CYCLE_REQUIRED, ("cycle_kind",), meta_defaults,
        lambda fields, meta, cycle_index: (
            meta.cell_id, cycle_index, fields.get("cycle_kind") or "charge"),
    )
    return [validate_cycle(make_cycle(volts, caps, cycle_kind=kind, meta=meta), min_len=min_len)
            for (_, _, kind), meta, (volts, caps) in groups]


def parse_eis_csv(
    text: str,
    meta_defaults: SampleMeta = SampleMeta(),
    min_len: int = DEFAULT_MIN_SWEEP_LEN,
) -> List[EisSpectrum]:
    """Parse EIS rows into one EisSpectrum per sweep (grouped by sweep_id).

    Without a ``sweep_id`` column, grouping falls back to (cell_id,
    cycle_index). Rows within a sweep are sorted by ascending frequency.
    """
    groups = _read_groups(
        text, _EIS_REQUIRED, ("sweep_id",), meta_defaults,
        lambda fields, meta, cycle_index: (
            fields.get("sweep_id") or "", meta.cell_id, cycle_index),
    )
    return [validate_spectrum(make_spectrum(freqs, res, ims, meta=meta), min_len=min_len)
            for _, meta, (freqs, res, ims) in groups]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(records: Sequence[Record], head: Sequence[str], numeric: Sequence[str]) -> str:
    """The header, then one row per sample. A ``head`` field is the
    record's meta entry or ``cycle_kind`` of that name; ``sweep_id`` is
    the record's position. A ``numeric`` field is the sample of the
    record's array of that name, written with ``repr``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([*head, *numeric])
    for i, rec in enumerate(records):
        named = {**vars(rec.meta), "cycle_kind": getattr(rec, "cycle_kind", None), "sweep_id": f"s{i:05d}"}
        lead = [_fmt(named[c]) for c in head]
        columns = [map(repr, np.asarray(getattr(rec, c), dtype=float).tolist()) for c in numeric]
        writer.writerows([*lead, *sample] for sample in zip(*columns))
    return out.getvalue()


def write_cycle_csv(records: Sequence[CycleRecord]) -> str:
    """Serialize cycles to the canonical CSV schema (one row per sample)."""
    head = (*_META_STR_COLS, "cycle_index", "cycle_kind", *_META_NUM_COLS)
    return _write_csv(records, head, _CYCLE_REQUIRED)


def write_eis_csv(spectra: Sequence[EisSpectrum]) -> str:
    """Serialize sweeps to the canonical EIS CSV schema."""
    head = ("sweep_id", *_META_STR_COLS, "cycle_index", *_META_NUM_COLS)
    return _write_csv(spectra, head, _EIS_REQUIRED)
