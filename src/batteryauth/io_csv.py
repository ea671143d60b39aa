"""CSV adapters for cycle and EIS data.

CSV is the only external data format. Column names are fixed lower-case,
comma-delimited, decimal point, UTF-8. Cycle files need ``voltage`` and
``capacity`` columns; EIS files need ``frequency``, ``z_real``, ``z_imag``.
All other columns are optional metadata; missing values fall back to the
``meta_defaults`` record supplied by the caller.

The writers emit every column the parsers understand, so
``parse(serialize(records))`` reproduces the records exactly.
"""
from __future__ import annotations

import csv
import io
from typing import List, Optional, Sequence

from .errors import MissingColumn, NonFiniteValue
from .records import (
    DEFAULT_MIN_CYCLE_LEN,
    DEFAULT_MIN_SWEEP_LEN,
    DEFAULT_MONOTONIC_TOL,
    CycleRecord,
    EisSpectrum,
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


def _parse_float(value: str, column: str, row_num: int) -> float:
    try:
        x = float(value)
    except ValueError:
        raise NonFiniteValue(f"row {row_num}: column {column!r} is not a number: {value!r}")
    if x != x or x in (float("inf"), float("-inf")):
        raise NonFiniteValue(f"row {row_num}: non-finite {column} value {value!r}")
    return x


def _parse_opt_float(value: Optional[str], column: str, row_num: int) -> Optional[float]:
    if value is None or value == "":
        return None
    return _parse_float(value, column, row_num)


def _parse_opt_int(value: Optional[str], column: str, row_num: int) -> Optional[int]:
    if value is None or value == "":
        return None
    try:
        x = float(value)
    except ValueError:
        raise NonFiniteValue(f"row {row_num}: column {column!r} is not an integer: {value!r}")
    if x != int(x):
        raise NonFiniteValue(f"row {row_num}: column {column!r} must be integral: {value!r}")
    return int(x)


def _reader(text: str, required: Sequence[str]):
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise MissingColumn("empty CSV: no header row")
    for col in required:
        if col not in reader.fieldnames:
            raise MissingColumn(f"CSV header lacks required column {col!r}")
    return reader


def _row_meta(row: dict, defaults: SampleMeta, row_num: int, cycle_index) -> SampleMeta:
    kwargs = {}
    for col in _META_STR_COLS:
        val = row.get(col)
        if val:
            kwargs[col] = val
    for col in _META_NUM_COLS:
        val = _parse_opt_float(row.get(col), col, row_num)
        if val is not None:
            kwargs[col] = val
    if cycle_index is not None:
        kwargs["cycle_index"] = cycle_index
    return defaults.with_overrides(**kwargs) if kwargs else defaults


def parse_cycle_csv(
    text: str,
    meta_defaults: SampleMeta = SampleMeta(),
    min_len: int = DEFAULT_MIN_CYCLE_LEN,
    monotonic_tol: float = DEFAULT_MONOTONIC_TOL,
) -> List[CycleRecord]:
    """Parse cycle rows into one CycleRecord per (cell_id, cycle_index, cycle_kind).

    Groups appear in first-row order; rows inside a group keep file order.
    Pass ``min_len=0`` to accept arbitrarily short cycles (test use only).
    """
    reader = _reader(text, _CYCLE_REQUIRED)
    groups: dict = {}
    for row_num, row in enumerate(reader, start=2):
        v = _parse_float(row["voltage"], "voltage", row_num)
        q = _parse_float(row["capacity"], "capacity", row_num)
        cycle_index = _parse_opt_int(row.get("cycle_index"), "cycle_index", row_num)
        kind = row.get("cycle_kind") or "charge"
        meta = _row_meta(row, meta_defaults, row_num, cycle_index)
        key = (meta.cell_id, cycle_index, kind)
        if key not in groups:
            groups[key] = (meta, kind, [], [])
        groups[key][2].append(v)
        groups[key][3].append(q)
    records = []
    for meta, kind, volts, caps in groups.values():
        rec = make_cycle(volts, caps, cycle_kind=kind, meta=meta)
        records.append(validate_cycle(rec, min_len=min_len, monotonic_tol=monotonic_tol))
    return records


def parse_eis_csv(
    text: str,
    meta_defaults: SampleMeta = SampleMeta(),
    min_len: int = DEFAULT_MIN_SWEEP_LEN,
) -> List[EisSpectrum]:
    """Parse EIS rows into one EisSpectrum per sweep (grouped by sweep_id).

    Without a ``sweep_id`` column, grouping falls back to (cell_id,
    cycle_index). Rows within a sweep are sorted by ascending frequency.
    """
    reader = _reader(text, _EIS_REQUIRED)
    groups: dict = {}
    for row_num, row in enumerate(reader, start=2):
        f = _parse_float(row["frequency"], "frequency", row_num)
        zr = _parse_float(row["z_real"], "z_real", row_num)
        zi = _parse_float(row["z_imag"], "z_imag", row_num)
        cycle_index = _parse_opt_int(row.get("cycle_index"), "cycle_index", row_num)
        meta = _row_meta(row, meta_defaults, row_num, cycle_index)
        sweep = row.get("sweep_id") or ""
        key = (sweep, meta.cell_id, cycle_index)
        if key not in groups:
            groups[key] = (meta, [], [], [])
        groups[key][1].append(f)
        groups[key][2].append(zr)
        groups[key][3].append(zi)
    spectra = []
    for meta, freqs, res, ims in groups.values():
        spec = make_spectrum(freqs, res, ims, meta=meta)
        spectra.append(validate_spectrum(spec, min_len=min_len))
    return spectra


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_cycle_csv(records: Sequence[CycleRecord]) -> str:
    """Serialize cycles to the canonical CSV schema (one row per sample)."""
    out = io.StringIO()
    cols = list(_META_STR_COLS) + ["cycle_index", "cycle_kind"] + list(_META_NUM_COLS) + [
        "voltage",
        "capacity",
    ]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cols)
    for rec in records:
        m = rec.meta
        head = [m.dataset_id, m.cell_id, m.battery_model, m.architecture,
                _fmt(m.cycle_index), rec.cycle_kind,
                _fmt(m.soc_percent), _fmt(m.soh_percent), _fmt(m.temperature_c)]
        for v, q in zip(rec.voltage, rec.capacity):
            writer.writerow(head + [repr(float(v)), repr(float(q))])
    return out.getvalue()


def write_eis_csv(spectra: Sequence[EisSpectrum]) -> str:
    """Serialize sweeps to the canonical EIS CSV schema."""
    out = io.StringIO()
    cols = ["sweep_id"] + list(_META_STR_COLS) + ["cycle_index"] + list(_META_NUM_COLS) + [
        "frequency",
        "z_real",
        "z_imag",
    ]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cols)
    for i, spec in enumerate(spectra):
        m = spec.meta
        head = [f"s{i:05d}", m.dataset_id, m.cell_id, m.battery_model, m.architecture,
                _fmt(m.cycle_index), _fmt(m.soc_percent), _fmt(m.soh_percent), _fmt(m.temperature_c)]
        for f, zr, zi in zip(spec.frequency, spec.z_real, spec.z_imag):
            writer.writerow(head + [repr(float(f)), repr(float(zr)), repr(float(zi))])
    return out.getvalue()
