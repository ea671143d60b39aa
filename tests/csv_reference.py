"""Row-by-row reference for the CSV parsers in ``batteryauth.io_csv``.

This is the parser the package shipped before its columnar rewrite: one
``csv.DictReader`` pass that builds each row's meta on its own. It
differs from that code only where the old code let stray exceptions out:
a row shorter than the header raises ``MissingColumn`` and a non-finite
``cycle_index`` raises ``NonFiniteValue``, both with the row number, as
the columnar parser does. The equivalence tests hold the columnar parser
to it record for record and error for error.
"""
import csv
import io
import math
from dataclasses import replace

from batteryauth.errors import MissingColumn, NonFiniteValue
from batteryauth.records import (
    DEFAULT_MIN_CYCLE_LEN,
    DEFAULT_MIN_SWEEP_LEN,
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


def _parse_float(value, column, row_num):
    if value is None:
        raise MissingColumn(f"row {row_num}: no {column} value (the row is shorter than the header)")
    try:
        x = float(value)
    except ValueError:
        raise NonFiniteValue(f"row {row_num}: column {column!r} is not a number: {value!r}")
    if x != x or x in (float("inf"), float("-inf")):
        raise NonFiniteValue(f"row {row_num}: non-finite {column} value {value!r}")
    return x


def _parse_opt_float(value, column, row_num):
    if value is None or value == "":
        return None
    return _parse_float(value, column, row_num)


def _parse_opt_int(value, column, row_num):
    if value is None or value == "":
        return None
    try:
        x = float(value)
    except ValueError:
        raise NonFiniteValue(f"row {row_num}: column {column!r} is not an integer: {value!r}")
    if math.isnan(x) or math.isinf(x):
        raise NonFiniteValue(f"row {row_num}: non-finite {column} value {value!r}")
    if x != int(x):
        raise NonFiniteValue(f"row {row_num}: column {column!r} must be integral: {value!r}")
    return int(x)


def _reader(text, required):
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise MissingColumn("empty CSV: no header row")
    for col in required:
        if col not in reader.fieldnames:
            raise MissingColumn(f"CSV header lacks required column {col!r}")
    return reader


def _row_meta(row, defaults, row_num, cycle_index):
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
    return replace(defaults, **kwargs) if kwargs else defaults


def parse_cycle_csv(text, meta_defaults=SampleMeta(), min_len=DEFAULT_MIN_CYCLE_LEN):
    reader = _reader(text, _CYCLE_REQUIRED)
    groups = {}
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
        records.append(validate_cycle(rec, min_len=min_len))
    return records


def parse_eis_csv(text, meta_defaults=SampleMeta(), min_len=DEFAULT_MIN_SWEEP_LEN):
    reader = _reader(text, _EIS_REQUIRED)
    groups = {}
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
