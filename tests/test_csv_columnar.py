"""The columnar CSV parsers against the row-by-row reference.

``csv_reference`` holds the parser the package shipped before the
columnar rewrite. A seeded fuzz builds CSV texts with interleaved groups,
metadata that varies inside a group, missing and duplicated columns,
blank lines, short and long rows and bad values at varying rows; on each
the two parsers must return equal records or raise the same error type
with the same message.
"""
import csv
import gc
import random

import pytest

import csv_reference
from reference import records_equal
from batteryauth import io_csv
from batteryauth.errors import BatteryAuthError, MalformedCsv, MissingColumn, NonFiniteValue
from batteryauth.io_csv import parse_cycle_csv, parse_eis_csv
from batteryauth.records import SampleMeta

_META = ("dataset_id", "cell_id", "battery_model", "architecture",
         "soc_percent", "soh_percent", "temperature_c", "cycle_index")
_BAD_NUMBERS = ("abc", "nan", "inf", "-inf", "1e400", "", " ", "1.2.3")
_BAD_INDICES = ("abc", "nan", "inf", "1e400", "-1e400", "2.5", "0x1")


def _outcome(parse, text, **kwargs):
    try:
        return "ok", parse(text, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return "error", (type(exc), str(exc))


def _number(rng, value):
    style = rng.random()
    if style < 0.6:
        return repr(value)
    if style < 0.8:
        return f"{value:.6g}"
    if style < 0.9:
        return f"{value:e}"
    return f" {value!r} "


def _fuzz_text(rng, pipeline):
    numeric = ["voltage", "capacity"] if pipeline == "dca" else ["frequency", "z_real", "z_imag"]
    extra = ["cycle_kind"] if pipeline == "dca" else ["sweep_id"]
    columns = numeric + [c for c in _META + tuple(extra) if rng.random() < 0.7]
    if rng.random() < 0.2:
        columns.append("comment")
    rng.shuffle(columns)
    if rng.random() < 0.05:
        columns.remove(rng.choice(numeric))             # a required column is missing
    dup = None
    if rng.random() < 0.2:
        dup = rng.choice(columns)
        columns.insert(rng.randrange(len(columns) + 1), dup)   # the last one wins
    noisy = rng.random() < 0.4                           # bad values, short rows
    fault = 0.1 if noisy else 0.0
    groups = []
    for g in range(rng.randint(1, 4)):
        groups.append({
            "dataset_id": rng.choice(["d1", "d2", ""]),
            "cell_id": rng.choice(["c1", "c2", "c3", ""]),
            "battery_model": rng.choice(["alpha", "bravo", ""]),
            "architecture": rng.choice(["ox", "ol", ""]),
            "soc_percent": rng.choice(["", "50", "75.5"]),
            "soh_percent": rng.choice(["", "90", "99.25"]),
            "temperature_c": rng.choice(["", "25", "-5.5"]),
            "cycle_index": rng.choice(["", str(g), f"{g}.0", f"{g}e0"]),
            "cycle_kind": rng.choice(["charge", "discharge", "", "bogus" if noisy else "charge"]),
            "sweep_id": rng.choice(["", f"s{g}", f"s{g % 2}"]),
        })
    n_rows = rng.randint(0, 40)
    lines = [",".join(columns)]
    if rng.random() < 0.03:
        lines.insert(0, "")                              # blank line as the header
    for i in range(n_rows):
        fields = dict(rng.choice(groups))
        if rng.random() < 0.1:                           # meta varies inside a group
            col = rng.choice(_META[:7])
            fields[col] = rng.choice(["x9", "12.5", ""])
        # charge groups rise and discharge groups fall in file order
        cap = 0.01 * i if fields["cycle_kind"] != "discharge" else 10.0 - 0.01 * i
        fields.update(voltage=_number(rng, 3.0 + rng.random()),
                      capacity=_number(rng, cap),
                      frequency=_number(rng, (-1.0 if rng.random() < fault / 2 else 1.0)
                                        * 10 ** rng.uniform(-2, 4)),
                      z_real=_number(rng, rng.random()),
                      z_imag=_number(rng, -rng.random()),
                      comment="note")
        if rng.random() < fault:
            col = rng.choice(numeric + ["soc_percent", "soh_percent", "temperature_c"])
            fields[col] = rng.choice(_BAD_NUMBERS)
        if rng.random() < fault:
            fields["cycle_index"] = rng.choice(_BAD_INDICES)
        row = [fields.get(c, "?") for c in columns]
        if dup is not None and rng.random() < 0.5:
            row[columns.index(dup)] = "shadowed"         # only the last duplicate is read
        if rng.random() < fault / 2:
            row = row[: rng.randrange(len(row))]         # short row
        elif rng.random() < 0.1:
            row += ["spare"] * rng.randint(1, 3)         # long row
        lines.append(",".join(row))
        if rng.random() < 0.05:
            lines.append("")                             # blank line between rows
    return "\n".join(lines) + rng.choice(["\n", "", "\n\n"])


def _compare_with_reference(pipeline, cases):
    """Run ``cases`` fuzz texts through both parsers; returns the outcome counts."""
    new, ref = ((parse_cycle_csv, csv_reference.parse_cycle_csv) if pipeline == "dca"
                else (parse_eis_csv, csv_reference.parse_eis_csv))
    rng = random.Random(20240613)
    seen = {"ok": 0, "error": 0}
    for case in range(cases):
        text = _fuzz_text(rng, pipeline)
        defaults = rng.choice([SampleMeta(), SampleMeta(cell_id="dflt", cycle_index=7)])
        kwargs = {"meta_defaults": defaults, "min_len": rng.choice([0, 0, 3])}
        want, got = _outcome(ref, text, **kwargs), _outcome(new, text, **kwargs)
        assert want[0] == got[0], (case, text, want, got)
        seen[want[0]] += 1
        if want[0] == "error":
            assert issubclass(want[1][0], BatteryAuthError), (case, text, want)
            assert got[1] == want[1], (case, text)
        else:
            assert len(got[1]) == len(want[1]), (case, text)
            for a, b in zip(want[1], got[1]):
                assert records_equal(a, b), (case, text)
    return seen


@pytest.mark.parametrize("pipeline", ["dca", "eis"])
def test_fuzz_matches_row_reference(pipeline):
    seen = _compare_with_reference(pipeline, 1500)
    # both outcomes are exercised often enough to mean something
    assert seen["ok"] > 300 and seen["error"] > 300, seen


@pytest.mark.parametrize("block_rows", [1, 3, 7])
@pytest.mark.parametrize("pipeline", ["dca", "eis"])
def test_fuzz_matches_row_reference_across_blocks(monkeypatch, pipeline, block_rows):
    # blocks this small put short, long and blank rows on every side of a
    # block boundary
    monkeypatch.setattr(io_csv, "_BLOCK_ROWS", block_rows)
    seen = _compare_with_reference(pipeline, 300)
    assert seen["ok"] > 60 and seen["error"] > 60, seen


class TestBlocks:
    """Rows are read ``io_csv._BLOCK_ROWS`` at a time."""

    @staticmethod
    def _cycle_text(rows: int) -> str:
        lines = ["cell_id,cycle_index,voltage,capacity"]
        lines += [f"c{i % 4},0,{3.0 + 1e-4 * i!r},{1e-3 * i!r}" for i in range(rows)]
        return "\n".join(lines) + "\n"

    def test_unreadable_line_past_the_first_block_is_named(self):
        rows = 3 * io_csv._BLOCK_ROWS
        text = self._cycle_text(rows) + "c0,0,0." + "1" * (csv.field_size_limit() + 1) + ",1.0\n"
        with pytest.raises(MalformedCsv, match=f"^line {rows + 2}: "):
            parse_cycle_csv(text, min_len=0)

    def test_parse_sets_off_no_garbage_collection(self):
        # a row is a list the collector tracks; a whole file of them held
        # at once would set off collections, now and then a full one
        text = self._cycle_text(12 * io_csv._BLOCK_ROWS)
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            records = parse_cycle_csv(text, min_len=0)
        finally:
            gc.callbacks.remove(count)
        assert len(records) == 4 and starts == []


def test_grouping_by_meta_tuples_keeps_first_row_meta():
    text = ("cell_id,cycle_index,soc_percent,voltage,capacity\n"
            "a,0,10,3.0,0.0\n"
            "b,0,20,3.1,0.0\n"
            "a,0,30,3.2,0.1\n"
            "a,1,40,3.3,0.0\n"
            "b,0,50,3.4,0.2\n")
    recs = parse_cycle_csv(text, min_len=0)
    assert [(r.meta.cell_id, r.meta.cycle_index, r.meta.soc_percent) for r in recs] == [
        ("a", 0, 10.0), ("b", 0, 20.0), ("a", 1, 40.0)]
    assert list(recs[0].voltage) == [3.0, 3.2]
    assert list(recs[1].voltage) == [3.1, 3.4]


class TestStrayExceptions:
    """Rows that used to escape as TypeError, ValueError or OverflowError."""

    CYCLE = "cell_id,cycle_index,voltage,capacity\n"
    EIS = "cell_id,cycle_index,frequency,z_real,z_imag\n"

    @pytest.mark.parametrize("parse,text,column", [
        (parse_cycle_csv, CYCLE + "c,0,3.0,0.0\nc,0,3.1\n", "capacity"),
        (parse_eis_csv, EIS + "c,0,1.0,0.1,-0.1\nc,0\n", "frequency"),
    ])
    def test_short_row_names_row_and_column(self, parse, text, column):
        with pytest.raises(MissingColumn, match=f"row 3: no {column} value"):
            parse(text, min_len=0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("parse,row", [
        (parse_cycle_csv, "c,{},3.0,0.0\n"),
        (parse_eis_csv, "c,{},1.0,0.1,-0.1\n"),
    ])
    def test_non_finite_cycle_index(self, parse, row, value):
        header = self.CYCLE if parse is parse_cycle_csv else self.EIS
        text = header + row.format(0) + row.format(value)
        with pytest.raises(NonFiniteValue, match="row 3: non-finite cycle_index"):
            parse(text, min_len=0)
