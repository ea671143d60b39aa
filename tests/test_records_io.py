"""Record construction, validation rules, and CSV round trips."""
import numpy as np
import pytest
from reference import records_equal

from batteryauth.errors import (
    EmptyDataset,
    MissingColumn,
    NonFiniteValue,
    NonMonotonicCapacity,
    NonPositiveFrequency,
    TooShortCycle,
    TooShortSweep,
)
from batteryauth.io_csv import (
    parse_cycle_csv,
    parse_eis_csv,
    write_cycle_csv,
    write_eis_csv,
)
from batteryauth.records import (
    SampleMeta,
    build_catalog,
    make_cycle,
    make_spectrum,
    validate_cycle,
    validate_spectrum,
)


def _meta(cell="c1", cyc=0, model="m1", arch="a1"):
    return SampleMeta(
        dataset_id="d", cell_id=cell, battery_model=model, architecture=arch, cycle_index=cyc
    )


class TestCycleRecords:
    def test_coerces_to_float_arrays(self):
        rec = make_cycle([3, 4, 5], [0, 1, 2])
        assert rec.voltage.dtype == float
        assert rec.capacity.dtype == float

    def test_arrays_are_write_protected(self):
        rec = make_cycle([3.0, 4.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            rec.voltage[0] = 9.9

    def test_length_mismatch(self):
        with pytest.raises(TooShortCycle):
            make_cycle([3.0, 4.0, 5.0], [0.0, 1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValue):
            make_cycle([3.0, np.nan], [0.0, 1.0])
        with pytest.raises(NonFiniteValue):
            make_cycle([3.0, 4.0], [0.0, np.inf])

    def test_validate_accepts_monotone_charge(self):
        v = np.linspace(3.0, 4.2, 32)
        q = np.linspace(0.0, 1.0, 32)
        validate_cycle(make_cycle(v, q, "charge"))

    def test_validate_rejects_large_dip(self):
        v = np.linspace(3.0, 4.2, 32)
        q = np.linspace(0.0, 1.0, 32).copy()
        q[16] = q[15] - 0.5          # dip far beyond the 0.5% tolerance
        with pytest.raises(NonMonotonicCapacity):
            validate_cycle(make_cycle(v, q, "charge"))

    def test_validate_tolerates_small_jitter(self):
        v = np.linspace(3.0, 4.2, 32)
        q = np.linspace(0.0, 1.0, 32).copy()
        q[16] = q[15] - 0.001        # within 0.5% of the 1.0 range
        validate_cycle(make_cycle(v, q, "charge"))

    def test_validate_discharge_direction(self):
        v = np.linspace(4.2, 3.0, 32)
        q = np.linspace(1.0, 0.0, 32)
        validate_cycle(make_cycle(v, q, "discharge"))
        with pytest.raises(NonMonotonicCapacity):
            validate_cycle(make_cycle(v, np.linspace(0.0, 1.0, 32), "discharge"))

    def test_validate_min_length(self):
        with pytest.raises(TooShortCycle):
            validate_cycle(make_cycle([3.0, 3.1], [0.0, 0.1], "charge"))


class TestSpectrumRecords:
    def test_rows_sorted_ascending(self):
        rec = make_spectrum([100.0, 1.0, 10.0], [0.1, 0.3, 0.2], [-0.01, -0.03, -0.02])
        assert list(rec.frequency) == [1.0, 10.0, 100.0]
        assert list(rec.z_real) == [0.3, 0.2, 0.1]

    def test_non_positive_frequency(self):
        with pytest.raises(NonPositiveFrequency):
            make_spectrum([0.0, 1.0], [0.1, 0.2], [-0.1, -0.2])

    def test_validate_rejects_duplicate_frequency(self):
        f = [1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        with pytest.raises(NonPositiveFrequency):
            validate_spectrum(make_spectrum(f, np.ones(8), -np.ones(8)))

    def test_validate_min_length(self):
        with pytest.raises(TooShortSweep):
            validate_spectrum(make_spectrum([1.0, 2.0], [0.1, 0.2], [-0.1, -0.2]))


class TestCatalog:
    def test_first_appearance_ids(self):
        recs = [
            make_cycle([3.0, 4.0], [0.0, 1.0], meta=_meta(model="mB", arch="aY")),
            make_cycle([3.0, 4.0], [0.0, 1.0], meta=_meta(model="mA", arch="aX")),
            make_cycle([3.0, 4.0], [0.0, 1.0], meta=_meta(model="mB", arch="aY")),
        ]
        cat = build_catalog(recs)
        assert cat.model_labels == {"mB": 0, "mA": 1}
        assert cat.arch_labels == {"aY": 0, "aX": 1}
        assert cat.model_names == ("mB", "mA")

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            build_catalog([])


class TestCycleCsv:
    def _records(self):
        v = np.linspace(3.0, 4.2, 20)
        return [
            make_cycle(v, np.linspace(0, 1, 20), "charge", _meta("c1", 0)),
            make_cycle(v, np.linspace(0, 1.1, 20), "charge", _meta("c1", 1)),
            make_cycle(v, np.linspace(0, 0.9, 20), "charge", _meta("c2", 0, model="m2")),
        ]

    def test_round_trip_exact(self):
        recs = self._records()
        text = write_cycle_csv(recs)
        back = parse_cycle_csv(text)
        assert len(back) == 3
        for a, b in zip(recs, back):
            assert records_equal(a, b)

    def test_groups_in_first_row_order(self):
        text = write_cycle_csv(self._records())
        back = parse_cycle_csv(text)
        assert [(r.meta.cell_id, r.meta.cycle_index) for r in back] == [
            ("c1", 0), ("c1", 1), ("c2", 0),
        ]

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            parse_cycle_csv("cell_id,voltage\nc1,3.7\n")

    def test_bad_float_names_row(self):
        text = write_cycle_csv(self._records()[:1])
        lines = text.splitlines()
        lines[3] = lines[3].replace(lines[3].split(",")[-1], "oops")
        with pytest.raises(NonFiniteValue) as err:
            parse_cycle_csv("\n".join(lines) + "\n")
        assert "row" in str(err.value)

    def test_short_group_rejected(self):
        v = [3.0, 3.1, 3.2]
        text = write_cycle_csv([make_cycle(v, [0.0, 0.1, 0.2], "charge", _meta())])
        with pytest.raises(TooShortCycle):
            parse_cycle_csv(text)
        assert len(parse_cycle_csv(text, min_len=0)) == 1


class TestEisCsv:
    def _records(self):
        f = np.logspace(-1, 3, 12)
        return [
            make_spectrum(f, np.linspace(0.3, 0.1, 12), -np.linspace(0.03, 0.001, 12), _meta("c1", 0)),
            make_spectrum(f, np.linspace(0.4, 0.2, 12), -np.linspace(0.04, 0.002, 12), _meta("c1", 1)),
        ]

    def test_round_trip_exact(self):
        recs = self._records()
        back = parse_eis_csv(write_eis_csv(recs))
        assert len(back) == 2
        for a, b in zip(recs, back):
            assert records_equal(a, b)

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            parse_eis_csv("cell_id,frequency,z_real\nc1,1.0,0.2\n")
