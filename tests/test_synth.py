"""Synthetic generators checked against their closed-form ground truth."""
import math

import numpy as np
import pytest
from reference import records_equal, spec_to_json_dict, specs_to_json

from batteryauth.dca import DcaConfig, process_cycle
from batteryauth.errors import BadSpec
from batteryauth.io_csv import write_cycle_csv
from batteryauth.synth import (
    SohDrift,
    SyntheticCellSpec,
    condition_factors,
    dca_ground_truth,
    demo_specs,
    gen_cycle,
    gen_dataset,
    gen_eis,
    gen_eis_dataset,
    randles_impedance,
    spec_from_json_dict,
    specs_from_json,
)


def _spec(**overrides):
    base = dict(
        name="probe",
        architecture="test-arch",
        dca_peaks=((3.5, 2.0, 0.05),),
        voltage_window=(3.0, 4.2),
        randles=(0.02, 0.05, 1.0, 0.004),
        noise_std=0.0,
    )
    base.update(overrides)
    return SyntheticCellSpec(**base)


class TestSpecValidation:
    """A spec checks itself when it is made, so a bad one never exists."""

    def test_demo_specs_all_valid(self):
        specs = demo_specs()
        assert len(specs) == 5
        assert len({s.architecture for s in specs}) == 3

    def test_inverted_window(self):
        with pytest.raises(BadSpec):
            _spec(voltage_window=(4.2, 3.0))

    def test_peak_outside_window(self):
        with pytest.raises(BadSpec):
            _spec(dca_peaks=((5.0, 1.0, 0.05),))

    def test_nonpositive_width(self):
        with pytest.raises(BadSpec):
            _spec(dca_peaks=((3.5, 1.0, 0.0),))

    def test_negative_circuit_parameter(self):
        with pytest.raises(BadSpec):
            _spec(randles=(-0.01, 0.05, 1.0, 0.004))

    @pytest.mark.parametrize("overrides,message", [
        ({"voltage_window": (3.0, 3.5, 4.2)}, "voltage_window must have exactly 2 entries"),
        ({"dca_peaks": ((3.5, -1.0, 0.05),)}, "peak amplitude must be >= 0, got -1.0"),
        ({"noise_std": -0.01}, "noise_std must be >= 0"),
        ({"dca_baseline": -0.05}, "dca_baseline must be >= 0"),
        ({"noise_std": math.nan}, "noise_std must be >= 0"),
        ({"dca_peaks": ((3.5, 1.0, math.nan),)}, "peak width must be > 0, got nan"),
    ], ids=["window-length", "amplitude", "noise", "baseline", "noise-nan", "width-nan"])
    def test_bad_spec_raises_when_made(self, overrides, message):
        with pytest.raises(BadSpec, match=message) as err:
            _spec(**overrides)
        assert str(err.value).startswith("probe: ")


class TestGenCycle:
    def test_noiseless_capacity_strictly_increases(self):
        rec = gen_cycle(_spec(), soh_percent=100.0, n_points=256)
        assert (np.diff(rec.capacity) > 0).all()
        assert rec.capacity[0] == 0.0
        assert rec.meta.battery_model == "probe"
        assert rec.cycle_kind == "charge"

    def test_total_charge_matches_peak_area(self):
        # integral of baseline + Gaussian over the window; the Gaussian
        # tail outside [3.0, 4.2] is captured by the erf difference
        spec = _spec(dca_peaks=((3.6, 2.0, 0.05),), dca_baseline=0.05)
        rec = gen_cycle(spec, soh_percent=100.0, n_points=4096)
        lo, hi, mu, amp, w = 3.0, 4.2, 3.6, 2.0, 0.05
        gauss_area = amp * w * math.sqrt(2 * math.pi) * 0.5 * (
            math.erf((hi - mu) / (w * math.sqrt(2))) - math.erf((lo - mu) / (w * math.sqrt(2)))
        )
        expected = 0.05 * (hi - lo) + gauss_area
        assert rec.capacity[-1] == pytest.approx(expected, rel=1e-3)

    def test_zero_amplitude_gives_baseline_ramp(self):
        spec = _spec(dca_peaks=((3.5, 0.0, 0.05),), dca_baseline=0.1)
        rec = gen_cycle(spec, soh_percent=100.0, n_points=128)
        # constant dQ/dV = 0.1 integrates to a straight line
        expected = 0.1 * (rec.voltage - rec.voltage[0])
        assert np.allclose(rec.capacity, expected, atol=1e-12)

    def test_too_few_points(self):
        with pytest.raises(BadSpec):
            gen_cycle(_spec(), soh_percent=100.0, n_points=63)

    def test_seeded_noise_reproduces(self):
        spec = _spec(noise_std=0.02)
        a = gen_cycle(spec, soh_percent=95.0, seed=42)
        b = gen_cycle(spec, soh_percent=95.0, seed=42)
        c = gen_cycle(spec, soh_percent=95.0, seed=43)
        assert records_equal(a, b)
        assert not np.array_equal(a.capacity, c.capacity)

    def test_noise_preserves_monotonicity(self):
        spec = _spec(noise_std=0.05)
        for seed in range(10):
            rec = gen_cycle(spec, soh_percent=90.0, seed=seed)
            assert (np.diff(rec.capacity) > 0).all()


class TestGroundTruthRecovery:
    def test_processing_recovers_peak_positions(self):
        spec = _spec(dca_peaks=((3.4, 2.0, 0.05), (3.9, 1.2, 0.06)), noise_std=0.01)
        rec = gen_cycle(spec, soh_percent=100.0, seed=3)
        series = process_cycle(rec, DcaConfig())
        grid, dqdv = series.grid_voltage, series.dqdv
        cell = grid[1] - grid[0]
        # each true peak has a local maximum within 2 grid cells
        for mu in (3.4, 3.9):
            region = np.abs(grid - mu) <= 2 * cell
            top = dqdv[region].max()
            assert top >= 0.8 * dqdv.max() * (1.2 / 2.0 if mu == 3.9 else 1.0)
            near = np.abs(grid[np.argmax(dqdv * region)] - mu)
            assert near <= 2 * cell

    def test_soh_shift_moves_peak(self):
        drift = SohDrift(peak_shift_v_per_percent=0.001)
        spec = _spec(dca_peaks=((3.5, 2.0, 0.05),), soh_drift=drift)
        v = np.linspace(3.0, 4.2, 2048)
        fresh = dca_ground_truth(spec, v, 100.0)
        aged = dca_ground_truth(spec, v, 80.0)
        shift = v[np.argmax(aged)] - v[np.argmax(fresh)]
        assert shift == pytest.approx(0.001 * 20.0, abs=2 * (v[1] - v[0]))

    def test_soh_fade_scales_amplitude(self):
        drift = SohDrift(amplitude_fade_per_percent=0.004)
        spec = _spec(dca_peaks=((3.5, 2.0, 0.05),), soh_drift=drift, dca_baseline=0.0)
        v = np.array([3.5])
        fresh = dca_ground_truth(spec, v, 100.0)[0]
        aged = dca_ground_truth(spec, v, 80.0)[0]
        assert aged / fresh == pytest.approx(1.0 - 0.004 * 20.0, rel=1e-12)


class TestRandles:
    def test_high_frequency_limit_is_series_resistance(self):
        z = randles_impedance(np.array([1e7]), 0.02, 0.05, 1.0, 0.0)
        assert z.real[0] == pytest.approx(0.02, rel=1e-2)
        assert abs(z.imag[0]) < 1e-6

    def test_low_frequency_limit_adds_rct(self):
        z = randles_impedance(np.array([1e-9]), 0.02, 0.05, 1.0, 0.0)
        assert z.real[0] == pytest.approx(0.07, rel=1e-6)

    def test_semicircle_apex_at_characteristic_frequency(self):
        # at omega = 1/(Rct Cdl) the parallel branch contributes exactly
        # Rct/2 - j Rct/2
        r0, rct, cdl = 0.02, 0.05, 1.0
        f_char = 1.0 / (2 * math.pi * rct * cdl)
        z = randles_impedance(np.array([f_char]), r0, rct, cdl, 0.0)
        assert z.real[0] == pytest.approx(r0 + rct / 2, rel=1e-12)
        assert z.imag[0] == pytest.approx(-rct / 2, rel=1e-12)

    def test_apex_is_the_maximum_of_negative_imaginary(self):
        freq = np.logspace(-2, 4, 400)
        z = randles_impedance(freq, 0.02, 0.05, 1.0, 0.0)
        assert (-z.imag).max() == pytest.approx(0.05 / 2, rel=0.02)

    def test_warburg_tail_dominates_low_frequency(self):
        freq = np.array([1e-3])
        with_w = randles_impedance(freq, 0.02, 0.05, 1.0, 0.01)
        without = randles_impedance(freq, 0.02, 0.05, 1.0, 0.0)
        w = 2 * math.pi * 1e-3
        assert (with_w - without).real[0] == pytest.approx(0.01 / math.sqrt(w), rel=1e-9)
        assert (with_w - without).imag[0] == pytest.approx(-0.01 / math.sqrt(w), rel=1e-9)


class TestConditionFactors:
    def test_reference_condition_is_identity(self):
        assert condition_factors(50.0, 25.0) == (1.0, 1.0, 1.0, 1.0)

    def test_documented_coefficients(self):
        f_r0, f_rct, f_cdl, f_w = condition_factors(60.0, 35.0)
        assert f_r0 == pytest.approx(1.0 - 0.0008 * 10 - 0.004 * 10)
        assert f_rct == pytest.approx(1.0 - 0.006 * 10 - 0.012 * 10)
        assert f_cdl == pytest.approx(1.0 + 0.004 * 10)
        assert f_w == pytest.approx(1.0 - 0.004 * 10)

    def test_factors_clamped_positive(self):
        factors = condition_factors(100.0, 100.0)
        assert all(f >= 0.05 for f in factors)

    def test_gen_eis_applies_factors(self):
        spec = _spec()
        ref = gen_eis(spec, soc_percent=50.0, temperature_c=25.0)
        hot = gen_eis(spec, soc_percent=50.0, temperature_c=45.0)
        # r0 shrinks with temperature: the high-frequency end moves left
        assert hot.z_real[-1] < ref.z_real[-1]


class TestDatasets:
    def test_cycle_dataset_counts_and_labels(self):
        specs = demo_specs(noise_std=0.01)
        cat = gen_dataset(specs, cells_per_spec=2, cycles_per_cell=3, seed=1, n_points=128)
        assert len(cat.records) == 5 * 2 * 3
        assert cat.model_names == ("alpha", "bravo", "charlie", "delta", "echo")
        assert cat.arch_names == ("layered-oxide", "olivine", "spinel")
        cells = {r.meta.cell_id for r in cat.records}
        assert "alpha-c00" in cells and "echo-c01" in cells
        sohs = sorted({r.meta.soh_percent for r in cat.records})
        assert sohs == [80.0, 90.0, 100.0]

    def test_cycle_dataset_byte_identical_rerun(self):
        specs = demo_specs(noise_std=0.02)[:2]
        a = gen_dataset(specs, cells_per_spec=1, cycles_per_cell=2, seed=9, n_points=128)
        b = gen_dataset(specs, cells_per_spec=1, cycles_per_cell=2, seed=9, n_points=128)
        assert write_cycle_csv(a.records) == write_cycle_csv(b.records)

    def test_eis_dataset_counts_and_conditions(self):
        specs = demo_specs(noise_std=0.01)
        cat = gen_eis_dataset(specs, cells_per_spec=2, sweeps_per_cell=4, seed=2, n_freq=32)
        assert len(cat.records) == 5 * 2 * 4
        for r in cat.records:
            assert 20.0 <= r.meta.soc_percent <= 90.0
            assert 5.0 <= r.meta.temperature_c <= 45.0
            assert len(r.frequency) == 32

    def test_single_spec_rejected(self):
        with pytest.raises(BadSpec):
            gen_dataset([_spec()], cells_per_spec=2, cycles_per_cell=2)

    def test_duplicate_names_rejected(self):
        with pytest.raises(BadSpec):
            gen_dataset([_spec(), _spec()], cells_per_spec=1, cycles_per_cell=1)


class TestSpecJson:
    def test_round_trip(self):
        for spec in demo_specs():
            back = spec_from_json_dict(spec_to_json_dict(spec))
            assert back == spec

    def test_list_round_trip(self):
        specs = demo_specs()
        assert specs_from_json(specs_to_json(specs)) == specs

    def test_unknown_key_rejected(self):
        data = spec_to_json_dict(_spec())
        data["chemistry"] = "NMC"
        with pytest.raises(BadSpec) as err:
            spec_from_json_dict(data)
        assert "chemistry" in str(err.value)

    def test_missing_required_key(self):
        data = spec_to_json_dict(_spec())
        del data["randles"]
        with pytest.raises(BadSpec) as err:
            spec_from_json_dict(data)
        assert "randles" in str(err.value)

    def test_invalid_nested_randles_key(self):
        data = spec_to_json_dict(_spec())
        data["randles"]["inductance"] = 1.0
        with pytest.raises(BadSpec):
            spec_from_json_dict(data)

    def test_malformed_peaks(self):
        data = spec_to_json_dict(_spec())
        data["dca_peaks"] = [[3.5, 1.0]]          # missing width
        with pytest.raises(BadSpec):
            spec_from_json_dict(data)

    def test_not_json(self):
        with pytest.raises(BadSpec):
            specs_from_json("{broken")

    def test_validation_runs_on_load(self):
        data = spec_to_json_dict(_spec())
        data["voltage_window"] = [4.2, 3.0]
        with pytest.raises(BadSpec):
            spec_from_json_dict(data)
