"""Differential-capacity pipeline: cleaning, differentiation, smoothing,
resampling. The smoothing oracle is built from the normal equations
directly, independent of the filter implementation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import clean_keep_mask

from batteryauth.dca import (
    DcaConfig,
    DcaSeries,
    clamp_window,
    clean_dca,
    process_cycle,
    raw_differential_capacity,
    resample_uniform,
    savgol_smooth,
    savgol_weights,
)
from batteryauth.errors import AllPointsDropped, BadWindow, DegenerateVoltageRange
from batteryauth.records import make_cycle


def _series(v, y):
    return DcaSeries(grid_voltage=np.asarray(v, float), dqdv=np.asarray(y, float), stage="raw", meta=None)


class TestCleaning:
    def test_drops_points_closer_than_eps(self):
        v = [3.0, 3.00005, 3.1, 3.10009, 3.2]
        q = [0.0, 0.1, 0.2, 0.3, 0.4]
        cleaned = clean_dca(make_cycle(v, q), eps_volts=1e-4)
        assert list(cleaned.voltage) == [3.0, 3.1, 3.2]
        assert list(cleaned.capacity) == [0.0, 0.2, 0.4]

    def test_first_point_always_kept(self):
        cleaned = clean_dca(make_cycle([3.0, 3.1, 3.2], [0.0, 0.1, 0.2]), eps_volts=1e-4)
        assert cleaned.voltage[0] == 3.0

    def test_comparison_is_against_last_kept(self):
        # each step is below eps, but drift accumulates: only points at
        # distance >= eps from the last KEPT voltage survive
        v = 3.0 + np.arange(6) * 4e-5
        cleaned = clean_dca(make_cycle(v, np.arange(6.0)), eps_volts=1e-4)
        assert np.allclose(cleaned.voltage, [3.0, 3.00012])

    def test_all_points_dropped(self):
        with pytest.raises(AllPointsDropped):
            clean_dca(make_cycle([3.0, 3.0, 3.0], [0.0, 0.1, 0.2]), eps_volts=1e-4)

    def test_keeps_the_samples_of_the_numpy_scalar_scan(self):
        # eps a power of two, so steps of exactly eps are exact in binary
        eps = 2.0**-13
        rng = np.random.default_rng(11)
        runs = [
            3.0 + eps * np.arange(20),                               # steps exactly at eps
            3.0 + (eps - np.spacing(3.0)) * np.arange(20),           # steps one ulp below eps
            4.0 - eps * np.arange(20),                               # descending, exactly eps
            np.full(15, 3.5),                                        # flat
            3.0 + np.cumsum(rng.choice([0.0, 0.5, 1.0, 1.5], 200)) * eps,   # mixed steps
            3.0 + np.cumsum(rng.normal(0.0, eps, 300)),              # up and down
        ]
        for seed in range(20):
            parts = np.random.default_rng(seed).permutation(len(runs))
            v = np.concatenate([runs[i] for i in parts])
            want = clean_keep_mask(v, eps)
            if want.sum() < 2:
                continue
            cleaned = clean_dca(make_cycle(v, np.arange(len(v), dtype=float)), eps_volts=eps)
            assert np.array_equal(cleaned.capacity, np.flatnonzero(want))
            assert np.array_equal(cleaned.voltage, v[want])
        # a step of exactly eps is kept, one just below is not
        exact = clean_dca(make_cycle(runs[0], np.arange(20.0)), eps_volts=eps)
        assert len(exact) == 20
        below = clean_dca(make_cycle(runs[1], np.arange(20.0)), eps_volts=eps)
        assert list(below.capacity) == list(range(0, 20, 2))

    def test_idempotent(self):
        v = np.linspace(3.0, 4.2, 50)
        cleaned = clean_dca(make_cycle(v, np.linspace(0, 1, 50)), eps_volts=1e-4)
        again = clean_dca(cleaned, eps_volts=1e-4)
        assert np.array_equal(cleaned.voltage, again.voltage)


class TestRawDifferentiation:
    def test_matches_hand_computation(self):
        rec = make_cycle([3.0, 3.1, 3.3], [0.0, 0.2, 0.3])
        series = raw_differential_capacity(rec)
        assert np.allclose(series.grid_voltage, [3.05, 3.2])
        assert np.allclose(series.dqdv, [0.2 / 0.1, 0.1 / 0.2])

    def test_linear_q_gives_constant_dqdv(self):
        v = np.linspace(3.0, 4.0, 100)
        series = raw_differential_capacity(make_cycle(v, 2.5 * v - 7.5))
        assert np.allclose(series.dqdv, 2.5)


class TestWindowClamp:
    @pytest.mark.parametrize(
        "window,length,expected",
        [(51, 512, 51), (51, 30, 29), (51, 51, 51), (5, 4, 3), (7, 7, 7)],
    )
    def test_largest_odd_not_exceeding(self, window, length, expected):
        assert clamp_window(window, length) == expected


class TestSavgol:
    def test_window_5_order_2_weights(self):
        # classic closed form for the quadratic 5-point smoother
        expected = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
        assert np.abs(savgol_weights(5, 2) - expected).max() < 1e-12

    def test_weights_match_normal_equations(self):
        # independent oracle: center row of e0^T (A^T A)^{-1} A^T with A the
        # Vandermonde matrix of window offsets
        for window, order in [(5, 2), (7, 3), (9, 2), (51, 3)]:
            half = window // 2
            offsets = np.arange(-half, half + 1, dtype=float)
            A = np.vander(offsets, order + 1, increasing=True)
            oracle = np.linalg.solve(A.T @ A, A.T)[0]
            assert np.abs(savgol_weights(window, order) - oracle).max() < 1e-9

    @pytest.mark.parametrize("window", [5, 7, 21, 51])
    @pytest.mark.parametrize("polyorder", [0, 1, 2, 3])
    def test_matches_scipy_reference(self, window, polyorder):
        # scipy is a test-only reference here; the package smooths in numpy
        from scipy.signal import savgol_coeffs, savgol_filter

        rng = np.random.default_rng(window * 10 + polyorder)
        for n in (window, 400):
            x = 50.0 * rng.standard_normal(n).cumsum()
            bound = 1e-12 * np.abs(x).max()
            got = savgol_smooth(_series(np.arange(n, dtype=float), x), window, polyorder).dqdv
            ref = savgol_filter(x, window_length=window, polyorder=polyorder, mode="mirror")
            assert np.abs(got - ref).max() <= bound
            ref_weights = savgol_coeffs(window, polyorder)[::-1]
            assert np.abs(savgol_weights(window, polyorder) - ref_weights).max() <= bound

    def test_polynomial_reproduced_in_interior(self):
        x = np.linspace(0.0, 1.0, 101)
        poly = 0.3 - 1.2 * x + 0.7 * x**2 + 2.1 * x**3
        smoothed = savgol_smooth(_series(x, poly), window=51, polyorder=3)
        interior = slice(25, -25)
        assert np.abs(smoothed.dqdv[interior] - poly[interior]).max() < 1e-9

    def test_even_window_rejected(self):
        with pytest.raises(BadWindow):
            savgol_smooth(_series(np.arange(10.0), np.arange(10.0)), window=4, polyorder=2)

    def test_window_longer_than_series_rejected(self):
        with pytest.raises(BadWindow):
            savgol_smooth(_series(np.arange(5.0), np.arange(5.0)), window=7, polyorder=2)

    def test_window_must_exceed_polyorder(self):
        with pytest.raises(BadWindow):
            savgol_weights(5, 5)

    def test_non_finite_input_rejected(self):
        y = np.arange(10.0)
        y[3] = np.inf
        with pytest.raises(BadWindow):
            savgol_smooth(_series(np.arange(10.0), y), window=5, polyorder=2)


class TestResample:
    def test_output_grid_uniform_and_inclusive(self):
        out = resample_uniform(_series([3.0, 3.5, 4.2], [1.0, 2.0, 0.5]), n=9)
        assert len(out.grid_voltage) == 9
        assert out.grid_voltage[0] == 3.0 and out.grid_voltage[-1] == 4.2
        assert np.allclose(np.diff(out.grid_voltage), np.diff(out.grid_voltage)[0])

    def test_linear_interpolation_values(self):
        out = resample_uniform(_series([0.0, 1.0], [0.0, 2.0]), n=5)
        assert np.allclose(out.dqdv, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_duplicate_voltages_averaged(self):
        out = resample_uniform(_series([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 3.0, 4.0]), n=3)
        # duplicate V=1 carries the mean of 1.0 and 3.0
        assert np.allclose(out.dqdv, [0.0, 2.0, 4.0])

    def test_unsorted_input_allowed(self):
        out = resample_uniform(_series([2.0, 0.0, 1.0], [4.0, 0.0, 2.0]), n=3)
        assert np.allclose(out.dqdv, [0.0, 2.0, 4.0])

    def test_degenerate_range(self):
        with pytest.raises(DegenerateVoltageRange):
            resample_uniform(_series([1.0, 1.0], [0.0, 1.0]), n=4)


class TestFullChain:
    def test_sigmoid_sum_matches_analytic_derivative(self):
        # capacity curve built from logistic steps; its derivative is known
        # in closed form, so the whole raw->clean->smooth chain is checked
        params = [(1.2, 3.4, 0.05), (0.8, 3.7, 0.04), (1.5, 3.95, 0.06)]
        v = np.linspace(3.0, 4.2, 2000)
        q = sum(a / (1 + np.exp(-(v - b) / c)) for a, b, c in params)
        cleaned = clean_dca(make_cycle(v, q))
        raw = raw_differential_capacity(cleaned)
        sm = savgol_smooth(raw, clamp_window(51, len(raw)), 3)
        g = sm.grid_voltage
        analytic = sum(
            (a / c) * np.exp(-(g - b) / c) / (1 + np.exp(-(g - b) / c)) ** 2
            for a, b, c in params
        )
        rel_l2 = np.linalg.norm(sm.dqdv - analytic) / np.linalg.norm(analytic)
        assert rel_l2 < 0.05

    def test_process_cycle_recovers_peak_location(self):
        v = np.linspace(3.0, 4.2, 800)
        dqdv_true = 2.0 * np.exp(-((v - 3.6) ** 2) / (2 * 0.05**2)) + 0.05
        q = np.concatenate([[0.0], np.cumsum(0.5 * (dqdv_true[:-1] + dqdv_true[1:]) * np.diff(v))])
        series = process_cycle(make_cycle(v, q), DcaConfig())
        assert len(series.grid_voltage) == 512
        peak_v = series.grid_voltage[np.argmax(series.dqdv)]
        cell = series.grid_voltage[1] - series.grid_voltage[0]
        assert abs(peak_v - 3.6) <= 2 * cell

    def test_short_cycle_window_clamps(self):
        v = np.linspace(3.0, 4.2, 20)
        series = process_cycle(make_cycle(v, np.linspace(0, 1, 20)), DcaConfig(resample_n=32))
        assert len(series.grid_voltage) == 32


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=16, max_value=200),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_resample_properties(n, seed):
    rng = np.random.default_rng(seed)
    v = np.sort(rng.uniform(3.0, 4.2, size=40))
    v[0], v[-1] = 3.0, 4.2                      # pin the range
    y = rng.standard_normal(40)
    out = resample_uniform(_series(v, y), n=n)
    assert len(out.grid_voltage) == n
    assert np.all(np.diff(out.grid_voltage) > 0)
    # interpolation never leaves the value envelope
    assert out.dqdv.min() >= y.min() - 1e-12
    assert out.dqdv.max() <= y.max() + 1e-12
