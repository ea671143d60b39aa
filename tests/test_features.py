"""Feature catalog and calculators, checked against hand math and
scipy/numpy reference formulas computed independently in the tests."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import feature_cwt_coefficient, feature_range_count

from batteryauth import features
from batteryauth.errors import (
    BadInterval,
    BadWidth,
    CatalogMismatch,
    IndexOutOfRange,
    NonFiniteValue,
    UnsupportedChannelCount,
)
from batteryauth.features import (
    AUTOCORR_LAGS,
    CWT_WIDTHS,
    FEATURES_PER_CHANNEL,
    PEAK_SUPPORTS,
    QUANTILE_QS,
    catalog_default,
    cwt_positions,
    extract_features,
    feature_autocorrelation,
    feature_fft_coefficient,
    feature_number_peaks,
    feature_quantile,
    labels_for,
    matrix_from_cycles,
    matrix_from_spectra,
    matrix_take,
    ricker_kernel,
)
from batteryauth.parallel import ordered_map
from batteryauth.synth import demo_specs, gen_dataset, gen_eis_dataset


class TestCatalogStructure:
    def test_one_channel_size_and_version(self):
        cat = catalog_default(1)
        assert len(cat.entries) == FEATURES_PER_CHANNEL == 137
        assert cat.version == "v1:ch1"
        assert not cat.entries[0].name.startswith("ch0_")

    def test_two_channel_size_and_prefixes(self):
        cat = catalog_default(2)
        assert len(cat.entries) == 274
        assert cat.version == "v1:ch2"
        names = [e.name for e in cat.entries]
        assert sum(n.startswith("ch0_") for n in names) == 137
        assert sum(n.startswith("ch1_") for n in names) == 137

    def test_names_unique(self):
        for ch in (1, 2):
            names = [e.name for e in catalog_default(ch).entries]
            assert len(set(names)) == len(names)

    def test_unsupported_channel_count(self):
        with pytest.raises(UnsupportedChannelCount):
            catalog_default(3)

    def test_family_census(self):
        kinds = {}
        for e in catalog_default(1).entries:
            kinds[e.family] = kinds.get(e.family, 0) + 1
        assert kinds["quantile"] == len(QUANTILE_QS) == 9
        assert kinds["autocorrelation"] == len(AUTOCORR_LAGS) == 7
        assert kinds["number_peaks"] == len(PEAK_SUPPORTS) == 4
        assert kinds["range_count"] == 8
        assert kinds["fft_abs"] == 16 and kinds["fft_angle"] == 16
        assert sum(v for k, v in kinds.items() if k == "cwt") == len(CWT_WIDTHS) * 16 == 64


class TestGoldenValues:
    def test_autocorrelation_alternating(self):
        assert feature_autocorrelation(np.array([1.0, 2.0, 1.0, 2.0]), 1) == -1.0

    def test_quantile_median(self):
        assert feature_quantile(np.array([1.0, 2.0, 3.0]), 0.5) == 2.0

    def test_number_peaks(self):
        assert feature_number_peaks(np.array([0.0, 1.0, 0.0, 2.0, 0.0]), 1) == 2

    def test_constant_fft_zero_beyond_dc(self):
        x = np.full(8, 3.0)
        assert feature_fft_coefficient(x, 0) == (24.0, 0.0)
        for k in range(1, 8):
            assert feature_fft_coefficient(x, k)[0] == pytest.approx(0.0, abs=1e-12)


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        assert feature_autocorrelation(np.array([1.0, 5.0, 2.0]), 0) == 1.0

    def test_matches_population_definition(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(64)
        mu, var = x.mean(), x.var()
        for lag in (1, 5, 20):
            manual = np.mean((x[:-lag] - mu) * (x[lag:] - mu)) / var
            # the estimator divides the lagged sum by (n - lag)
            assert feature_autocorrelation(x, lag) == pytest.approx(manual, rel=1e-12)

    def test_zero_variance_is_nan(self):
        assert math.isnan(feature_autocorrelation(np.full(10, 2.0), 1))

    def test_lag_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            feature_autocorrelation(np.arange(5.0), 5)


class TestRangeCount:
    def test_half_open_semantics(self):
        x = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        assert feature_range_count(x, 0.5, 1.5) == 2       # 0.5 and 1.0; 1.5 excluded
        assert feature_range_count(x, 0.0, 2.0) == 4       # 2.0 excluded

    def test_bad_interval(self):
        with pytest.raises(BadInterval):
            feature_range_count(np.arange(3.0), 1.0, 1.0)

    def test_extraction_includes_channel_maximum(self):
        # the top catalog bin is closed just past the max, so the max value
        # lands in exactly one bin and the 8 bins partition the channel
        x = np.linspace(-1.0, 1.0, 64)
        vec = extract_features([x], catalog_default(1))
        cat = catalog_default(1)
        bins = [i for i, e in enumerate(cat.entries) if e.family == "range_count"]
        assert sum(int(vec.values[i]) for i in bins) == 64


class TestFft:
    def test_matches_manual_dft_four_points(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        for k in range(4):
            manual = sum(x[n] * np.exp(-2j * np.pi * k * n / 4) for n in range(4))
            got_abs, got_angle = feature_fft_coefficient(x, k)
            assert got_abs == pytest.approx(abs(manual), abs=1e-12)
            # compare angles on the unit circle to dodge the pi / -pi seam
            assert np.exp(1j * got_angle) == pytest.approx(np.exp(1j * np.angle(manual)), abs=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            feature_fft_coefficient(np.arange(4.0), 4)


class TestCwt:
    def test_kernel_center_value(self):
        for w in CWT_WIDTHS:
            ker = ricker_kernel(w)
            assert ker[len(ker) // 2] == pytest.approx(2.0 / (math.sqrt(3.0 * w) * math.pi**0.25))

    def test_kernel_symmetric_and_near_zero_mean(self):
        ker = ricker_kernel(5.0)
        assert np.allclose(ker, ker[::-1])
        assert abs(ker.sum()) < 1e-10

    def test_kernel_support(self):
        ker = ricker_kernel(2.0)
        assert len(ker) == 2 * 16 + 1              # |t| <= 8w sampled at integers

    def test_impulse_reads_back_kernel_center(self):
        x = np.zeros(41)
        x[20] = 1.0
        got = feature_cwt_coefficient(x, 2.0, 20)
        ker = ricker_kernel(2.0)
        assert got == pytest.approx(ker[len(ker) // 2])

    def test_bad_width(self):
        with pytest.raises(BadWidth):
            ricker_kernel(0.0)

    @staticmethod
    def _zero_padded_sums(x, width):
        """The CWT coefficients at the catalog's positions, each the sum of
        x[j] * kernel[p - j + half] over the samples the kernel covers."""
        ker = ricker_kernel(width)
        half = len(ker) // 2
        return [sum(x[j] * ker[p - j + half] for j in range(len(x)) if 0 <= p - j + half < len(ker))
                for p in cwt_positions(len(x))]

    def _check_against_zero_padded_sums(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        catalog = catalog_default(1)
        got = dict(zip(catalog.names, extract_features([x], catalog).values))
        for w in CWT_WIDTHS:
            want = self._zero_padded_sums(x, w)
            assert [got[f"cwt_w{w}_p{p}"] for p in range(16)] == pytest.approx(want, rel=1e-9, abs=1e-9), w

    def test_channel_longer_than_every_kernel_reads_zero_padded_sums(self):
        self._check_against_zero_padded_sums(512)

    @pytest.mark.xfail(strict=True, reason=(
        "np.convolve(mode='same') centres its output on the longer input, so for a channel "
        "shorter than the kernel (widths 10 and 20 at the EIS length 128) the coefficient "
        "is read at the wrong offset"))
    def test_channel_shorter_than_a_kernel_reads_zero_padded_sums(self):
        self._check_against_zero_padded_sums(128)

    def test_positions_are_rounded_linspace(self):
        assert list(cwt_positions(512, 16)) == [
            int(round(v)) for v in np.linspace(0, 511, 16)
        ]
        assert list(cwt_positions(16, 16)) == list(range(16))


class TestBasicBlock:
    def test_against_reference_formulas(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(128)
        cat = catalog_default(1)
        vec = extract_features([x], cat).values
        by_name = {e.name: vec[i] for i, e in enumerate(cat.entries)}
        assert by_name["mean"] == pytest.approx(x.mean(), rel=1e-12)
        assert by_name["std"] == pytest.approx(x.std(), rel=1e-12)
        assert by_name["variance"] == pytest.approx(x.var(), rel=1e-12)
        assert by_name["skewness"] == pytest.approx(scipy.stats.skew(x), rel=1e-9)
        assert by_name["kurtosis"] == pytest.approx(scipy.stats.kurtosis(x), rel=1e-9)
        assert by_name["min"] == x.min() and by_name["max"] == x.max()
        assert by_name["median"] == np.median(x)
        assert by_name["abs_energy"] == pytest.approx(np.sum(x * x), rel=1e-12)
        assert by_name["mean_abs_change"] == pytest.approx(np.abs(np.diff(x)).mean(), rel=1e-12)
        slope = np.polyfit(np.arange(len(x)), x, 1)[0]
        assert by_name["linear_trend_slope"] == pytest.approx(slope, rel=1e-9)
        assert by_name["count_above_mean"] == np.count_nonzero(x > x.mean())
        assert by_name["count_below_mean"] == np.count_nonzero(x < x.mean())


class TestExtraction:
    def test_constant_channel_imputes_autocorrelation(self):
        vec = extract_features([np.full(64, 2.0)], catalog_default(1))
        assert vec.imputed_count >= len(AUTOCORR_LAGS)      # nan -> 0 for each lag
        assert np.isfinite(vec.values).all()

    @pytest.mark.parametrize(
        "data",
        [
            # var > 0, but var**2 underflows to 0 and var**1.5 is subnormal
            [0.0] * 15 + [2.4e-107],
            # var**1.5 and var**2 overflow a float
            [1e150, -3e150] * 8,
        ],
    )
    def test_moments_at_extreme_scale_are_imputed(self, data):
        cat = catalog_default(1)
        vec = extract_features([np.array(data)], cat)
        assert np.isfinite(vec.values).all()
        by_name = {e.name: vec.values[i] for i, e in enumerate(cat.entries)}
        assert by_name["skewness"] == 0.0 and by_name["kurtosis"] == 0.0
        assert vec.imputed_count >= 2

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_channel_is_refused_by_name(self, bad):
        # at no point may numpy warn: the channel is refused before any arithmetic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="channel 0 holds NaN"):
                extract_features([np.array([0.0, 1.0, bad])], catalog_default(1))
            with pytest.raises(NonFiniteValue, match="channel 1 holds NaN"):
                extract_features([np.linspace(0.0, 1.0, 3), np.array([0.0, 1.0, bad])],
                                 catalog_default(2))

    def test_channel_count_mismatch(self):
        with pytest.raises(CatalogMismatch):
            extract_features([np.arange(16.0)], catalog_default(2))
        with pytest.raises(CatalogMismatch):
            extract_features([np.arange(16.0), np.arange(16.0)], catalog_default(1))

    def test_two_channel_blocks_are_independent(self):
        a, b = np.sin(np.linspace(0, 6, 96)), np.cos(np.linspace(0, 6, 96))
        two = extract_features([a, b], catalog_default(2)).values
        one_a = extract_features([a], catalog_default(1)).values
        one_b = extract_features([b], catalog_default(1)).values
        assert np.array_equal(two[:137], one_a)
        assert np.array_equal(two[137:], one_b)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=16, max_size=80
    )
)
def test_extraction_always_finite(data):
    vec = extract_features([np.array(data)], catalog_default(1))
    assert np.isfinite(vec.values).all()
    assert len(vec.values) == 137


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=4, max_size=50
    ),
    q=st.sampled_from(QUANTILE_QS),
)
def test_quantile_stays_in_envelope(data, q):
    x = np.array(data)
    v = feature_quantile(x, q)
    assert x.min() <= v <= x.max()


@pytest.fixture(scope="module")
def matrix():
    data = gen_dataset(demo_specs(0.01)[:3], cells_per_spec=2, cycles_per_cell=3, seed=5, n_points=128)
    return matrix_from_cycles(data, threads=2)


class TestMatrix:
    def test_shape_and_labels(self, matrix):
        assert matrix.values.shape == (18, 137)
        assert matrix.catalog_version == "v1:ch1"
        assert set(matrix.model_id) == {0, 1, 2}
        y, names = labels_for(matrix, "model")
        assert names == ("alpha", "bravo", "charlie")
        y2, names2 = labels_for(matrix, "architecture")
        assert names2 == ("layered-oxide", "olivine")

    def test_take_subset(self, matrix):
        sub = matrix_take(matrix, np.array([0, 5, 7]))
        assert sub.values.shape == (3, 137)
        assert list(sub.model_id) == [int(matrix.model_id[i]) for i in (0, 5, 7)]
        assert sub.model_names == matrix.model_names

    def test_records_are_processed_a_row_block_at_a_time(self, monkeypatch):
        # the first record alone, then blocks of BLOCK_ELEMENTS samples; a
        # 60-record EIS corpus of 2 x 128 samples is then one more map call
        calls = []

        def counted(fn, items, threads=1):
            calls.append(len(items))
            return ordered_map(fn, items, threads=threads)

        monkeypatch.setattr(features, "ordered_map", counted)
        data = gen_eis_dataset(demo_specs(0.01)[:3], cells_per_spec=4, sweeps_per_cell=5, seed=5)
        assert len(matrix_from_spectra(data, threads=2)) == 60
        assert calls == [1, 59]
        calls.clear()
        data = gen_dataset(demo_specs(0.01)[:3], cells_per_spec=2, cycles_per_cell=12, seed=5, n_points=128)
        matrix_from_cycles(data)
        step = features.BLOCK_ELEMENTS // 512
        assert calls == [1, step, step, 72 - 1 - 2 * step]

    def test_matrix_memory_does_not_grow_with_the_corpus(self):
        # the processed channels of one row block are held at a time: the
        # 1000-record corpus peaked at 6.9 MB while every record's channels
        # were held until extraction
        data = gen_dataset(demo_specs(noise_std=0.02), 10, 20, seed=7)
        tracemalloc.start()
        try:
            matrix = matrix_from_cycles(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(matrix) == 1000
        assert peak < 4 * 2**20
