"""The stacked feature block against the single-value calculators.

``_block`` computes the 137 values of every row of a (rows, n) stack of
channels together. Each entry of each row must equal, bit for bit, what
the matching single-value calculator gives for that row alone; the basic
statistics must equal the per-statistic formulas of a one-channel pass.
Stacks mix the special series (constant, signed zeros, powers that
overflow or underflow) with ordinary ones. The feature matrices of the
benchmark preset are pinned by sha256, however they are cut into row
blocks.
"""
import hashlib
import math
import os

import numpy as np
import pytest
from reference import feature_cwt_coefficient, feature_range_count

from batteryauth import features
from batteryauth.dca import process_cycle
from batteryauth.eis import process_spectrum
from batteryauth.features import (
    _block,
    catalog_default,
    cwt_positions,
    extract_features,
    feature_autocorrelation,
    feature_fft_coefficient,
    feature_number_peaks,
    feature_quantile,
    matrix_from_cycles,
    matrix_from_spectra,
    ricker_kernel,
)
from batteryauth.synth import gen_dataset, gen_eis_dataset, specs_from_json

PRESET = os.path.join(os.path.dirname(__file__), "..", "perfbench", "presets", "hard_cells.json")

# sha256 of FeatureMatrix.values (float64, C order) on the preset, recorded
# with the per-entry extraction that preceded the one-pass block
DCA_MATRIX_SHA = "ed9530cd730c5ee2b0b71acd98c97e114eba771ea20d40230dae60e107661e95"
EIS_MATRIX_SHA = "e197e34f3af0fbeb358301f37745a727e9858c252b481042af36917a7606f73a"


@pytest.fixture(scope="module")
def preset_data():
    with open(PRESET, encoding="utf-8") as fh:
        specs = specs_from_json(fh.read())
    dca = gen_dataset(specs, cells_per_spec=2, cycles_per_cell=6, seed=7, n_points=256)
    eis = gen_eis_dataset(specs, cells_per_spec=2, sweeps_per_cell=5, seed=7)
    return dca, eis


def _basic_reference(x):
    """The basic statistics as the block computed them one by one."""
    n = len(x)
    mu = float(x.mean())
    var = float(x.var())
    centered = x - mu
    if math.sqrt(np.finfo(float).tiny) <= var <= math.sqrt(np.finfo(float).max):
        skew = float((centered**3).mean()) / var**1.5
        kurt = float((centered**4).mean()) / var**2 - 3.0
    else:
        skew = kurt = float("nan")
    mac = float(np.abs(np.diff(x)).mean()) if n > 1 else 0.0
    if n > 1:
        t = np.arange(n, dtype=float)
        tc = t - t.mean()
        slope = float(np.dot(tc, centered) / np.dot(tc, tc))
    else:
        slope = 0.0
    return [mu, float(np.sqrt(var)), var, skew, kurt, float(x.min()), float(x.max()),
            float(np.median(x)), float(np.dot(x, x)), mac, slope,
            float(np.count_nonzero(x > mu)), float(np.count_nonzero(x < mu))]


def _reference(x, entry):
    """The single-value calculator's value for one catalog entry (nan where
    the block leaves the entry undefined)."""
    n = len(x)
    nan = float("nan")
    if entry.family == "quantile":
        return feature_quantile(x, entry.params[0])
    if entry.family == "autocorrelation":
        lag = entry.params[0]
        return feature_autocorrelation(x, lag) if lag < n else nan
    if entry.family == "number_peaks":
        return float(feature_number_peaks(x, entry.params[0]))
    if entry.family == "range_count":
        b, bins = entry.params
        lo, hi = float(x.min()), float(x.max())
        if not hi > lo:
            return nan
        edges = np.linspace(lo, hi, bins + 1)
        edges[-1] = np.nextafter(hi, np.inf)
        if not edges[b] < edges[b + 1]:
            return 0.0      # over a range of a few subnormal steps, edges coincide
        return float(feature_range_count(x, edges[b], edges[b + 1]))
    if entry.family in ("fft_abs", "fft_angle"):
        k = entry.params[0]
        if k >= n:
            return nan
        return feature_fft_coefficient(x, k)[0 if entry.family == "fft_abs" else 1]
    if entry.family == "cwt":
        w, p = entry.params
        return feature_cwt_coefficient(x, w, int(cwt_positions(n)[p]))
    raise AssertionError(entry.family)


def _assert_same(got, want, label):
    if math.isnan(want):
        assert math.isnan(got), label
    else:
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (
            label, got, want)


def _check_rows(X):
    """Every entry of every row of ``_block(X)`` against its row alone."""
    block = _block(X)
    entries = catalog_default(1).entries
    assert block.shape == (len(X), len(entries))
    for x, values in zip(X, block):
        basic = _basic_reference(x)
        for i, entry in enumerate(entries):
            want = basic[i] if i < len(basic) else _reference(x, entry)
            _assert_same(float(values[i]), float(want), (entry.name, len(x)))


def _series(preset_data):
    dca, eis = preset_data
    out = [process_cycle(r).dqdv for r in dca.records]
    for r in eis.records:
        ch = process_spectrum(r)
        out += [ch.re_z, ch.neg_im_z]
    rng = np.random.default_rng(3)
    out += [
        np.full(64, 2.5),                           # constant: undefined moments and lags
        np.array([4.0]),                            # length 1
        rng.standard_normal(5),                     # length 5: most lags and bins missing
        rng.standard_normal(2),
        rng.standard_normal(512) * 1e200,           # powers overflow
        np.round(rng.standard_normal(300) * 3),     # ties
        np.tile([1.0, -1.0], 40),                   # alternating
        np.array([0.0] * 15 + [2.4e-107]),          # powers underflow
        np.array([0.0, -0.0, 1.0, -0.0, 0.0, 2.0, -1.0, -0.0] * 3),   # both signed zeros
    ]
    return out


def _special_stack(n, seed):
    """Ordinary rows and every special series, padded to length n, in one
    stack, so that no row's branch can leak into another's."""
    rng = np.random.default_rng(seed)
    underflow = np.zeros(n)
    underflow[-1] = 2.4e-107
    # max - min is two subnormal steps: np.linspace's step underflows to 0
    tiny_range = np.zeros(n)
    tiny_range[n // 2] = 1e-323
    rows = [
        rng.standard_normal(n),
        np.full(n, 2.5),                                            # constant
        np.resize([0.0, -0.0, 1.0, -0.0, 0.0, 2.0, -1.0, -0.0], n),  # both signed zeros
        np.resize([-0.0, 1.0, -2.0, 3.0], n),                       # -0.0, no 0.0
        np.resize([-0.0, -0.0, 1.0, -1.0, -0.0], n),                # -0.0 at the middle ranks
        np.where(rng.random(n) < 0.5, 0.0, -0.0) * (rng.random(n) < 0.7)
        + np.round(rng.standard_normal(n)),                         # signed zeros at random
        np.round(rng.standard_normal(n)),                           # ties, both zeros likely
        rng.standard_normal(n) * 1e200,                             # powers overflow
        underflow,                                                  # powers underflow
        tiny_range,
        np.cumsum(rng.standard_normal(n)),
        np.tile([1.0, -1.0], n)[:n],                                # alternating
        np.minimum(np.arange(n), np.arange(n)[::-1]) * 1.0,         # one peak of every support
    ]
    return np.stack([rows[i] for i in rng.permutation(len(rows))])


def test_every_entry_equals_its_calculator(preset_data):
    series = _series(preset_data)
    assert len(series) >= 145
    with np.errstate(over="ignore", invalid="ignore"):      # the 1e200 series
        for x in series:
            _check_rows(np.asarray(x, dtype=float)[None])


def test_every_row_of_a_stack_equals_its_calculators(preset_data):
    # the preset's channels, one stack per length, as a matrix builder cuts them
    by_length = {}
    for x in _series(preset_data):
        by_length.setdefault(len(x), []).append(x)
    assert max(len(v) for v in by_length.values()) >= 60
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in by_length.values():
            _check_rows(np.stack(rows))
        # 3, 7, 11 and 21 fit one peak of support 1, 3, 5 and 10 exactly
        for seed, n in enumerate((1, 2, 3, 5, 7, 11, 16, 21, 51, 128, 512)):
            _check_rows(_special_stack(n, seed))
        # rounding leaves -0.0 and 0.0 at random ranks, quantile ranks among them
        rng = np.random.default_rng(7)
        for n in (32, 177, 235):
            _check_rows(np.round(rng.standard_normal((30, n)) * 2))


def test_a_record_equals_its_channels_extracted_alone(preset_data):
    _, eis = preset_data
    one, two = catalog_default(1), catalog_default(2)
    a, b = np.sin(np.linspace(0, 6, 96)), np.cos(np.linspace(0, 5, 50))   # unequal lengths too
    pairs = [(ch.re_z, ch.neg_im_z) for ch in map(process_spectrum, eis.records)] + [(a, b)]
    for re_z, neg_im_z in pairs:
        both = extract_features([re_z, neg_im_z], two)
        alone = [extract_features([x], one) for x in (re_z, neg_im_z)]
        assert np.array_equal(both.values, np.concatenate([v.values for v in alone]))
        assert both.imputed_count == sum(v.imputed_count for v in alone)


def test_cached_kernels_are_read_only():
    with pytest.raises(ValueError):
        ricker_kernel(5)[0] = 0
    with pytest.raises(ValueError):
        cwt_positions(64)[0] = 1


def _sha(matrix):
    values = np.ascontiguousarray(matrix.values, dtype="<f8")
    return hashlib.sha256(values.tobytes()).hexdigest()


def test_preset_feature_matrices_are_pinned(preset_data):
    dca, eis = preset_data
    assert _sha(matrix_from_cycles(dca)) == DCA_MATRIX_SHA
    assert _sha(matrix_from_spectra(eis)) == EIS_MATRIX_SHA


@pytest.mark.parametrize("elements", [1, 600, 5000])
def test_row_blocks_leave_the_matrices_alone(preset_data, monkeypatch, elements):
    # one record per block, a few per block, and blocks that end mid-corpus
    monkeypatch.setattr(features, "BLOCK_ELEMENTS", elements)
    dca, eis = preset_data
    cycles, spectra = matrix_from_cycles(dca), matrix_from_spectra(eis, threads=2)
    assert _sha(cycles) == DCA_MATRIX_SHA and _sha(spectra) == EIS_MATRIX_SHA
    assert not cycles.imputed_counts.any() and not spectra.imputed_counts.any()
