"""Fixed feature catalog and deterministic extraction.

The catalog enumerates 137 named features per channel:

    13 basic statistics
     9 quantiles                (0.1 .. 0.9)
     7 autocorrelations         (lags 1, 2, 3, 5, 10, 20, 50)
     4 peak counts              (supports 1, 3, 5, 10)
     8 range counts             (8 equal sub-intervals of [min, max])
    32 FFT coefficients         (abs and angle, k = 0 .. 15)
    64 CWT coefficients         (Ricker widths 2, 5, 10, 20 at 16 positions)

Entry order is fixed and channel blocks are concatenated with ch0_/ch1_
prefixes when two channels are extracted, so a catalog version plus a
channel count fully determines vector layout. Non-finite results are
imputed to 0 and counted per vector.

Extraction works on stacks of channels: one block computes every entry of
every row of a (rows, n) stack with reductions along the last axis, so a
record's two EIS channels share one pass and a matrix builder extracts
its records a row block at a time. Each value equals, bit for bit, what
the single-value calculator gives on its channel alone. A channel holding
NaN or +/-inf is refused before any arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dca import DcaConfig, process_cycle
from .eis import EisConfig, process_spectrum
from .errors import (
    BadInterval,
    BadWidth,
    CatalogMismatch,
    DimensionMismatch,
    EmptySeries,
    IndexOutOfRange,
    NonFiniteValue,
    UnsupportedChannelCount,
)
from .parallel import ordered_map
from .records import DatasetCatalog, EisSpectrum, Record, SampleMeta

QUANTILE_QS = tuple(round(0.1 * i, 1) for i in range(1, 10))
AUTOCORR_LAGS = (1, 2, 3, 5, 10, 20, 50)
PEAK_SUPPORTS = (1, 3, 5, 10)
RANGE_BINS = 8
FFT_KS = tuple(range(16))
CWT_WIDTHS = (2, 5, 10, 20)
CWT_POSITIONS = 16

BASIC_FAMILIES = (
    "mean", "std", "variance", "skewness", "kurtosis", "min", "max", "median",
    "abs_energy", "mean_abs_change", "linear_trend_slope",
    "count_above_mean", "count_below_mean",
)

FEATURES_PER_CHANNEL = (
    len(BASIC_FAMILIES) + len(QUANTILE_QS) + len(AUTOCORR_LAGS) + len(PEAK_SUPPORTS)
    + RANGE_BINS + 2 * len(FFT_KS) + len(CWT_WIDTHS) * CWT_POSITIONS
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    family: str
    params: tuple


@dataclass(frozen=True)
class FeatureCatalog:
    entries: Tuple[CatalogEntry, ...]
    version: str
    channels: int

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(e.name for e in self.entries)


@dataclass(frozen=True, eq=False)
class FeatureVector:
    values: np.ndarray
    imputed_count: int


def _channel_entries(prefix: str) -> List[CatalogEntry]:
    entries = [CatalogEntry(prefix + fam, fam, ()) for fam in BASIC_FAMILIES]
    entries += [CatalogEntry(f"{prefix}quantile_{q}", "quantile", (q,)) for q in QUANTILE_QS]
    entries += [
        CatalogEntry(f"{prefix}autocorrelation_{lag}", "autocorrelation", (lag,))
        for lag in AUTOCORR_LAGS
    ]
    entries += [
        CatalogEntry(f"{prefix}number_peaks_{n}", "number_peaks", (n,)) for n in PEAK_SUPPORTS
    ]
    entries += [
        CatalogEntry(f"{prefix}range_count_{b}", "range_count", (b, RANGE_BINS))
        for b in range(RANGE_BINS)
    ]
    entries += [CatalogEntry(f"{prefix}fft_abs_{k}", "fft_abs", (k,)) for k in FFT_KS]
    entries += [CatalogEntry(f"{prefix}fft_angle_{k}", "fft_angle", (k,)) for k in FFT_KS]
    entries += [
        CatalogEntry(f"{prefix}cwt_w{w}_p{p}", "cwt", (w, p))
        for w in CWT_WIDTHS
        for p in range(CWT_POSITIONS)
    ]
    return entries


def catalog_default(channels: int) -> FeatureCatalog:
    """The versioned default catalog for 1 (dQ/dV) or 2 (EIS) channels."""
    if channels == 1:
        entries = _channel_entries("")
    elif channels == 2:
        entries = _channel_entries("ch0_") + _channel_entries("ch1_")
    else:
        raise UnsupportedChannelCount(f"channels must be 1 or 2, got {channels}")
    return FeatureCatalog(entries=tuple(entries), version=f"v1:ch{channels}", channels=channels)


# === single-feature calculators (exposed for direct verification) ===

def feature_quantile(x: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of sorted x."""
    x = np.asarray(x, dtype=float)
    if len(x) == 0:
        raise EmptySeries("quantile of an empty series")
    if not 0 < q < 1:
        raise BadInterval(f"q must lie in (0, 1), got {q}")
    return float(np.quantile(x, q, method="linear"))


def feature_autocorrelation(x: Sequence[float], lag: int) -> float:
    """R(l) = sum_t (x_t - mu)(x_{t+l} - mu) / ((n - l) * var), population moments.

    Returns nan on zero variance; extraction imputes that to 0.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if not 0 <= lag < n:
        raise IndexOutOfRange(f"lag {lag} out of range for series of length {n}")
    mu = x.mean()
    var = x.var()
    if var == 0:
        return float("nan")
    if lag == 0:
        return 1.0
    centered = x - mu
    num = float(np.dot(centered[:-lag], centered[lag:]))
    return num / ((n - lag) * var)


def feature_number_peaks(x: Sequence[float], support: int) -> int:
    """Count samples strictly greater than all `support` neighbors per side."""
    if support < 1:
        raise BadInterval(f"peak support must be >= 1, got {support}")
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 2 * support + 1:
        return 0
    core = x[support : n - support]
    ok = np.ones(len(core), dtype=bool)
    for j in range(1, support + 1):
        ok &= core > x[support - j : n - support - j]
        ok &= core > x[support + j : n - support + j]
    return int(ok.sum())


def feature_fft_coefficient(x: Sequence[float], k: int) -> Tuple[float, float]:
    """(abs, angle) of the k-th unnormalized DFT coefficient."""
    x = np.asarray(x, dtype=float)
    if not 0 <= k < len(x):
        raise IndexOutOfRange(f"k {k} out of range for series of length {len(x)}")
    coeff = np.fft.fft(x)[k]
    return float(np.abs(coeff)), float(np.angle(coeff))


@lru_cache(maxsize=64)
def ricker_kernel(width: float) -> np.ndarray:
    """Ricker (Mexican hat) wavelet sampled at integer offsets |t| <= 8*width.

    The returned array is read-only and shared.
    """
    if width <= 0:
        raise BadWidth(f"wavelet width must be > 0, got {width}")
    half = int(np.ceil(8 * width))
    t = np.arange(-half, half + 1, dtype=float)
    amp = 2.0 / (np.sqrt(3.0 * width) * np.pi**0.25)
    kernel = amp * (1.0 - t**2 / width**2) * np.exp(-(t**2) / (2.0 * width**2))
    kernel.setflags(write=False)
    return kernel


@lru_cache(maxsize=64)
def cwt_positions(n: int, count: int = CWT_POSITIONS) -> np.ndarray:
    """`count` sample indices spread evenly over a length-n series.

    The returned array is read-only and shared.
    """
    positions = np.round(np.linspace(0, n - 1, count)).astype(int)
    positions.setflags(write=False)
    return positions


# === whole-stack extraction ===

# Skewness and kurtosis divide by var**1.5 and var**2. Outside this range
# those powers underflow to 0 or overflow, so both are left undefined
# (nan, imputed like the zero-variance case).
_MOMENT_VAR_MIN = float(np.sqrt(np.finfo(float).tiny))
_MOMENT_VAR_MAX = float(np.sqrt(np.finfo(float).max))
# Samples (rows x length) one stacked block holds; bounds a block's
# temporaries to about 1 MB, whatever the corpus size.
BLOCK_ELEMENTS = 1 << 14


@lru_cache(maxsize=64)
def _centred_time(n: int) -> Tuple[np.ndarray, float]:
    """The sample indices 0..n-1 less their mean, and their sum of squares."""
    t = np.arange(n, dtype=float)
    tc = t - t.mean()
    tc.setflags(write=False)
    return tc, np.dot(tc, tc)


def _order_statistics(X: np.ndarray, S: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """np.median and feature_quantile (every q) of each row of X: (rows,)
    and (rows, 9), read off S, the stack sorted along its rows.

    The arithmetic is numpy's: the median averages the middle one or two
    samples, and the linear quantile sits at virtual index (n - 1) q and
    interpolates from the lower neighbour below gamma 0.5 and from the
    upper one from 0.5. A sort puts the same values at each rank as the
    partition numpy uses, but may write -0.0 as 0.0 (numpy's SIMD sort
    does), so a row of X holding -0.0 takes numpy's own calls, one per q.
    """
    n = X.shape[1]
    median = (S[:, n // 2 - 1] + S[:, n // 2]) / 2.0 if n % 2 == 0 else S[:, n // 2].copy()
    virtual = (n - 1) * np.array(QUANTILE_QS)
    below = np.floor(virtual).astype(np.intp)
    above = below + 1
    below[virtual >= n - 1] = above[virtual >= n - 1] = -1
    gamma = virtual - below
    a, b = S[:, below], S[:, above]
    diff = b - a
    quantiles = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    zero = X == 0
    if zero.any():
        for r in np.flatnonzero((zero & np.signbit(X)).any(axis=1)):
            median[r] = np.median(X[r])
            quantiles[r] = [np.quantile(X[r], q, method="linear") for q in QUANTILE_QS]
    return median, quantiles


def _block(X: np.ndarray) -> np.ndarray:
    """The 137 values of every row of a (rows, n) stack of finite channels,
    in catalog order (nan where undefined).

    One pass: reductions run along the last axis for all rows at once, and
    one sort serves the median, the quantiles and the range counts. Rows
    are visited one by one only where that keeps the bits: ``np.dot``
    (abs_energy, slope, autocorrelation lags), ``np.convolve`` (CWT),
    ``searchsorted`` (range counts, as ``np.histogram`` counts), and the
    Python-float powers that normalise skewness and kurtosis. Each entry
    equals its single-value calculator on the row alone, bit for bit.
    """
    rows, n = X.shape
    out = np.empty((rows, FEATURES_PER_CHANNEL))
    # np.mean and np.var: sums along the row over n
    mu = X.sum(axis=1) / n
    C = X - mu[:, None]
    var = (C * C).sum(axis=1) / n
    lo, hi = X.min(axis=1), X.max(axis=1)
    moments = np.flatnonzero((var >= _MOMENT_VAR_MIN) & (var <= _MOMENT_VAR_MAX))
    Cm = C if len(moments) == rows else C[moments]
    m3, m4 = (Cm**3).mean(axis=1).tolist(), (Cm**4).mean(axis=1).tolist()
    skew, kurt = np.full(rows, np.nan), np.full(rows, np.nan)
    for j, r in enumerate(moments.tolist()):
        v = float(var[r])
        skew[r], kurt[r] = m3[j] / v**1.5, m4[j] / v**2 - 3.0
    S = np.sort(X, axis=1)
    median, quantiles = _order_statistics(X, S)
    tc, tt = _centred_time(n)
    out[:, :13] = np.column_stack([
        mu, np.sqrt(var), var, skew, kurt, lo, hi, median,
        [np.dot(x, x) for x in X],
        np.abs(X[:, 1:] - X[:, :-1]).sum(axis=1) / (n - 1) if n > 1 else np.zeros(rows),
        [np.dot(tc, c) / tt for c in C] if n > 1 else np.zeros(rows),
        np.count_nonzero(X > mu[:, None], axis=1), np.count_nonzero(X < mu[:, None], axis=1),
    ])
    out[:, 13:22] = quantiles
    col = 22
    out[:, col:col + len(AUTOCORR_LAGS)] = np.nan
    for j, lag in enumerate(AUTOCORR_LAGS):
        if lag < n:
            dots = [np.dot(a, b) for a, b in zip(C[:, :-lag], C[:, lag:])]
            np.divide(dots, (n - lag) * var, out=out[:, col + j], where=var != 0)
    col += len(AUTOCORR_LAGS)
    # A peak of support s beats the largest of its s neighbours on each
    # side. The largest of s consecutive samples is the larger of two
    # overlapping windows of the widest power of two p <= s, and window
    # maxima of width p double from width 1.
    window_max = {1: X}
    while 2 * max(window_max) <= max(PEAK_SUPPORTS):
        w = max(window_max)
        window_max[2 * w] = np.maximum(window_max[w][:, :-w], window_max[w][:, w:])
    for j, s in enumerate(PEAK_SUPPORTS):
        out[:, col + j] = 0
        if n > 2 * s:
            p = 1 << (s.bit_length() - 1)
            M = window_max[p]
            W = np.maximum(M[:, :n - s + 1], M[:, s - p:n - p + 1])     # W[:, k] = max of X[:, k:k + s]
            core = X[:, s:n - s]
            out[:, col + j] = np.count_nonzero((core > W[:, :n - 2 * s]) & (core > W[:, s + 1:]), axis=1)
    col += len(PEAK_SUPPORTS)
    out[:, col:col + RANGE_BINS] = np.nan
    spread = np.flatnonzero(hi > lo)
    if len(spread):
        # np.linspace(lo, hi, RANGE_BINS + 1) of each row, as numpy computes
        # it: i * step + lo, or i / bins * delta + lo where the step underflows
        delta = hi[spread] - lo[spread]
        step = delta / RANGE_BINS
        i = np.arange(RANGE_BINS + 1.0)
        edges = np.where((step == 0)[:, None], (i / RANGE_BINS) * delta[:, None],
                         i * step[:, None]) + lo[spread, None]
        # last bin closed on the right so the bins partition every sample
        edges[:, -1] = np.nextafter(hi[spread], np.inf)
        # np.histogram's counts: the samples below each edge, differenced
        below = np.array([S[r].searchsorted(e) for r, e in zip(spread, edges)])
        out[spread, col:col + RANGE_BINS] = np.diff(below, axis=1)
    col += RANGE_BINS
    k = len(FFT_KS)
    coeffs = np.fft.fft(X, axis=1)[:, :k]
    out[:, col:col + 2 * k] = np.nan
    out[:, col:col + coeffs.shape[1]] = np.abs(coeffs)
    out[:, col + k:col + k + coeffs.shape[1]] = np.angle(coeffs)
    col += 2 * k
    positions = cwt_positions(n)
    for r, x in enumerate(X):
        out[r, col:] = np.concatenate(
            [np.convolve(x, ricker_kernel(w), mode="same")[positions] for w in CWT_WIDTHS])
    return out


def _channel(ch, i: int, where: str = "") -> np.ndarray:
    """Channel i as a 1-D float array, refused unless non-empty and finite."""
    x = np.asarray(ch, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(f"{where}channel {i} must be 1-D, got shape {x.shape}")
    if len(x) == 0:
        raise EmptySeries(f"{where}channel {i} is empty; cannot extract features")
    if not np.isfinite(x).all():
        raise NonFiniteValue(f"{where}channel {i} holds NaN or +/-inf; features need finite samples")
    return x


def _rows(channels: Sequence[np.ndarray]) -> np.ndarray:
    """(len(channels), 137) values: channels of one length share one block."""
    lengths = [len(x) for x in channels]
    out = np.empty((len(channels), FEATURES_PER_CHANNEL))
    for n in set(lengths):
        idx = [i for i, m in enumerate(lengths) if m == n]
        out[idx] = _block(np.stack([channels[i] for i in idx]))
    return out


def _impute(values: np.ndarray) -> np.ndarray:
    """Set non-finite values to 0 in place; the count per row (last axis)."""
    bad = ~np.isfinite(values)
    values[bad] = 0.0
    return np.count_nonzero(bad, axis=-1)


def extract_features(
    channels: Sequence[np.ndarray], catalog: FeatureCatalog
) -> FeatureVector:
    """Extract the catalog's features from the given channels, in order.

    A channel that is not 1-D, is empty or holds NaN or +/-inf is refused
    before any arithmetic.
    """
    if len(channels) != catalog.channels:
        raise CatalogMismatch(
            f"catalog {catalog.version} expects {catalog.channels} channels, got {len(channels)}"
        )
    values = _rows([_channel(ch, i) for i, ch in enumerate(channels)]).ravel()
    return FeatureVector(values=values, imputed_count=int(_impute(values)))


# === feature matrices ===

@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Rectangular feature rows plus per-row class labels and metadata."""

    values: np.ndarray                 # (n, F)
    model_id: np.ndarray               # (n,)
    arch_id: np.ndarray                # (n,)
    metas: Tuple[SampleMeta, ...]
    catalog_version: str
    feature_names: Tuple[str, ...]
    model_names: Tuple[str, ...]       # class id -> label
    arch_names: Tuple[str, ...]
    imputed_counts: np.ndarray         # (n,)
    # the processing that made the rows; None for a matrix built by hand
    processing: Optional[Union[DcaConfig, EisConfig]] = None

    def __len__(self) -> int:
        return len(self.values)


def matrix_take(matrix: FeatureMatrix, idx: np.ndarray) -> FeatureMatrix:
    """Row subset / reorder: the per-row fields follow ``idx``; every other
    field is carried as it is."""
    idx, n = np.asarray(idx), len(matrix)
    if idx.size and not (idx.dtype.kind in "iu" and 0 <= idx.min() and idx.max() < n):
        raise IndexOutOfRange(f"row indices must be integers in [0, {n}), got {idx.dtype} indices")
    idx = idx.astype(int)
    return replace(matrix, values=matrix.values[idx], model_id=matrix.model_id[idx],
                   arch_id=matrix.arch_id[idx], metas=tuple(matrix.metas[i] for i in idx),
                   imputed_counts=matrix.imputed_counts[idx])


def labels_for(matrix: FeatureMatrix, target: str) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """(class ids, id->name table) for target "model" or "architecture"."""
    if target == "model":
        return matrix.model_id, matrix.model_names
    if target == "architecture":
        return matrix.arch_id, matrix.arch_names
    raise CatalogMismatch(f"unknown label target {target!r}")


def _matrix(
    data: DatasetCatalog, processing: Union[DcaConfig, EisConfig], channels: int,
    channels_of: Callable[[Record], Sequence[np.ndarray]], threads: int,
) -> FeatureMatrix:
    """Extract the ``channels``-channel catalog from ``channels_of(record)``
    for every record, in record order.

    Processing runs through ``ordered_map``; extraction then takes the
    records' channels as stacks of up to ``BLOCK_ELEMENTS`` samples. The
    processing and map functions are read from this module when called, so
    a wrapper set on the module attribute sees every call."""
    catalog = catalog_default(channels)

    def process(rec: Record) -> List[np.ndarray]:
        return [_channel(ch, i, f"record {rec.meta.cell_id}/{rec.meta.cycle_index}: ")
                for i, ch in enumerate(channels_of(rec))]

    processed = ordered_map(process, data.records, threads=threads)
    values = np.empty((len(processed), len(catalog)))
    step = max(1, BLOCK_ELEMENTS // sum(len(x) for x in processed[0])) if processed else 1
    for s in range(0, len(processed), step):
        block = _rows([x for chans in processed[s:s + step] for x in chans])
        values[s:s + step] = block.reshape(-1, len(catalog))
    imputed = _impute(values)
    metas = tuple(r.meta for r in data.records)
    return FeatureMatrix(
        values=values,
        model_id=np.array([data.model_labels[m.battery_model] for m in metas], dtype=int),
        arch_id=np.array([data.arch_labels[m.architecture] for m in metas], dtype=int),
        metas=metas,
        catalog_version=catalog.version,
        feature_names=catalog.names,
        model_names=tuple(data.model_names),
        arch_names=tuple(data.arch_names),
        imputed_counts=imputed.astype(int),
        processing=processing,
    )


def matrix_from_cycles(
    data: DatasetCatalog,
    config: DcaConfig = DcaConfig(),
    threads: int = 1,
) -> FeatureMatrix:
    """Process every cycle record and extract the 1-channel catalog."""
    return _matrix(data, config, 1, lambda rec: [process_cycle(rec, config).dqdv], threads)


def matrix_from_spectra(
    data: DatasetCatalog,
    config: EisConfig = EisConfig(),
    threads: int = 1,
) -> FeatureMatrix:
    """Process every EIS sweep and extract the 2-channel catalog."""
    def channels_of(rec: EisSpectrum) -> List[np.ndarray]:
        ch = process_spectrum(rec, config)
        return [ch.re_z, ch.neg_im_z]

    return _matrix(data, config, 2, channels_of, threads)
