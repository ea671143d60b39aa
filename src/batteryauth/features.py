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


def cwt_positions(n: int, count: int = CWT_POSITIONS) -> np.ndarray:
    """`count` sample indices spread evenly over a length-n series."""
    return np.round(np.linspace(0, n - 1, count)).astype(int)


# === whole-channel extraction ===

# Skewness and kurtosis divide by var**1.5 and var**2. Outside this range
# those powers underflow to 0 or overflow, so both are left undefined
# (nan, imputed like the zero-variance case).
_MOMENT_VAR_MIN = float(np.sqrt(np.finfo(float).tiny))
_MOMENT_VAR_MAX = float(np.sqrt(np.finfo(float).max))
_QUANTILE_Q = np.array(QUANTILE_QS)


def _basic_block(x: np.ndarray, mu: float, var: float, centered: np.ndarray) -> List[float]:
    n = len(x)
    std = float(np.sqrt(var))
    if _MOMENT_VAR_MIN <= var <= _MOMENT_VAR_MAX:
        m3 = float((centered**3).mean())
        m4 = float((centered**4).mean())
        skew = m3 / var**1.5
        kurt = m4 / var**2 - 3.0
    else:
        skew = float("nan")
        kurt = float("nan")
    diffs = np.abs(np.diff(x))
    mac = float(diffs.mean()) if n > 1 else 0.0
    if n > 1:
        t = np.arange(n, dtype=float)
        tc = t - t.mean()
        slope = float(np.dot(tc, centered) / np.dot(tc, tc))
    else:
        slope = 0.0
    return [
        mu, std, var, skew, kurt,
        float(x.min()), float(x.max()), float(np.median(x)),
        float(np.dot(x, x)), mac, slope,
        float(np.count_nonzero(x > mu)), float(np.count_nonzero(x < mu)),
    ]


def _quantiles(x: np.ndarray) -> List[float]:
    """feature_quantile for every q, in one call where that keeps the bits.

    Partitioning for all q at once can leave a different one of several
    equal samples at a given rank than partitioning for one q. Equal
    samples differ in their bits only as -0.0 and 0.0, so a series holding
    both takes one call per q.
    """
    zero_signs = np.signbit(x[x == 0])
    if zero_signs.any() and not zero_signs.all():
        return [float(np.quantile(x, q, method="linear")) for q in QUANTILE_QS]
    return np.quantile(x, _QUANTILE_Q, method="linear").tolist()


def _channel_block(x: np.ndarray) -> np.ndarray:
    """The 137 values of one channel, in catalog order (nan where undefined).

    One pass: the moments and the centred series feed the basic block and
    every autocorrelation lag, one quantile call covers all q, and the FFT
    and CWT read off whole arrays. Each entry equals its single-value
    calculator bit for bit.
    """
    if x.ndim != 1:
        raise DimensionMismatch(f"a channel must be 1-D, got shape {x.shape}")
    n = len(x)
    if n == 0:
        raise EmptySeries("cannot extract features from an empty channel")
    mu = float(x.mean())
    var = float(x.var())
    centered = x - mu
    out: List[float] = _basic_block(x, mu, var, centered)
    out.extend(_quantiles(x))
    out.extend(
        float(np.dot(centered[:-lag], centered[lag:])) / ((n - lag) * var)
        if lag < n and var != 0 else float("nan")
        for lag in AUTOCORR_LAGS
    )
    out.extend(float(feature_number_peaks(x, s)) for s in PEAK_SUPPORTS)
    lo, hi = float(x.min()), float(x.max())
    if hi > lo:
        edges = np.linspace(lo, hi, RANGE_BINS + 1)
        # last bin closed on the right so the bins partition every sample
        edges[-1] = np.nextafter(hi, np.inf)
        counts, _ = np.histogram(x, bins=edges)
        out.extend(float(c) for c in counts)
    else:
        out.extend([float("nan")] * RANGE_BINS)
    coeffs = np.fft.fft(x)[: len(FFT_KS)]
    missing = [float("nan")] * (len(FFT_KS) - len(coeffs))
    out.extend(np.abs(coeffs).tolist() + missing)
    out.extend(np.angle(coeffs).tolist() + missing)
    positions = cwt_positions(n)
    for w in CWT_WIDTHS:
        out.extend(np.convolve(x, ricker_kernel(w), mode="same")[positions].tolist())
    return np.asarray(out, dtype=float)


def extract_features(
    channels: Sequence[np.ndarray], catalog: FeatureCatalog
) -> FeatureVector:
    """Extract the catalog's features from the given channels, in order."""
    if len(channels) != catalog.channels:
        raise CatalogMismatch(
            f"catalog {catalog.version} expects {catalog.channels} channels, got {len(channels)}"
        )
    blocks = [_channel_block(np.asarray(ch, dtype=float)) for ch in channels]
    values = np.concatenate(blocks)
    if len(values) != len(catalog):
        raise CatalogMismatch(
            f"extracted {len(values)} values for a {len(catalog)}-entry catalog"
        )
    bad = ~np.isfinite(values)
    if bad.any():
        values = np.where(bad, 0.0, values)
    return FeatureVector(values=values, imputed_count=int(bad.sum()))


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
    for every record, in record order. The processing, extraction and map
    functions are read from this module when called, so a wrapper set on
    the module attribute sees every call."""
    catalog = catalog_default(channels)
    vectors = ordered_map(lambda rec: extract_features(channels_of(rec), catalog), data.records,
                          threads=threads)
    metas = tuple(r.meta for r in data.records)
    return FeatureMatrix(
        values=np.stack([fv.values for fv in vectors]),
        model_id=np.array([data.model_labels[m.battery_model] for m in metas], dtype=int),
        arch_id=np.array([data.arch_labels[m.architecture] for m in metas], dtype=int),
        metas=metas,
        catalog_version=catalog.version,
        feature_names=catalog.names,
        model_names=tuple(data.model_names),
        arch_names=tuple(data.arch_names),
        imputed_counts=np.array([fv.imputed_count for fv in vectors], dtype=int),
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
