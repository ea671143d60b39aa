"""Differential-capacity processing: cycle -> fixed-length dQ/dV series.

The chain is clean -> differentiate -> smooth -> resample:

1. ``clean_dca`` drops samples whose voltage sits within ``eps_volts`` of
   the last kept sample, so the finite-difference denominators below are
   bounded away from zero.
2. ``raw_differential_capacity`` forms (Q[i+1]-Q[i])/(V[i+1]-V[i]) at
   midpoint voltages.
3. ``savgol_smooth`` runs a Savitzky-Golay filter (mirror padding), in
   numpy alone.
4. ``resample_uniform`` interpolates onto a uniform voltage grid of fixed
   length so every cycle yields the same feature-extractor input shape.

Smoothing happens on the cleaned native grid, before resampling.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AllPointsDropped, BadInterval, BadWindow, DegenerateVoltageRange, TooShortCycle
from .records import CycleRecord, SampleMeta

DEFAULT_EPS_VOLTS = 1e-4
DEFAULT_SAVGOL_WINDOW = 51
DEFAULT_SAVGOL_POLYORDER = 3
DEFAULT_RESAMPLE_N = 512
# upper bounds, so that no config or model file asks for a huge array
MAX_SAVGOL_WINDOW = 1001
MAX_RESAMPLE_N = 4096


@dataclass(frozen=True)
class DcaConfig:
    eps_volts: float = DEFAULT_EPS_VOLTS
    savgol_window: int = DEFAULT_SAVGOL_WINDOW
    savgol_polyorder: int = DEFAULT_SAVGOL_POLYORDER
    resample_n: int = DEFAULT_RESAMPLE_N

    def __post_init__(self):
        # the bounds of every DcaConfig, from a run config or a model file;
        # each comparison is written so that NaN fails it
        if not self.eps_volts > 0:
            raise BadInterval(f"eps_volts: must be > 0, got {self.eps_volts}")
        if not (self.savgol_window >= 3 and self.savgol_window % 2 == 1):
            raise BadInterval(f"savgol_window: must be odd and >= 3, got {self.savgol_window}")
        if not self.savgol_window <= MAX_SAVGOL_WINDOW:
            raise BadInterval(f"savgol_window: must be <= {MAX_SAVGOL_WINDOW}, got {self.savgol_window}")
        if not 0 <= self.savgol_polyorder < self.savgol_window:
            raise BadInterval(f"savgol_polyorder: must be in [0, savgol_window), "
                              f"got {self.savgol_polyorder}")
        if not self.resample_n >= 8:
            raise BadInterval(f"resample_n: must be >= 8, got {self.resample_n}")
        if not self.resample_n <= MAX_RESAMPLE_N:
            raise BadInterval(f"resample_n: must be <= {MAX_RESAMPLE_N}, got {self.resample_n}")


@dataclass(frozen=True, eq=False)
class DcaSeries:
    """A dQ/dV series at some processing stage.

    ``grid_voltage`` holds the sample voltages; only at stage "resampled"
    is it guaranteed uniform with the configured length.
    """

    grid_voltage: np.ndarray
    dqdv: np.ndarray
    stage: str = "raw"
    meta: SampleMeta = field(default_factory=SampleMeta)

    def __len__(self) -> int:
        return len(self.grid_voltage)


def clean_dca(cycle: CycleRecord, eps_volts: float = DEFAULT_EPS_VOLTS) -> CycleRecord:
    """Drop samples whose voltage is within eps_volts of the last kept one.

    The first sample is always kept; the scan is a single forward pass, so
    the result is idempotent under re-cleaning with the same threshold.
    """
    if eps_volts <= 0:
        raise BadWindow(f"eps_volts must be > 0, got {eps_volts}")
    v = cycle.voltage
    keep = np.zeros(len(v), dtype=bool)
    keep[0] = True
    last = v[0]
    for i in range(1, len(v)):
        if abs(v[i] - last) >= eps_volts:
            keep[i] = True
            last = v[i]
    if keep.sum() < 2:
        raise AllPointsDropped(
            f"cleaning left {int(keep.sum())} of {len(v)} samples (eps_volts={eps_volts})"
        )
    return replace(cycle, voltage=v[keep], capacity=cycle.capacity[keep])


def raw_differential_capacity(cycle: CycleRecord) -> DcaSeries:
    """First-difference dQ/dV at midpoint voltages (length n-1).

    Zero voltage steps yield +/-inf (0/0 yields nan); the raw stage keeps
    them so the effect of skipping the cleaner is visible downstream.
    """
    if len(cycle) < 2:
        raise TooShortCycle(f"need at least 2 samples to differentiate, got {len(cycle)}")
    v, q = cycle.voltage, cycle.capacity
    dv = np.diff(v)
    dq = np.diff(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        dqdv = dq / dv
    mid = 0.5 * (v[:-1] + v[1:])
    return DcaSeries(grid_voltage=mid, dqdv=dqdv, stage="raw", meta=cycle.meta)


def clamp_window(window: int, length: int) -> int:
    """Largest odd window <= min(window, length)."""
    w = min(window, length)
    if w % 2 == 0:
        w -= 1
    return w


def savgol_smooth(series: DcaSeries, window: int, polyorder: int) -> DcaSeries:
    """Savitzky-Golay smoothing with mirror padding at the boundaries.

    Each interior point becomes the center value of the least-squares
    polynomial fit of the given degree over the window, which reproduces
    polynomials of degree <= polyorder exactly away from the edges.
    Mirror padding reflects about the end samples without repeating them.
    The weights are symmetric, so each output is the center term plus the
    weighted pair sums (x[i-j] + x[i+j]), added from the outermost pair
    inward. That is the summation order of scipy.signal.savgol_filter
    whenever its weights come out symmetric to machine epsilon (every
    polyorder <= 3), and there the two agree bit for bit.
    """
    n = len(series)
    if window % 2 == 0:
        raise BadWindow(f"window must be odd, got {window}")
    if window <= polyorder:
        raise BadWindow(f"window {window} must exceed polyorder {polyorder}")
    if window > n:
        raise BadWindow(f"window {window} exceeds series length {n}")
    if not np.all(np.isfinite(series.dqdv)):
        raise BadWindow("cannot smooth non-finite values; run clean_dca before differentiating")
    weights = savgol_weights(window, polyorder)
    half = window // 2
    # row k is the series shifted by offset k - half
    shifted = sliding_window_view(np.pad(series.dqdv, half, mode="reflect"), n)
    left = shifted[:half]  # offsets -half .. -1
    right = shifted[:half:-1]  # offsets +half .. +1
    terms = np.empty((half + 1, n))
    np.multiply(shifted[half], weights[half], out=terms[0])
    np.multiply(left + right, weights[:half, None], out=terms[1:])
    # a reduction over the leading axis adds the rows in order
    smoothed = terms.sum(axis=0)
    return replace(series, dqdv=smoothed, stage="smoothed")


@lru_cache(maxsize=64)
def savgol_weights(window: int, polyorder: int) -> np.ndarray:
    """The filter's weights; weight j applies to sample offset j - window//2.

    Least-squares solution for the value at offset 0 of a degree-polyorder
    polynomial: the first row of the pseudo-inverse of the Vandermonde
    matrix of the offsets. The returned array is read-only and shared.
    """
    if window % 2 == 0 or window <= polyorder:
        raise BadWindow(f"bad window/polyorder pair ({window}, {polyorder})")
    half = window // 2
    # solved over offsets from high to low, as scipy.signal.savgol_coeffs
    # does, then flipped: same rounding, so bit-identical weights
    offsets = np.arange(half, -half - 1, -1, dtype=float)
    vandermonde = offsets ** np.arange(polyorder + 1)[:, None]
    unit = np.zeros(polyorder + 1)
    unit[0] = 1.0
    weights = np.linalg.lstsq(vandermonde, unit, rcond=None)[0][::-1].copy()
    weights.flags.writeable = False
    return weights


def resample_uniform(series: DcaSeries, n: int = DEFAULT_RESAMPLE_N) -> DcaSeries:
    """Linear interpolation onto a uniform n-point voltage grid.

    Voltages are sorted first and exact duplicates averaged, so the input
    order does not matter. The grid spans [min V, max V] inclusive.
    """
    if n < 2:
        raise BadWindow(f"resample length must be >= 2, got {n}")
    v, y = series.grid_voltage, series.dqdv
    order = np.argsort(v, kind="stable")
    v, y = v[order], y[order]
    uniq, start = np.unique(v, return_index=True)
    if len(uniq) < 2:
        raise DegenerateVoltageRange("all voltages equal; cannot build a grid")
    if len(uniq) != len(v):
        sums = np.add.reduceat(y, start)
        counts = np.diff(np.append(start, len(v)))
        y = sums / counts
        v = uniq
    grid = np.linspace(v[0], v[-1], n)
    resampled = np.interp(grid, v, y)
    return replace(series, grid_voltage=grid, dqdv=resampled, stage="resampled")


def process_cycle(cycle: CycleRecord, config: DcaConfig = DcaConfig()) -> DcaSeries:
    """Full chain: clean -> differentiate -> smooth -> resample.

    The smoothing window is clamped to the largest odd value not exceeding
    the cleaned series length, so short cycles still process.
    """
    cleaned = clean_dca(cycle, eps_volts=config.eps_volts)
    series = raw_differential_capacity(cleaned)
    window = clamp_window(config.savgol_window, len(series))
    if window <= config.savgol_polyorder:
        raise BadWindow(
            f"series too short ({len(series)}) for polyorder {config.savgol_polyorder}"
        )
    smoothed = savgol_smooth(series, window=window, polyorder=config.savgol_polyorder)
    return resample_uniform(smoothed, n=config.resample_n)
