"""Impedance processing: EisSpectrum -> fixed-length Nyquist channels.

A sweep becomes two aligned channels on a uniform log10-frequency grid:
Re Z and -Im Z (the sign flip makes capacitive arcs positive, matching
Nyquist-plot convention). Keeping two separate channels lets the same
feature catalog serve both this pipeline (2 channels) and the
differential-capacity pipeline (1 channel).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadInterval, DegenerateFrequencyRange
from .records import EisSpectrum, SampleMeta

DEFAULT_RESAMPLE_M = 128
MAX_RESAMPLE_M = 4096       # upper bound, so that no config or model file asks for a huge array


@dataclass(frozen=True)
class EisConfig:
    resample_m: int = DEFAULT_RESAMPLE_M

    def __post_init__(self):
        # the bounds of every EisConfig, from a run config or a model file
        if not self.resample_m >= 8:
            raise BadInterval(f"resample_m: must be >= 8, got {self.resample_m}")
        if not self.resample_m <= MAX_RESAMPLE_M:
            raise BadInterval(f"resample_m: must be <= {MAX_RESAMPLE_M}, got {self.resample_m}")


@dataclass(frozen=True, eq=False)
class NyquistChannels:
    log_freq_grid: np.ndarray
    re_z: np.ndarray
    neg_im_z: np.ndarray
    meta: SampleMeta = field(default_factory=SampleMeta)

    def __len__(self) -> int:
        return len(self.log_freq_grid)


def resample_logfreq(spectrum: EisSpectrum, m: int = DEFAULT_RESAMPLE_M) -> NyquistChannels:
    """Interpolate Re Z and -Im Z onto a uniform log10(f) grid of m points."""
    if m < 2:
        raise DegenerateFrequencyRange(f"resample length must be >= 2, got {m}")
    logf = np.log10(spectrum.frequency)
    if logf[-1] <= logf[0]:
        raise DegenerateFrequencyRange("sweep spans a single frequency")
    grid = np.linspace(logf[0], logf[-1], m)
    re_z = np.interp(grid, logf, spectrum.z_real)
    neg_im_z = np.interp(grid, logf, -spectrum.z_imag)
    return NyquistChannels(log_freq_grid=grid, re_z=re_z, neg_im_z=neg_im_z, meta=spectrum.meta)


def process_spectrum(spectrum: EisSpectrum, config: EisConfig = EisConfig()) -> NyquistChannels:
    return resample_logfreq(spectrum, m=config.resample_m)
