"""Code that only the tests use, kept out of the package.

- ``spec_to_json_dict`` and ``specs_to_json`` write cell specs in the
  format ``batteryauth.synth.specs_from_json`` reads;
- ``records_equal`` compares two records field by field, arrays exactly;
- ``feature_range_count`` and ``feature_cwt_coefficient`` compute one
  catalog entry each, the oracles of the stacked feature block;
- ``clean_keep_mask`` is the cleaning scan as ``dca.clean_dca`` first
  wrote it, over numpy scalars.
"""
import json
from dataclasses import asdict

import numpy as np

from batteryauth.errors import BadInterval, IndexOutOfRange
from batteryauth.features import ricker_kernel
from batteryauth.records import CycleRecord


# === spec files ===

def spec_to_json_dict(spec) -> dict:
    """A cell spec as its JSON object: the dataclass fields, with the
    circuit parameters keyed by name."""
    data = asdict(spec)
    data["randles"] = dict(zip(("r0", "rct", "cdl", "warburg_sigma"), spec.randles))
    return data


def specs_to_json(specs) -> str:
    return json.dumps([spec_to_json_dict(s) for s in specs], sort_keys=True, indent=2) + "\n"


# === records ===

def records_equal(a, b) -> bool:
    """Field-wise equality (arrays compared exactly). Used by round-trip tests."""
    if type(a) is not type(b) or a.meta != b.meta:
        return False
    if isinstance(a, CycleRecord):
        return (
            a.cycle_kind == b.cycle_kind
            and np.array_equal(a.voltage, b.voltage)
            and np.array_equal(a.capacity, b.capacity)
        )
    return (
        np.array_equal(a.frequency, b.frequency)
        and np.array_equal(a.z_real, b.z_real)
        and np.array_equal(a.z_imag, b.z_imag)
    )


# === single-feature calculators ===

def feature_range_count(x, lo: float, hi: float) -> int:
    """Count samples with lo <= x < hi."""
    if not lo < hi:
        raise BadInterval(f"need lo < hi, got [{lo}, {hi})")
    x = np.asarray(x, dtype=float)
    return int(np.count_nonzero((x >= lo) & (x < hi)))


def feature_cwt_coefficient(x, width: float, position: int) -> float:
    """Ricker-wavelet convolution value at `position` (zero-padded edges)."""
    x = np.asarray(x, dtype=float)
    if not 0 <= position < len(x):
        raise IndexOutOfRange(f"position {position} out of range for length {len(x)}")
    conv = np.convolve(x, ricker_kernel(width), mode="same")
    return float(conv[position])


# === processing ===

def clean_keep_mask(voltage, eps_volts: float) -> np.ndarray:
    """The samples ``dca.clean_dca`` keeps: each one at least eps_volts
    from the last kept sample, the first always kept."""
    v = np.asarray(voltage)
    keep = np.zeros(len(v), dtype=bool)
    keep[0] = True
    last = v[0]
    for i in range(1, len(v)):
        if abs(v[i] - last) >= eps_volts:
            keep[i] = True
            last = v[i]
    return keep
