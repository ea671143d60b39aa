"""Synthetic cell lab: known-answer cycle and impedance generators.

Each synthetic cell type is a small parameter bundle: a Gaussian peak
mixture that defines its differential-capacity signature, and a Randles
circuit (series resistance, charge-transfer resistance in parallel with
a double-layer capacitance, plus a Warburg diffusion tail) that defines
its impedance. Because every generated record has a closed-form ground
truth, the full pipeline can be verified end to end on a desk without
any external measurement campaign. No electrochemical fidelity is
claimed beyond the qualitative shapes.
"""
from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import BadSpec
from .records import (
    CycleRecord,
    DatasetCatalog,
    EisSpectrum,
    Record,
    SampleMeta,
    build_catalog,
    make_cycle,
    make_spectrum,
)
from .seeding import child_seed, rng_from

FREQ_LO_HZ = 0.01
FREQ_HI_HZ = 1.0e4
SOH_START = 100.0
SOH_END = 80.0
MIN_CYCLE_POINTS = 64
MIN_FREQ_POINTS = 8

# Condition anchors: parameter maps are affine around these references.
SOC_REF = 50.0
TEMP_REF_C = 25.0

# Documented affine coefficients (per % SOC, per deg C). Signs follow the
# usual qualitative behaviour: resistances shrink as temperature or SOC
# rises, double-layer capacitance grows slightly with temperature.
R0_SOC_COEF = -0.0008
R0_TEMP_COEF = -0.004
RCT_SOC_COEF = -0.006
RCT_TEMP_COEF = -0.012
CDL_TEMP_COEF = 0.004
WARBURG_SOC_COEF = -0.004
_MIN_FACTOR = 0.05          # keeps every primed parameter positive


@dataclass(frozen=True)
class SohDrift:
    """Linear ageing model: per percent of SOH lost below 100."""

    peak_shift_v_per_percent: float = 0.0
    amplitude_fade_per_percent: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise BadSpec(f"soh_drift.{f.name} must be finite, got {getattr(self, f.name)}")


@dataclass(frozen=True)
class SyntheticCellSpec:
    """A cell type; it checks its own bounds when made, so every spec in use is valid."""

    name: str
    architecture: str
    dca_peaks: Tuple[Tuple[float, float, float], ...]   # (mean V, amplitude Ah/V, width V)
    voltage_window: Tuple[float, float]
    randles: Tuple[float, float, float, float]          # (r0, rct, cdl, warburg_sigma)
    noise_std: float = 0.0
    soh_drift: SohDrift = field(default_factory=SohDrift)
    dca_baseline: float = 0.05

    def __post_init__(self) -> None:
        # each comparison is written so that NaN fails it; the last loop refuses infinities
        if len(self.voltage_window) != 2:
            raise BadSpec(f"{self.name}: voltage_window must have exactly 2 entries")
        v_lo, v_hi = self.voltage_window
        if not v_lo < v_hi:
            raise BadSpec(f"{self.name}: voltage window must satisfy v_lo < v_hi, got {self.voltage_window}")
        for mu, amp, width in self.dca_peaks:
            if not v_lo <= mu <= v_hi:
                raise BadSpec(f"{self.name}: peak mean {mu} outside window {self.voltage_window}")
            if not width > 0:
                raise BadSpec(f"{self.name}: peak width must be > 0, got {width}")
            if not amp >= 0:
                raise BadSpec(f"{self.name}: peak amplitude must be >= 0, got {amp}")
        if not all(p >= 0 for p in self.randles):
            raise BadSpec(f"{self.name}: circuit parameters must be >= 0, got {self.randles}")
        if not self.noise_std >= 0:
            raise BadSpec(f"{self.name}: noise_std must be >= 0")
        if not self.dca_baseline >= 0:
            raise BadSpec(f"{self.name}: dca_baseline must be >= 0")
        for name in ("voltage_window", "dca_peaks", "randles", "noise_std", "dca_baseline"):
            if not np.isfinite(getattr(self, name)).all():
                raise BadSpec(f"{self.name}: {name} must be finite, got {getattr(self, name)}")


def dca_ground_truth(spec: SyntheticCellSpec, voltage: np.ndarray, soh_percent: float) -> np.ndarray:
    """Noiseless dQ/dV at the given voltages: faded, shifted peak mixture."""
    lost = SOH_START - soh_percent
    fade = max(0.0, 1.0 - spec.soh_drift.amplitude_fade_per_percent * lost)
    shift = spec.soh_drift.peak_shift_v_per_percent * lost
    out = np.full_like(voltage, spec.dca_baseline, dtype=float)
    for mu, amp, width in spec.dca_peaks:
        out += amp * fade * np.exp(-((voltage - mu - shift) ** 2) / (2.0 * width**2))
    return out


def gen_cycle(
    spec: SyntheticCellSpec,
    soh_percent: float,
    n_points: int = 512,
    seed: int = 0,
    cell_id: str = "synth-cell",
    cycle_index: int = 0,
    dataset_id: str = "synth",
) -> CycleRecord:
    """One charge cycle: Q(V) as the cumulative trapezoid of the peak mixture.

    Noise perturbs the capacity increments multiplicatively (relative std
    ``spec.noise_std``), which keeps Q monotone for any realistic noise
    level; additive noise on Q itself would break the charge-cycle
    monotonicity contract that ingestion enforces.
    """
    if n_points < MIN_CYCLE_POINTS:
        raise BadSpec(f"n_points must be >= {MIN_CYCLE_POINTS}, got {n_points}")
    v_lo, v_hi = spec.voltage_window
    voltage = np.linspace(v_lo, v_hi, n_points)
    dqdv = dca_ground_truth(spec, voltage, soh_percent)
    dv = voltage[1] - voltage[0]
    increments = 0.5 * (dqdv[:-1] + dqdv[1:]) * dv
    if spec.noise_std > 0:
        rng = rng_from(seed, "cycle")
        increments = increments * (1.0 + spec.noise_std * rng.standard_normal(len(increments)))
    capacity = np.concatenate([[0.0], np.cumsum(increments)])
    meta = SampleMeta(
        dataset_id=dataset_id,
        cell_id=cell_id,
        battery_model=spec.name,
        architecture=spec.architecture,
        soh_percent=float(soh_percent),
        cycle_index=int(cycle_index),
    )
    return make_cycle(voltage, capacity, "charge", meta)


def randles_impedance(
    freq_hz: np.ndarray, r0: float, rct: float, cdl: float, warburg_sigma: float
) -> np.ndarray:
    """Complex Z(omega) of the series R + (Rct parallel Cdl) + Warburg circuit."""
    w = 2.0 * np.pi * np.asarray(freq_hz, dtype=float)
    z = r0 + rct / (1.0 + 1j * w * rct * cdl)
    if warburg_sigma > 0:
        z = z + warburg_sigma * (1.0 - 1j) / np.sqrt(w)
    return z


def condition_factors(soc_percent: float, temperature_c: float) -> Tuple[float, float, float, float]:
    """Multipliers for (r0, rct, cdl, warburg) at the given condition."""
    d_soc = soc_percent - SOC_REF
    d_t = temperature_c - TEMP_REF_C
    f_r0 = max(_MIN_FACTOR, 1.0 + R0_SOC_COEF * d_soc + R0_TEMP_COEF * d_t)
    f_rct = max(_MIN_FACTOR, 1.0 + RCT_SOC_COEF * d_soc + RCT_TEMP_COEF * d_t)
    f_cdl = max(_MIN_FACTOR, 1.0 + CDL_TEMP_COEF * d_t)
    f_w = max(_MIN_FACTOR, 1.0 + WARBURG_SOC_COEF * d_soc)
    return f_r0, f_rct, f_cdl, f_w


def gen_eis(
    spec: SyntheticCellSpec,
    soc_percent: float = SOC_REF,
    temperature_c: float = TEMP_REF_C,
    n_freq: int = 128,
    seed: int = 0,
    cell_id: str = "synth-cell",
    cycle_index: int = 0,
    dataset_id: str = "synth",
    soh_percent: float = SOH_START,
) -> EisSpectrum:
    """One impedance sweep on a log grid from 10 mHz to 10 kHz."""
    if n_freq < MIN_FREQ_POINTS:
        raise BadSpec(f"n_freq must be >= {MIN_FREQ_POINTS}, got {n_freq}")
    freq = np.logspace(np.log10(FREQ_LO_HZ), np.log10(FREQ_HI_HZ), n_freq)
    r0, rct, cdl, sigma = spec.randles
    f_r0, f_rct, f_cdl, f_w = condition_factors(soc_percent, temperature_c)
    z = randles_impedance(freq, r0 * f_r0, rct * f_rct, cdl * f_cdl, sigma * f_w)
    re, im = z.real.copy(), z.imag.copy()
    if spec.noise_std > 0:
        rng = rng_from(seed, "eis")
        re = re * (1.0 + spec.noise_std * rng.standard_normal(len(re)))
        im = im * (1.0 + spec.noise_std * rng.standard_normal(len(im)))
    meta = SampleMeta(
        dataset_id=dataset_id,
        cell_id=cell_id,
        battery_model=spec.name,
        architecture=spec.architecture,
        soc_percent=float(soc_percent),
        soh_percent=float(soh_percent),
        temperature_c=float(temperature_c),
        cycle_index=int(cycle_index),
    )
    return make_spectrum(freq, re, im, meta)


def _corpus(
    specs: Sequence[SyntheticCellSpec],
    cells_per_spec: int,
    per_cell: int,
    make: Callable[[SyntheticCellSpec, int, int, str, float], Record],
) -> DatasetCatalog:
    """``per_cell`` records of every cell of every spec, in spec, cell and
    record order; each cell ages linearly from 100% to 80% SOH.
    ``make(spec, cell, index, cell_id, soh_percent)`` makes one record."""
    if len(specs) < 2:
        raise BadSpec("dataset generation needs >= 2 cell specs for classification use")
    if cells_per_spec < 1 or per_cell < 1:
        raise BadSpec("cells_per_spec and records per cell must be >= 1")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise BadSpec(f"spec names must be unique, got {names}")
    soh_path = np.linspace(SOH_START, SOH_END, per_cell)
    return build_catalog([
        make(spec, cell, i, f"{spec.name}-c{cell:02d}", float(soh_path[i]))
        for spec in specs
        for cell in range(cells_per_spec)
        for i in range(per_cell)
    ])


def gen_dataset(
    specs: Sequence[SyntheticCellSpec],
    cells_per_spec: int = 10,
    cycles_per_cell: int = 20,
    seed: int = 0,
    n_points: int = 512,
) -> DatasetCatalog:
    """Cycle corpus: every cell ages linearly from 100% to 80% SOH."""
    def cycle(spec, cell, cyc, cell_id, soh):
        return gen_cycle(spec, soh_percent=soh, n_points=n_points,
                         seed=child_seed(seed, "cycle", spec.name, cell, cyc),
                         cell_id=cell_id, cycle_index=cyc, dataset_id="synth-dca")

    return _corpus(specs, cells_per_spec, cycles_per_cell, cycle)


def gen_eis_dataset(
    specs: Sequence[SyntheticCellSpec],
    cells_per_spec: int = 5,
    sweeps_per_cell: int = 8,
    seed: int = 0,
    n_freq: int = 128,
) -> DatasetCatalog:
    """Sweep corpus with per-sweep SOC in [20, 90] and temperature in [5, 45]."""
    def sweep(spec, cell, index, cell_id, soh):
        s = child_seed(seed, "sweep", spec.name, cell, index)
        cond = rng_from(s, "condition")
        return gen_eis(spec, soc_percent=float(cond.uniform(20.0, 90.0)),
                       temperature_c=float(cond.uniform(5.0, 45.0)), n_freq=n_freq, seed=s,
                       cell_id=cell_id, cycle_index=index, dataset_id="synth-eis", soh_percent=soh)

    return _corpus(specs, cells_per_spec, sweeps_per_cell, sweep)


def demo_specs(noise_std: float = 0.02) -> Tuple[SyntheticCellSpec, ...]:
    """Five distinct cell types over three architectures.

    Peak signatures differ in count, location, and amplitude; two pairs
    share an architecture so architecture labels (3 classes) and model
    labels (5 classes) give genuinely different tasks.
    """
    cell = partial(
        SyntheticCellSpec,
        voltage_window=(3.0, 4.2),
        noise_std=noise_std,
        soh_drift=SohDrift(peak_shift_v_per_percent=0.001, amplitude_fade_per_percent=0.004),
    )
    return (
        cell(name="alpha", architecture="layered-oxide",
             dca_peaks=((3.45, 2.0, 0.04), (3.75, 1.2, 0.05), (4.05, 0.8, 0.04)),
             randles=(0.015, 0.030, 1.2, 0.003)),
        cell(name="bravo", architecture="layered-oxide",
             dca_peaks=((3.55, 1.6, 0.05), (3.95, 1.5, 0.04)),
             randles=(0.022, 0.045, 0.9, 0.005)),
        cell(name="charlie", architecture="olivine",
             dca_peaks=((3.30, 2.4, 0.03), (3.42, 1.0, 0.06)),
             randles=(0.030, 0.060, 0.6, 0.007)),
        cell(name="delta", architecture="olivine",
             dca_peaks=((3.35, 1.4, 0.05), (3.60, 0.9, 0.04), (3.85, 1.1, 0.05)),
             randles=(0.026, 0.075, 0.7, 0.009)),
        cell(name="echo", architecture="spinel",
             dca_peaks=((3.65, 2.2, 0.04), (4.10, 1.8, 0.03)),
             randles=(0.018, 0.090, 1.5, 0.004)),
    )


# === spec files ===

_RANDLES = ("r0", "rct", "cdl", "warburg_sigma")


def _object(value, keys: Sequence[str], what: str) -> dict:
    if not isinstance(value, dict) or not set(value) <= set(keys):
        raise BadSpec(f"{what} must be an object with keys {sorted(keys)}")
    return value


def spec_from_json_dict(data: dict) -> SyntheticCellSpec:
    """A cell spec from its JSON object. Its keys, which of them are
    required and their defaults are the fields of ``SyntheticCellSpec``
    and ``SohDrift``; ``randles`` holds the ``_RANDLES`` keys, 0 if absent."""
    if not isinstance(data, dict):
        raise BadSpec(f"cell spec must be an object, got {type(data).__name__}")
    spec_fields = fields(SyntheticCellSpec)
    unknown = set(data) - {f.name for f in spec_fields}
    if unknown:
        raise BadSpec(f"unknown cell-spec keys: {sorted(unknown)}")
    required = {f.name for f in spec_fields if f.default is MISSING and f.default_factory is MISSING}
    missing = required - set(data)
    if missing:
        raise BadSpec(f"cell spec missing keys: {sorted(missing)}")
    try:
        # the optional scalars are the fields with a float default
        scalars = {f.name: float(data[f.name]) for f in spec_fields
                   if isinstance(f.default, float) and f.name in data}
        randles = _object(data["randles"], _RANDLES, "randles")
        drift = _object(data.get("soh_drift", {}), [f.name for f in fields(SohDrift)], "soh_drift")
        return SyntheticCellSpec(
            name=str(data["name"]),
            architecture=str(data["architecture"]),
            dca_peaks=tuple((float(m), float(a), float(w)) for m, a, w in data["dca_peaks"]),
            voltage_window=tuple(float(v) for v in data["voltage_window"]),  # type: ignore[arg-type]
            randles=tuple(float(randles.get(k, 0.0)) for k in _RANDLES),    # type: ignore[arg-type]
            soh_drift=SohDrift(**{k: float(v) for k, v in drift.items()}),
            **scalars,
        )
    except (TypeError, ValueError) as exc:
        raise BadSpec(f"malformed cell spec: {exc}") from exc


def specs_from_json(text: str) -> Tuple[SyntheticCellSpec, ...]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadSpec(f"cell-spec file is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise BadSpec("cell-spec file must contain a JSON list")
    return tuple(spec_from_json_dict(d) for d in data)
