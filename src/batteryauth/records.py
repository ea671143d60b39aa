"""Typed records for raw battery data: cycles, EIS sweeps, and catalogs.

A CycleRecord holds one charge or discharge cycle as paired voltage/capacity
samples. An EisSpectrum holds one impedance sweep. Both carry a SampleMeta
with provenance and labels. DatasetCatalog collects records and assigns
stable integer class ids to the model and architecture labels.

Records are plain immutable containers; validation lives in separate
functions so parsers can relax limits (e.g. minimum length) for tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    EmptyDataset,
    NonFiniteValue,
    NonMonotonicCapacity,
    NonPositiveFrequency,
    TooShortCycle,
    TooShortSweep,
)

DEFAULT_MIN_CYCLE_LEN = 16
DEFAULT_MIN_SWEEP_LEN = 8
# Loggers jitter; capacity may dip by up to this fraction of the cycle's
# capacity range and still count as monotone.
DEFAULT_MONOTONIC_TOL = 0.005

CYCLE_KINDS = ("charge", "discharge")


@dataclass(frozen=True)
class SampleMeta:
    """Provenance and condition metadata attached to every record."""

    dataset_id: str = "unknown"
    cell_id: str = "unknown"
    battery_model: str = "unknown"
    architecture: str = "unknown"
    soc_percent: Optional[float] = None
    soh_percent: Optional[float] = None
    temperature_c: Optional[float] = None
    cycle_index: Optional[int] = None

    def with_overrides(self, **kwargs) -> "SampleMeta":
        return replace(self, **kwargs)


@dataclass(frozen=True, eq=False)
class CycleRecord:
    """One cycle: voltage [V] and cumulative capacity [Ah], same length."""

    voltage: np.ndarray
    capacity: np.ndarray
    cycle_kind: str = "charge"
    meta: SampleMeta = field(default_factory=SampleMeta)

    def __len__(self) -> int:
        return len(self.voltage)


@dataclass(frozen=True, eq=False)
class EisSpectrum:
    """One EIS sweep: frequency [Hz] ascending, Z real/imag parts [ohm]."""

    frequency: np.ndarray
    z_real: np.ndarray
    z_imag: np.ndarray
    meta: SampleMeta = field(default_factory=SampleMeta)

    def __len__(self) -> int:
        return len(self.frequency)


Record = Union[CycleRecord, EisSpectrum]


def _as_float_array(values: Sequence[float], what: str, context: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise NonFiniteValue(f"{context}: {what} must be a 1-d sequence")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise NonFiniteValue(f"{context}: non-finite {what} at index {bad}")
    return arr


def make_cycle(
    voltage: Sequence[float],
    capacity: Sequence[float],
    cycle_kind: str = "charge",
    meta: SampleMeta = SampleMeta(),
) -> CycleRecord:
    """Build a CycleRecord from sequences, coercing to float arrays."""
    ctx = f"cycle {meta.cell_id}/{meta.cycle_index}"
    v = _as_float_array(voltage, "voltage", ctx)
    q = _as_float_array(capacity, "capacity", ctx)
    if cycle_kind not in CYCLE_KINDS:
        raise NonFiniteValue(f"{ctx}: unknown cycle_kind {cycle_kind!r}")
    if len(v) != len(q):
        raise TooShortCycle(f"{ctx}: voltage and capacity lengths differ ({len(v)} vs {len(q)})")
    v.setflags(write=False)
    q.setflags(write=False)
    return CycleRecord(voltage=v, capacity=q, cycle_kind=cycle_kind, meta=meta)


def make_spectrum(
    frequency: Sequence[float],
    z_real: Sequence[float],
    z_imag: Sequence[float],
    meta: SampleMeta = SampleMeta(),
) -> EisSpectrum:
    """Build an EisSpectrum, sorting rows into ascending frequency."""
    ctx = f"sweep {meta.cell_id}"
    f = _as_float_array(frequency, "frequency", ctx)
    zr = _as_float_array(z_real, "z_real", ctx)
    zi = _as_float_array(z_imag, "z_imag", ctx)
    if not (len(f) == len(zr) == len(zi)):
        raise TooShortSweep(f"{ctx}: column lengths differ")
    if np.any(f <= 0):
        bad = int(np.flatnonzero(f <= 0)[0])
        raise NonPositiveFrequency(f"{ctx}: frequency must be > 0 (row {bad})")
    order = np.argsort(f, kind="stable")
    f, zr, zi = f[order], zr[order], zi[order]
    for a in (f, zr, zi):
        a.setflags(write=False)
    return EisSpectrum(frequency=f, z_real=zr, z_imag=zi, meta=meta)


def validate_cycle(
    record: CycleRecord,
    min_len: int = DEFAULT_MIN_CYCLE_LEN,
    monotonic_tol: float = DEFAULT_MONOTONIC_TOL,
) -> CycleRecord:
    """Check length and capacity-monotonicity invariants; return the record.

    Charge cycles must have non-decreasing capacity, discharge cycles
    non-increasing, each up to ``monotonic_tol`` times the capacity range.
    """
    ctx = f"cycle {record.meta.cell_id}/{record.meta.cycle_index}"
    n = len(record)
    if n < min_len:
        raise TooShortCycle(f"{ctx}: {n} samples, need at least {min_len}")
    q = record.capacity
    tol = monotonic_tol * float(q.max() - q.min())
    dq = np.diff(q)
    if record.cycle_kind == "charge":
        worst = float(dq.min(initial=0.0))
        if worst < -tol:
            raise NonMonotonicCapacity(
                f"{ctx}: charge capacity drops by {-worst:.3g} Ah (tolerance {tol:.3g})"
            )
    else:
        worst = float(dq.max(initial=0.0))
        if worst > tol:
            raise NonMonotonicCapacity(
                f"{ctx}: discharge capacity rises by {worst:.3g} Ah (tolerance {tol:.3g})"
            )
    return record


def validate_spectrum(record: EisSpectrum, min_len: int = DEFAULT_MIN_SWEEP_LEN) -> EisSpectrum:
    """Check sweep length and strict frequency ordering; return the record."""
    ctx = f"sweep {record.meta.cell_id}"
    if len(record) < min_len:
        raise TooShortSweep(f"{ctx}: {len(record)} rows, need at least {min_len}")
    if np.any(np.diff(record.frequency) <= 0):
        raise NonPositiveFrequency(f"{ctx}: duplicate frequency values in sweep")
    return record


@dataclass(frozen=True)
class DatasetCatalog:
    """Records plus stable label-to-id maps for model and architecture."""

    records: tuple
    model_labels: dict
    arch_labels: dict

    @property
    def model_names(self) -> tuple:
        return tuple(name for name, _ in sorted(self.model_labels.items(), key=lambda kv: kv[1]))

    @property
    def arch_names(self) -> tuple:
        return tuple(name for name, _ in sorted(self.arch_labels.items(), key=lambda kv: kv[1]))


def build_catalog(records: Sequence[Record]) -> DatasetCatalog:
    """Assign class ids to labels in first-appearance order.

    Duplicated records do not change the id assignment, only the record list.
    """
    if not records:
        raise EmptyDataset("cannot build a catalog from zero records")
    model_labels: dict = {}
    arch_labels: dict = {}
    for rec in records:
        m, a = rec.meta.battery_model, rec.meta.architecture
        if not m or not a:
            raise EmptyDataset("every record needs non-empty battery_model and architecture labels")
        model_labels.setdefault(m, len(model_labels))
        arch_labels.setdefault(a, len(arch_labels))
    return DatasetCatalog(records=tuple(records), model_labels=model_labels, arch_labels=arch_labels)
