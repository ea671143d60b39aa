"""From processed curves to a screened feature matrix.

Every dQ/dV series is summarized by a versioned catalog of scalar
features (distribution statistics, quantiles, autocorrelations, peak
counts, histogram bins, FFT coefficients, wavelet responses). Most of
them carry no class signal for a given dataset, so a Mann-Whitney test
with Benjamini-Yekutieli correction screens the catalog per task. This
script builds a matrix from synthetic cycles and shows what survives.
"""
from collections import Counter

import numpy as np

from batteryauth.features import catalog_default, labels_for, matrix_from_cycles
from batteryauth.selection import select_features
from batteryauth.synth import demo_specs, gen_dataset

catalog = catalog_default(1)
families = Counter(e.family for e in catalog.entries)
print(f"catalog {catalog.version}: {len(catalog)} features per series")
for family, count in sorted(families.items(), key=lambda kv: -kv[1]):
    print(f"  {family:18s} x{count}")

specs = demo_specs(noise_std=0.02)
data = gen_dataset(specs, cells_per_spec=4, cycles_per_cell=6, seed=1, n_points=256)
matrix = matrix_from_cycles(data)
print(f"\nmatrix: {matrix.values.shape[0]} samples x {matrix.values.shape[1]} features "
      f"({len(specs)} cell types)")

mask = select_features(matrix.values, labels_for(matrix, "model")[0], fdr=0.05)
print(f"\nscreened for the 5-way cell-type task at FDR 0.05:")
print(f"  kept {int(mask.keep.sum())} of {len(mask.keep)} features")

kept_families = Counter(
    catalog.entries[i].family for i in np.flatnonzero(mask.keep)
)
print("  survivors by family:")
for family, count in sorted(kept_families.items(), key=lambda kv: -kv[1]):
    print(f"    {family:18s} {count}/{families[family]}")

# The architecture task pools cell types, so its survivor set differs.
arch_mask = select_features(matrix.values, labels_for(matrix, "architecture")[0], fdr=0.05)
both = int((mask.keep & arch_mask.keep).sum())
print(f"\narchitecture task keeps {int(arch_mask.keep.sum())}; "
      f"{both} features survive both screens")
