"""Training, tuning, and persisting classifiers.

Eight classifier kinds sit behind one train/predict interface, each with
a default hyperparameter grid. Grid search scores every combination by
stratified cross-validated macro-F1 and refits the winner on the full
training split. Winners serialize to a self-describing JSON envelope
that pins the feature-catalog version, so a saved model refuses data it
was not built for. This script tunes two kinds on the same task and
round-trips the better one through disk.
"""
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from batteryauth.features import labels_for, matrix_from_cycles
from batteryauth.models import (
    DEFAULT_GRIDS,
    KINDS,
    grid_search,
    load_model,
    macro_f1,
    make_spec,
    predict,
    save_model,
)
from batteryauth.synth import demo_specs, gen_dataset

print("classifier kinds and default grid sizes:")
for kind in KINDS:
    size = int(np.prod([len(v) for v in DEFAULT_GRIDS[kind].values()]))
    print(f"  {kind:13s} {size:2d} candidates over {list(DEFAULT_GRIDS[kind])}")

data = gen_dataset(demo_specs(noise_std=0.03), cells_per_spec=4, cycles_per_cell=6,
                   seed=5, n_points=256)
matrix = matrix_from_cycles(data)
y, names = labels_for(matrix, "model")
rng = np.random.default_rng(0)
order = rng.permutation(len(y))
cut = int(0.8 * len(y))
train_idx, test_idx = order[:cut], order[cut:]

print(f"\ntask: identify the cell type, {len(names)} classes, "
      f"{len(train_idx)} train / {len(test_idx)} test samples")

winners = {}
for kind in ("KNN", "DecisionTree"):
    spec = make_spec(kind, seed=3)
    model, cv = grid_search(spec, matrix.values[train_idx], y[train_idx], k=5)
    # a run stamps its winners with their provenance; outside a run, do it by hand
    model = replace(model, class_names=names, catalog_version=matrix.catalog_version,
                    processing=matrix.processing)
    winners[kind] = model
    held_out = macro_f1(y[test_idx], predict(model, matrix.values[test_idx]))
    print(f"\n{kind}: winner {model.hyperparams}, held-out macro-F1 {held_out:.3f}")
    for cand in sorted(cv, key=lambda c: -c.mean_score)[:3]:
        print(f"  cv {cand.mean_score:.3f}  {cand.hyperparams}")

best_kind = max(winners, key=lambda k: macro_f1(y[test_idx], predict(winners[k], matrix.values[test_idx])))
best = winners[best_kind]

path = Path(tempfile.mkdtemp(prefix="batteryauth-demo-")) / "winner.json"
save_model(best, str(path))
restored = load_model(str(path))
same = bool(np.array_equal(predict(best, matrix.values[test_idx]),
                           predict(restored, matrix.values[test_idx])))
print(f"\nsaved {best_kind} winner to {path} ({path.stat().st_size} bytes)")
print(f"  reloaded model predicts identically: {same}")
print(f"  envelope pins catalog {restored.catalog_version!r} and classes {restored.class_names}")
