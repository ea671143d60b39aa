"""Full evaluation runs and feature attribution.

Identification asks "which cell type is this?"; authentication asks "is
this really the cell type it claims to be?" as a one-vs-rest decision
repeated across legitimate/counterfeit mix ratios. Both runs produce a
deterministic report keyed by seed. Afterwards the trained winner is
interrogated: impurity-based importances say what the trees split on,
and permutation importances say what the score actually depends on.
"""
import json

import numpy as np

from batteryauth.evaluate import EvalConfig, run_authentication, run_identification
from batteryauth.explain import mdi_importance, permutation_importance
from batteryauth.features import catalog_default, labels_for, matrix_from_cycles
from batteryauth.models import make_spec, predict
from batteryauth.synth import demo_specs, gen_dataset

data = gen_dataset(demo_specs(noise_std=0.03), cells_per_spec=6, cycles_per_cell=8,
                   seed=21, n_points=256)
matrix = matrix_from_cycles(data)
config = EvalConfig(seed=8, targets=("model",), balances=(50, 30))

ident = run_identification(matrix, [make_spec("DecisionTree", seed=2)], config)
result = ident.ident_results[0]
print(f"identification ({result.task}, {len(result.class_names)} classes):")
print(f"  winner {result.hyperparams}")
print(f"  held-out accuracy {result.metric_set.accuracy:.3f} macro-F1 {result.metric_set.f1:.3f}")

auth = run_authentication(matrix, [make_spec("DecisionTree", seed=2)], config)
print(f"\nauthentication, one-vs-rest per cell type at two mix ratios:")
for cell in auth.auth_results:
    m = cell.metric_set
    print(f"  legit={cell.legit_label:10s} {cell.balance}/{100 - cell.balance}: "
          f"F1 {m.f1:.3f}  FAR {m.far:.3f}  FRR {m.frr:.3f}")

report = json.loads(json.dumps(auth.to_json_dict()))
for key, row in report["authentication_averages"]["by_balance"].items():
    balance = int(key.rsplit(":", 1)[1])
    print(f"  mean at {balance}/{100 - balance}: "
          f"F1 {row['f1']:.3f}  FAR {row['far']:.3f}  FRR {row['frr']:.3f}")

# What does the identification winner actually look at?
model = result.model
catalog = catalog_default(1)
mdi = mdi_importance(model)
print(f"\ntop split features by mean impurity decrease:")
for name, weight in mdi.top_k(5, catalog.names):
    print(f"  {weight:.3f}  {name}")

y, _ = labels_for(matrix, "model")
perm = permutation_importance(model, matrix.values, y, repeats=3, seed=0)
print(f"\ntop features by permutation score drop (baseline {perm.baseline_score:.3f}):")
for name, weight in perm.top_k(5, catalog.names):
    print(f"  {weight:.3f}  {name}")
