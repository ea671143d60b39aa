"""Import guard: numpy is the only runtime dependency.

Each check runs in a fresh interpreter (same executable, same package on
the path) and lists the scipy and numpy.random modules present once it is
done. No path loads scipy: not a `run` with the Mann-Whitney screen on,
and not a `run`, `authenticate` or `bench` that trains or scores every
kind, QDA included, with scipy made unimportable as in an install without
it. Importing the package and scoring with a forest or KNN load no
numpy.random either: seeding defines its numpy.random subclass on first
use.
"""
import json
import os
import subprocess
import sys

import pytest
from reference import specs_to_json

import batteryauth
from batteryauth.cli import main
from batteryauth.io_csv import write_cycle_csv
from batteryauth.models import KINDS
from batteryauth.synth import demo_specs, gen_cycle

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(batteryauth.__file__)))

# runs the given code, then prints the loaded scipy and numpy.random modules
# as a JSON object of two lists on the last line of stderr
_PROBE = """
import json, sys
{code}
loaded = {{p: sorted(m for m in sys.modules if m == p or m.startswith(p + "."))
          for p in ("scipy", "numpy.random")}}
print(json.dumps(loaded), file=sys.stderr)
"""


def _probe(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(code=code), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stderr.strip().splitlines()[-1])
    return proc.stdout, loaded


def test_package_import_loads_no_scipy():
    _, loaded = _probe("import batteryauth, batteryauth.cli")
    assert loaded == {"scipy": [], "numpy.random": []}


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """A small DCA run with RandomForest and KNN, plus unseen cycles."""
    tmp = tmp_path_factory.mktemp("guard")
    specs = demo_specs()[:2]
    (tmp / "cells.json").write_text(specs_to_json(specs), encoding="utf-8")
    cfg = {
        "pipeline": "dca",
        "synth": {
            "specs": str(tmp / "cells.json"),
            "cells_per_spec": 3,
            "records_per_cell": 5,
            "n_points": 128,
            "seed": 4,
        },
        "models": [
            {"kind": "RandomForest", "grid": {"criterion": ["gini"], "n_estimators": [5]}},
            {"kind": "KNN", "grid": {"k": [1], "weights": ["uniform"]}},
        ],
        "eval": {"seed": 1, "folds": 3, "targets": ["model"], "balances": [50]},
    }
    (tmp / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp / "out"
    assert main(["run", "--config", str(tmp / "cfg.json"), "--output-dir", str(out)]) == 0
    cycles = [gen_cycle(s, soh_percent=95.0, n_points=128, seed=77, cell_id=s.name) for s in specs]
    (tmp / "cycles.csv").write_text(write_cycle_csv(cycles), encoding="utf-8")
    return out, str(tmp / "cycles.csv")


@pytest.mark.parametrize("kind", ["RandomForest", "KNN"])
def test_authenticate_loads_no_scipy(saved_models, kind):
    out, sample = saved_models
    model = str(out / f"model_ident_model_identification_{kind}.json")
    code = "from batteryauth.cli import main\nassert main(sys.argv[1:]) == 0"
    stdout, loaded = _probe(code, "authenticate", "--model", model, "--sample", sample, "--json")
    assert json.loads(stdout)["model_kind"] == kind
    assert loaded == {"scipy": [], "numpy.random": []}


def test_selection_run_loads_no_scipy(tmp_path):
    """A small EIS run with feature selection on, RandomForest and KNN."""
    (tmp_path / "cells.json").write_text(specs_to_json(demo_specs()[:2]), encoding="utf-8")
    cfg = {
        "pipeline": "eis",
        "synth": {"specs": str(tmp_path / "cells.json"), "cells_per_spec": 3,
                  "records_per_cell": 4, "seed": 4},
        "selection": {"enabled": True},
        "models": [
            {"kind": "RandomForest", "grid": {"criterion": ["gini"], "n_estimators": [5]}},
            {"kind": "KNN", "grid": {"k": [1], "weights": ["uniform"]}},
        ],
        "eval": {"seed": 1, "folds": 3, "targets": ["model"], "balances": [50]},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    code = "from batteryauth.cli import main\nassert main(sys.argv[1:]) == 0"
    _, loaded = _probe(code, "run", "--config", str(tmp_path / "cfg.json"), "--output-dir", str(out))
    kept = json.loads((out / "report.json").read_text(encoding="utf-8"))["selection_kept"]
    assert kept and all(count >= 1 for count in kept.values())
    assert loaded["scipy"] == []


# refuses every scipy import, as an install without scipy would, then runs
# each argv list of the JSON list in argv[1] through the CLI
_WITHOUT_SCIPY = """
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, NoScipy())
from batteryauth.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""

# one grid point per kind, so that a small run trains every kind
_ONE_POINT = {
    "AdaBoost": {"n_estimators": [10]},
    "DecisionTree": {"criterion": ["gini"], "max_depth": [4]},
    "GaussianNB": {"var_smoothing": [1e-9]},
    "KNN": {"k": [1], "weights": ["uniform"]},
    "NeuralNet": {"hidden": [8], "activation": ["relu"], "solver": ["adam"]},
    "QDA": {"reg": [0.5]},
    "RandomForest": {"criterion": ["gini"], "n_estimators": [5]},
    "SVM": {"kernel": ["rbf"], "C": [1.0], "gamma": ["scale"]},
}


def test_every_kind_runs_and_scores_without_scipy(saved_models, tmp_path):
    """`run` trains all eight kinds, then `authenticate --json` and `bench`
    score the saved QDA file, all with scipy unimportable."""
    assert set(_ONE_POINT) == set(KINDS)
    _, sample = saved_models
    (tmp_path / "cells.json").write_text(specs_to_json(demo_specs()[:2]), encoding="utf-8")
    cfg = {
        "pipeline": "dca",
        "synth": {"specs": str(tmp_path / "cells.json"), "cells_per_spec": 3,
                  "records_per_cell": 5, "n_points": 128, "seed": 4},
        "models": [{"kind": k, "grid": g} for k, g in _ONE_POINT.items()],
        "eval": {"seed": 1, "folds": 3, "targets": ["model"], "balances": [50]},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    qda = str(out / "model_ident_model_identification_QDA.json")
    commands = [
        ["run", "--config", str(tmp_path / "cfg.json"), "--output-dir", str(out)],
        ["authenticate", "--model", qda, "--sample", sample, "--json"],
        ["bench", "--model", qda, "--sample", sample, "--repeats", "1"],
    ]
    stdout, loaded = _probe(_WITHOUT_SCIPY, json.dumps(commands))
    assert loaded["scipy"] == []
    assert {f"model_ident_model_identification_{k}.json" for k in KINDS} <= set(os.listdir(out))
    assert '"model_kind": "QDA"' in stdout
    assert "\nQDA,identification," in stdout
