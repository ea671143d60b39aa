"""The benchmark's hooks into the package still resolve.

perfbench wraps package functions by module and attribute name, and runs
fixed `run` configs; its worker generates scoring samples through synth
and io_csv. A rename in the package, or a config key or keyword it no
longer accepts, would only surface when the benchmark runs; these tests
read perfbench's tables and edit nothing under perfbench/. One installs
the tracer around a small `run` and puts every wrapped name back.
"""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest
from reference import records_equal

from batteryauth import dca, features, io_csv, synth
from batteryauth.cli import main
from batteryauth.config import config_from_json_dict, read_text
from batteryauth.models import KINDS
from batteryauth.synth import specs_from_json

ROOT = Path(__file__).resolve().parent.parent


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # no bytecode cache is left under perfbench/
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


tracing = _perfbench("tracing")
run = _perfbench("run")

HOOKS = sorted({(m, a) for m, a, *_ in tracing.SPANS} | {(m, a) for m, a, _ in tracing.COUNTS})


@pytest.mark.parametrize("module,attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_traced_name_is_a_package_callable(module, attr):
    assert module.split(".")[0] == "batteryauth"
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_config_parses(workload):
    data = run.WORKLOADS[workload]["config"]
    cfg = config_from_json_dict(data)
    assert cfg.pipeline == data["pipeline"]
    assert specs_from_json(read_text(str(ROOT / cfg.synth.specs_path), "cell-spec file"))


@pytest.mark.parametrize("pipeline", ["dca", "eis"])
def test_worker_sample_generation_calls_resolve(pipeline):
    # the calls and keywords of perfbench/worker.py's write_inputs, at the smallest sizes
    specs = specs_from_json(read_text(str(ROOT / run.PRESET), "cell-spec file"))
    if pipeline == "dca":
        data = synth.gen_dataset(specs, cells_per_spec=1, cycles_per_cell=2, seed=3,
                                 n_points=synth.MIN_CYCLE_POINTS)
        text = io_csv.write_cycle_csv(list(data.records))
        back = io_csv.parse_cycle_csv(text)
    else:
        data = synth.gen_eis_dataset(specs, cells_per_spec=1, sweeps_per_cell=2, seed=3,
                                     n_freq=synth.MIN_FREQ_POINTS)
        text = io_csv.write_eis_csv(list(data.records))
        back = io_csv.parse_eis_csv(text)
    assert len(data.records) == len(specs) * 2
    assert len(back) == len(data.records)
    assert all(records_equal(a, b) for a, b in zip(back, data.records))


# one grid point per kind; QDA's shrinkage keeps every fit from failing
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

# span name -> the attributes layer_metrics reads from it
_TRACED_ATTRS = {
    "models.fit": {"kind", "converged"},
    "models.grid_search": {"candidates", "failed"},
    "features.extract": {"imputed"},
    "models.save": {"bytes"},
}


def test_tracer_reads_every_call_of_a_run(tmp_path):
    """The tracer's attribute extractors read the arguments and results of
    the calls `run` makes (``train`` and ``grid_search`` by position) and of
    the scoring path's ``extract_features``, so a signature change shows
    here and not only in a traced benchmark run. `run` extracts a whole
    matrix at once, so the one ``extract_features`` call is made as
    perfbench's worker makes it for a scoring request."""
    assert set(_ONE_POINT) == set(KINDS)
    cfg = {
        "pipeline": "dca",
        "synth": {"specs": str(ROOT / run.PRESET), "cells_per_spec": 2, "records_per_cell": 4,
                  "n_points": synth.MIN_CYCLE_POINTS, "seed": 3},
        "models": [{"kind": k, "grid": g} for k, g in _ONE_POINT.items()],
        "eval": {"seed": 1, "folds": 3, "targets": ["model"], "balances": [50]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 0
        rec = synth.gen_dataset(specs_from_json(read_text(str(ROOT / run.PRESET), "cell-spec file")),
                                cells_per_spec=1, cycles_per_cell=1, seed=3,
                                n_points=synth.MIN_CYCLE_POINTS).records[0]
        features.extract_features([dca.process_cycle(rec).dqdv], features.catalog_default(1))
    finally:
        tracer.uninstall()
    assert [s for s in tracer.spans if "error" in s] == []
    for name, attrs in _TRACED_ATTRS.items():
        spans = [s for s in tracer.spans if s["name"] == name]
        assert spans, name
        assert all(attrs <= s.keys() for s in spans), name
    assert {s["kind"] for s in tracer.spans if s["name"] == "models.fit"} == set(KINDS)
    section = {"run_cpu_s": 1.0, "run_wall_s": 1.0, "threads": 1, "import_s": 0.0, "overhead_s": 0.0}
    metrics = tracing.layer_metrics(tracer, section)
    assert metrics["models.candidates"] > 0 and metrics["models.candidates_failed"] == 0
    assert all(metrics[f"models.fits.{kind}"] > 0 for kind in KINDS)
