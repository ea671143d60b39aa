"""The benchmark's hooks into the package still resolve.

perfbench wraps package functions by module and attribute name, and runs
fixed `run` configs; its worker generates scoring samples through synth
and io_csv. A rename in the package, or a config key or keyword it no
longer accepts, would only surface when the benchmark runs; these tests
read perfbench's tables and edit nothing.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest
from reference import records_equal

from batteryauth import io_csv, synth
from batteryauth.config import config_from_json_dict, read_text
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
