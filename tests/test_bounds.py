"""Bounds have one owner: the settings types and the exported callables
refuse a bad value with a library error, and the run config names the
same refusal by its dotted path."""
import math

import numpy as np
import pytest

from batteryauth.config import SynthConfig, config_from_json_dict
from batteryauth.dca import DcaConfig
from batteryauth.eis import EisConfig
from batteryauth.errors import (
    BadInterval,
    BatteryAuthError,
    ConfigError,
    DimensionMismatch,
    IndexOutOfRange,
    NonFiniteValue,
)
from batteryauth.evaluate import EvalConfig, split_train_test
from batteryauth.features import FeatureMatrix, catalog_default, extract_features, matrix_take
from batteryauth.models import ModelSpec, classify, make_spec, predict, predict_scores, train

Y = np.repeat([0, 1, 2], 10)
X = np.arange(30 * 3, dtype=float).reshape(30, 3) + Y[:, None] * 100.0
MODEL = train(make_spec("KNN"), {"k": 1, "weights": "uniform"}, X, Y)
MATRIX = FeatureMatrix(
    values=X, model_id=Y, arch_id=Y, metas=(None,) * 30, catalog_version="v1:ch1",
    feature_names=("f0", "f1", "f2"), model_names=("a", "b", "c"), arch_names=("a", "b", "c"),
    imputed_counts=np.zeros(30, dtype=int),
)
NAN_ROW = np.array([[np.nan, 1.0, 2.0]])
INF_ROWS = np.array([[0.0, 1.0, 2.0], [0.0, np.inf, 2.0]])

# (callable, the library error it must raise); every case returned a value
# or raised a builtins error before its refusal was added
REFUSALS = {
    "split-ratio-negative": (lambda: split_train_test(Y, ratio=-1.0), BadInterval),
    "split-ratio-0": (lambda: split_train_test(Y, ratio=0.0), BadInterval),
    "split-ratio-1": (lambda: split_train_test(Y, ratio=1.0), BadInterval),
    "split-ratio-1.5": (lambda: split_train_test(Y, ratio=1.5), BadInterval),
    "split-ratio-nan": (lambda: split_train_test(Y, ratio=math.nan), BadInterval),
    "classify-nan": (lambda: classify(MODEL, NAN_ROW), NonFiniteValue),
    "predict-nan": (lambda: predict(MODEL, NAN_ROW), NonFiniteValue),
    "predict-1d-nan": (lambda: predict(MODEL, NAN_ROW[0]), NonFiniteValue),
    "predict-scores-inf": (lambda: predict_scores(MODEL, INF_ROWS), NonFiniteValue),
    "dca-eps": (lambda: DcaConfig(eps_volts=0.0), BadInterval),
    "dca-window": (lambda: DcaConfig(savgol_window=4), BadInterval),
    "eis-resample": (lambda: EisConfig(resample_m=4), BadInterval),
    "synth-cells": (lambda: SynthConfig(cells_per_spec=0), BadInterval),
    "synth-seed": (lambda: SynthConfig(seed=-1), BadInterval),
    "extract-2d-channel": (lambda: extract_features([np.zeros((2, 64))], catalog_default(1)),
                           DimensionMismatch),
    "extract-0d-channel": (lambda: extract_features([np.float64(1.0)], catalog_default(1)),
                           DimensionMismatch),
    "take-n": (lambda: matrix_take(MATRIX, [0, 30]), IndexOutOfRange),
    "take-negative": (lambda: matrix_take(MATRIX, [-1]), IndexOutOfRange),
    "take-fraction": (lambda: matrix_take(MATRIX, [0.5]), IndexOutOfRange),
    "spec-seed": (lambda: ModelSpec("KNN", seed=-1), BadInterval),
    "make-spec-seed": (lambda: make_spec("KNN", seed=-1), BadInterval),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_exported_callables_refuse_with_library_errors(case):
    call, error = REFUSALS[case]
    assert issubclass(error, BatteryAuthError)
    with pytest.raises(error):
        call()


def test_refusals_leave_good_inputs_alone():
    train_idx, test_idx = split_train_test(Y, ratio=0.25)
    assert len(train_idx) == 6 and len(test_idx) == 24
    assert np.array_equal(predict(MODEL, X), Y)
    assert matrix_take(MATRIX, np.array([29, 0])).model_names == ("a", "b", "c")
    assert len(matrix_take(MATRIX, [])) == 0


def _json_for(field, value):
    """The run-config overrides that set EvalConfig's ``field`` to ``value``."""
    if field == "threads":
        return {"threads": value}
    if field == "selection_fdr":
        return {"selection": {"fdr": value}}
    return {"eval": {field: list(value) if isinstance(value, tuple) else value}}


# every field of EvalConfig with a bound, its dotted path in a run config,
# and the values out of that bound
BAD_EVAL = {
    "seed": ("eval.seed", (-1, -7)),
    "train_ratio": ("eval.train_ratio", (0.0, 1.0, 1.5, -0.5, math.nan)),
    "folds": ("eval.folds", (1, 0, -2)),
    "selection_fdr": ("selection.fdr", (0.0, 1.0, 2.0, -0.1, math.nan)),
    "threads": ("threads", (0, -1)),
    "targets": ("eval.targets", ((), ("model", "model"), ("bogus",), ("model", "architecture", "x"))),
    "balances": ("eval.balances", ((), (50, 50), (35,), (50.5,), ("50",))),
}
BAD_EVAL_CASES = [(f, v) for f, (_, values) in BAD_EVAL.items() for v in values]


@pytest.mark.parametrize("field,value", BAD_EVAL_CASES,
                         ids=[f"{f}={v!r}" for f, v in BAD_EVAL_CASES])
def test_eval_config_and_run_config_refuse_alike(field, value):
    path = BAD_EVAL[field][0]
    with pytest.raises(BadInterval) as refused:
        EvalConfig(**{field: value})
    with pytest.raises(ConfigError) as err:
        config_from_json_dict({"pipeline": "dca", "synth": {}, **_json_for(field, value)})
    message = str(err.value)
    assert message.startswith(f"{path}: ")
    # the reason is EvalConfig's own, but where the run config's train_ratio
    # floor refuses first
    if not (field == "train_ratio" and not value >= 0.5):
        assert message == path + str(refused.value)[len(field):]


# grid points out of their kind's bounds: the spec refuses them when made,
# as the run config does at load, with the same reason under the model's path
BAD_GRIDS = {
    "svm-negative-C": ("SVM", {"C": [-1.0]}),
    "knn-k-0": ("KNN", {"k": [0]}),
}


@pytest.mark.parametrize("case", list(BAD_GRIDS))
def test_model_spec_and_run_config_refuse_grid_points_alike(case):
    kind, grid = BAD_GRIDS[case]
    with pytest.raises(ConfigError) as refused:
        ModelSpec(kind, grid=grid)
    with pytest.raises(ConfigError) as made:
        make_spec(kind, grid=grid)
    assert str(made.value) == str(refused.value)
    with pytest.raises(ConfigError) as err:
        config_from_json_dict({"pipeline": "dca", "synth": {}, "models": [{"kind": kind, "grid": grid}]})
    assert str(err.value) == f"models[0]: {refused.value}"


def test_train_ratio_floor_is_the_run_configs_own():
    assert EvalConfig(train_ratio=0.25).train_ratio == 0.25
    with pytest.raises(ConfigError, match=r"^eval.train_ratio: must be in \[0.5, 1\), got 0.25$"):
        config_from_json_dict({"pipeline": "dca", "synth": {}, "eval": {"train_ratio": 0.25}})


def test_balance_levels_read_as_ints():
    cfg = config_from_json_dict({"pipeline": "dca", "synth": {}, "eval": {"balances": [50.0, 20]}})
    assert cfg.eval.balances == (50, 20)
    assert all(type(b) is int for b in cfg.eval.balances)
