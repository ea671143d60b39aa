"""Classifier zoo: eight kinds behind one train/predict interface."""

from .base import (
    DEFAULT_GRIDS,
    KINDS,
    ModelSpec,
    Standardizer,
    TrainedModel,
    classify,
    enumerate_grid,
    fit_standardizer,
    make_spec,
    normalize_hyperparams,
    predict,
    predict_scores,
    raw_importances,
    train,
)
from .persist import (
    FORMAT_VERSION,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    save_model,
)
from .search import CandidateResult, grid_search, macro_f1, stratified_kfold

__all__ = [
    "DEFAULT_GRIDS",
    "KINDS",
    "FORMAT_VERSION",
    "CandidateResult",
    "ModelSpec",
    "Standardizer",
    "TrainedModel",
    "classify",
    "enumerate_grid",
    "fit_standardizer",
    "grid_search",
    "load_model",
    "macro_f1",
    "make_spec",
    "model_from_json_dict",
    "model_to_json_dict",
    "normalize_hyperparams",
    "predict",
    "predict_scores",
    "raw_importances",
    "save_model",
    "stratified_kfold",
    "train",
]
