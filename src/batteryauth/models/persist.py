"""Versioned JSON envelope for trained models.

Layout: {format_version, kind, hyperparams, standardizer, mask,
parameters, seed, catalog_version}. ``parameters`` nests the class table,
task tag, convergence flag, and the kind-specific fitted state (KNN keeps
its training matrix inline). Floats survive the round trip exactly
(shortest-repr JSON), so a loaded model predicts bit-identically.

``save_model`` writes the bytes ``json.dump(..., sort_keys=True)`` would,
but streams them: dicts key by key in sorted order, lists of containers
item by item, and every other value (a flat list or a scalar) as one
``json.dumps`` call, which runs the C encoder (``json.dump`` to a file
always runs the pure-Python one). The whole document is never held as
one string. The file is written under a temporary name in the target
directory and moved into place with ``os.replace``, so an interrupted
write leaves the previous file, never a truncated one.
"""
from __future__ import annotations

import json
import os
import threading

from ..errors import FormatVersionMismatch, UnsupportedKind
from .base import KINDS, Standardizer, TrainedModel, normalize_hyperparams
from . import boost, dtree, forest, naive_bayes, neighbors, neural, qda, svm

import numpy as np

FORMAT_VERSION = "1"

_STATE_CODECS = {
    "AdaBoost": boost,
    "DecisionTree": dtree,
    "GaussianNB": naive_bayes,
    "KNN": neighbors,
    "NeuralNet": neural,
    "QDA": qda,
    "RandomForest": forest,
    "SVM": svm,
}


def model_to_json_dict(model: TrainedModel) -> dict:
    codec = _STATE_CODECS[model.kind]
    return {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "hyperparams": model.hyperparams,
        "standardizer": {
            "mean": model.standardizer.mean.tolist(),
            "scale": model.standardizer.scale.tolist(),
        },
        "mask": None if model.mask is None else model.mask.astype(int).tolist(),
        "parameters": {
            "classes": model.classes.tolist(),
            "class_names": list(model.class_names),
            "task": model.task,
            "converged": bool(model.converged),
            "state": codec.state_to_jsonable(model.params),
        },
        "seed": int(model.seed),
        "catalog_version": model.catalog_version,
    }


def model_from_json_dict(data: dict) -> TrainedModel:
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"model format_version {version!r} not supported (expected {FORMAT_VERSION!r})"
        )
    kind = data["kind"]
    if kind not in KINDS:
        raise UnsupportedKind(f"unknown model kind {kind!r} in model file")
    codec = _STATE_CODECS[kind]
    parameters = data["parameters"]
    mask = data.get("mask")
    return TrainedModel(
        kind=kind,
        hyperparams=normalize_hyperparams(kind, data["hyperparams"]),
        standardizer=Standardizer(
            mean=np.asarray(data["standardizer"]["mean"], dtype=float),
            scale=np.asarray(data["standardizer"]["scale"], dtype=float),
        ),
        mask=None if mask is None else np.asarray(mask, dtype=bool),
        params=codec.state_from_jsonable(parameters["state"]),
        seed=int(data["seed"]),
        catalog_version=data["catalog_version"],
        classes=np.asarray(parameters["classes"]),
        class_names=tuple(parameters.get("class_names", ())),
        converged=bool(parameters.get("converged", True)),
        task=parameters.get("task", "identification"),
    )


def _write_json(obj, write) -> None:
    """Write ``obj`` as ``json.dump(obj, fh, sort_keys=True)`` would."""
    if isinstance(obj, dict):
        write("{")
        for i, key in enumerate(sorted(obj)):
            # json.dump turns int, float, bool and None keys into their JSON text
            name = key if isinstance(key, str) else json.dumps(key)
            write(f"{', ' if i else ''}{json.dumps(name)}: ")
            _write_json(obj[key], write)
        write("}")
    elif isinstance(obj, (list, tuple)) and obj and isinstance(obj[0], (dict, list, tuple)):
        write("[")
        for i, item in enumerate(obj):
            if i:
                write(", ")
            _write_json(item, write)
        write("]")
    else:
        write(json.dumps(obj, sort_keys=True))


def save_model(model: TrainedModel, path: str) -> None:
    folder, name = os.path.split(path)
    tmp = os.path.join(folder, f".{name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            _write_json(model_to_json_dict(model), fh.write)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_model(path: str) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatVersionMismatch(f"model file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise FormatVersionMismatch("model file does not hold a JSON object")
    return model_from_json_dict(data)
