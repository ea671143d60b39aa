"""Versioned JSON envelope for trained models, format 3.

Layout: {format_version, kind, hyperparams, standardizer, mask,
parameters, seed, catalog_version, processing}. ``parameters`` nests the
class table, task tag, convergence flag, and the kind-specific fitted
state (KNN keeps its training matrix inline). ``processing`` is the
pipeline and the ``DcaConfig``/``EisConfig`` field values that made the
training features (``{"pipeline": "dca", "config": {...}}``), or null
for a model trained outside ``run``.

One codec serves every array in the envelope: the standardizer, the
mask, the classes and every array of the state. An array is written as
``{"dtype": "<f8", "shape": [...], "data": "..."}``, with ``data`` the
base64 of its little-endian bytes in C order, the idea of numpy's NPY
format (NEP 1). Loading, a dict with exactly those keys becomes an array
of that dtype and shape, so a round trip is exact by construction: a
loaded model predicts with the very arrays the trained one held, and
grown int32 node ids stay int32. Dicts are walked. A tree ensemble
(``tree.NodeTable``) is written as a dict of its seven fields, and a
dict with exactly those keys loads as a table, which derives its walk
form again; an SVM's support vectors are one row block with one
coefficient matrix. A missing or malformed field, among them each state
field the kind declares in ``STATE``, a standardizer or mask of
contradicting widths, a float array holding a NaN or an infinity and a
standardizer scale entry that is not > 0, raises FormatVersionMismatch
naming it. So do class names that are not one per class, and an
envelope of any other format version. A loaded model scores one
all-zero row of the standardizer's width with finite scores, one per
class; a tree table must record importances for exactly that many
features and class sums for that many classes (and be a well-formed
``NodeTable``), and a kind's ``check_state`` may ask more. A state that
fails any of these, e.g. a KNN ``train_x`` of other width, raises
FormatVersionMismatch.

``save_model`` writes ``json.dumps(envelope, sort_keys=True)`` and a
newline in one call of the C encoder. ``write_atomic``, which ``run``
also uses for its reports, writes under a temporary name in the target
directory and moves the file into place with ``os.replace``, so an
interrupted write leaves the previous file, never a truncated one.
"""
from __future__ import annotations

import base64
import json
import os
import threading
from dataclasses import asdict, fields

import numpy as np

from ..dca import DcaConfig
from ..eis import EisConfig
from ..errors import DimensionMismatch, FormatVersionMismatch, UnsupportedKind, WriteFailed
from .base import _MODULES, KINDS, Standardizer, TrainedModel, classify, normalize_hyperparams
from .tree import NodeTable

FORMAT_VERSION = "3"

_ARRAY_KEYS = {"dtype", "shape", "data"}
_TABLE_FIELDS = {f.name for f in fields(NodeTable)}
_PIPELINES = {"dca": DcaConfig, "eis": EisConfig}


def _encode(value):
    if isinstance(value, np.ndarray):
        little = value.astype(value.dtype.newbyteorder("<"), copy=False)
        return {
            "dtype": little.dtype.str,
            "shape": list(value.shape),
            "data": base64.b64encode(little.tobytes()).decode("ascii"),
        }
    if isinstance(value, NodeTable):
        value = {name: getattr(value, name) for name in _TABLE_FIELDS}
    if isinstance(value, dict):
        return {key: _encode(v) for key, v in value.items()}
    return value


def _decode(value):
    if isinstance(value, dict):
        if value.keys() == _ARRAY_KEYS:
            raw = bytearray(base64.b64decode(value["data"], validate=True))
            return np.frombuffer(raw, dtype=np.dtype(value["dtype"])).reshape(value["shape"])
        decoded = {key: _decode(v) for key, v in value.items()}
        return NodeTable(**decoded) if decoded.keys() == _TABLE_FIELDS else decoded
    return value


def _finite(value, name="array"):
    """``value``, unless it is a float array holding a NaN or an infinity."""
    if isinstance(value, np.ndarray) and value.dtype.kind == "f" and not np.isfinite(value).all():
        raise ValueError(f"{name} holds non-finite values")
    return value


def _positive(array: np.ndarray) -> np.ndarray:
    if not (array > 0).all():
        raise ValueError(f"expected entries > 0, got {array.min()}")
    return array


def _vector(saved, size=None, mask=False) -> np.ndarray:
    """A saved 1-D array, bool when a ``mask``; with a ``size``, one of that
    many entries, or a mask that keeps that many. Floats must be finite."""
    array = _finite(_decode(saved))
    if not isinstance(array, np.ndarray):
        raise TypeError(f"expected an array, got {type(array).__name__}")
    if array.ndim != 1 or (mask and array.dtype != bool):
        raise ValueError(f"expected a 1-D {'bool ' if mask else ''}array, got {array.dtype} {array.shape}")
    count = np.count_nonzero(array) if mask else len(array)
    if size not in (None, count):
        raise ValueError(f"expected {size} {'kept features' if mask else 'entries'}, got {count}")
    return array


def _processing(saved):
    """The ``DcaConfig``/``EisConfig`` of a saved processing block (None
    stays None); every field must be present, with its default's type, and
    within the bounds the settings class checks when made."""
    if saved is None:
        return None
    config = _PIPELINES[saved["pipeline"]]
    values, defaults = saved["config"], asdict(config())
    if set(values) != set(defaults) or any(type(values[k]) is not type(v) for k, v in defaults.items()):
        raise ValueError(f"expected the {config.__name__} fields {sorted(defaults)}, got {values!r}")
    return config(**values)


def model_to_json_dict(model: TrainedModel) -> dict:
    processing = model.processing
    return {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "hyperparams": model.hyperparams,
        "standardizer": _encode(vars(model.standardizer)),
        "mask": _encode(model.mask),
        "parameters": {
            "classes": _encode(model.classes),
            "class_names": list(model.class_names),
            "task": model.task,
            "converged": bool(model.converged),
            "state": _encode(model.params),
        },
        "seed": int(model.seed),
        "catalog_version": model.catalog_version,
        "processing": None if processing is None else {
            "pipeline": "dca" if isinstance(processing, DcaConfig) else "eis",
            "config": asdict(processing),
        },
    }


_ABSENT = object()


def _field(data: dict, path: str, convert=lambda v: v, default=_ABSENT):
    """``convert`` of the value at the dotted ``path`` (``default`` when the
    last key is absent and a default is given)."""
    try:
        *parents, last = path.split(".")
        for key in parents:
            data = data[key]
        if default is not _ABSENT and last not in data:
            return default
        return convert(data[last])
    except (LookupError, TypeError, ValueError) as exc:
        raise FormatVersionMismatch(
            f"model field {path!r} is missing or malformed ({type(exc).__name__}: {exc})"
        ) from exc


def model_from_json_dict(data: dict) -> TrainedModel:
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"model format_version {version!r} not supported (expected {FORMAT_VERSION!r})"
        )
    kind = data.get("kind")
    if kind not in KINDS:
        raise UnsupportedKind(f"unknown model kind {kind!r} in model file")
    module = _MODULES[kind]

    def state(saved: dict) -> dict:
        for name in module.STATE:
            _field(data, f"parameters.state.{name}")
        return {name: _finite(value, name) for name, value in _decode(saved).items()}

    try:
        model = TrainedModel(
            kind=kind,
            hyperparams=_field(data, "hyperparams", lambda hp: normalize_hyperparams(kind, hp)),
            standardizer=Standardizer(
                mean=(mean := _field(data, "standardizer.mean", _vector)),
                scale=_field(data, "standardizer.scale", lambda s: _positive(_vector(s, len(mean)))),
            ),
            mask=_field(data, "mask", lambda m: None if m is None else _vector(m, len(mean), mask=True), None),
            params=_field(data, "parameters.state", state),
            seed=_field(data, "seed", int),
            catalog_version=_field(data, "catalog_version"),
            classes=_field(data, "parameters.classes", _vector),
            class_names=_field(data, "parameters.class_names", tuple, ()),
            converged=_field(data, "parameters.converged", bool, True),
            task=_field(data, "parameters.task", default="identification"),
            processing=_field(data, "processing", _processing),
        )
    except DimensionMismatch as exc:      # a class-name count that fits no class table
        raise FormatVersionMismatch(f"model file has {exc}") from exc
    width, k = model.input_width, len(model.classes)
    try:
        for value in model.params.values():
            if isinstance(value, NodeTable) and value.importances.shape[1] != width:
                raise ValueError(f"tree importances are {value.importances.shape[1]} features wide")
            if isinstance(value, NodeTable) and value.counts.shape[1] != k:
                raise ValueError(f"tree class sums are {value.counts.shape[1]} classes wide")
        if hasattr(module, "check_state"):
            module.check_state(model.params, k)
        # a corrupt state may overflow or divide by 0; its scores then fail below
        with np.errstate(all="ignore"):
            scores = classify(model, np.zeros((1, width)))[1]
        if scores.shape != (1, k) or not np.isfinite(scores).all():
            raise ValueError(f"an all-zero row scores {scores.tolist()}")
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise FormatVersionMismatch(f"model state does not score rows of the standardizer's "
                                    f"{width} features ({type(exc).__name__}: {exc})") from exc
    return model


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` under a temporary name in the same folder,
    then move it into place, so a failed write leaves the previous file.
    An ``OSError`` becomes ``WriteFailed``, naming the file."""
    folder, name = os.path.split(path)
    tmp = os.path.join(folder, f".{name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise WriteFailed(f"cannot write {path}: {exc}") from exc
        raise


def save_model(model: TrainedModel, path: str) -> None:
    write_atomic(path, json.dumps(model_to_json_dict(model), sort_keys=True) + "\n")


def load_model(path: str) -> TrainedModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FormatVersionMismatch(f"cannot read model file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatVersionMismatch(f"model file {path} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatVersionMismatch("model file does not hold a JSON object")
    return model_from_json_dict(data)
