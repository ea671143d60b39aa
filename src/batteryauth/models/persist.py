"""Versioned JSON envelope for trained models.

Layout: {format_version, kind, hyperparams, standardizer, mask,
parameters, seed, catalog_version}. ``parameters`` nests the class table,
task tag, convergence flag, and the kind-specific fitted state (KNN keeps
its training matrix inline). Floats survive the round trip exactly
(shortest-repr JSON), so a loaded model predicts bit-identically.

One codec serves every kind's state. Saving, an array is written as
nested lists (``tolist``), a ``Tree`` as a dict of its fields, dicts
and lists are walked, and a ``NodeTable`` is skipped. Loading, a list
of numbers (nested or empty) becomes an array, and its dtype comes from
the JSON number form: ``tolist`` and ``json`` write every float with a
``.`` or an exponent, so int arrays load as int64 and float arrays as
float64. A dict with exactly the ``Tree`` fields becomes a ``Tree``.
Tables derived from the state are never saved; a kind that has them
rebuilds them at load (``with_table``). A missing or malformed field,
among them each state field the kind declares in ``STATE``, raises
FormatVersionMismatch naming it.

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
from dataclasses import fields
from functools import partial

import numpy as np

from ..errors import FormatVersionMismatch, UnsupportedKind
from .base import _MODULES, KINDS, Standardizer, TrainedModel, normalize_hyperparams
from .tree import NodeTable, Tree

FORMAT_VERSION = "1"

_TREE_FIELDS = {f.name for f in fields(Tree)}


def _encode(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Tree):
        value = vars(value)
    if isinstance(value, dict):
        return {key: _encode(v) for key, v in value.items() if not isinstance(v, NodeTable)}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    return value


def _decode(value):
    if isinstance(value, dict):
        if value.keys() == _TREE_FIELDS:
            return Tree(**{key: np.asarray(v) for key, v in value.items()})
        return {key: _decode(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value] if value and isinstance(value[0], dict) else np.asarray(value)
    return value


def model_to_json_dict(model: TrainedModel) -> dict:
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
            "state": _encode(model.params),
        },
        "seed": int(model.seed),
        "catalog_version": model.catalog_version,
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
    restore = getattr(module, "with_table", dict)

    def state(saved: dict) -> dict:
        for name in module.STATE:
            _field(data, f"parameters.state.{name}")
        return restore(_decode(saved))

    floats = partial(np.asarray, dtype=float)
    return TrainedModel(
        kind=kind,
        hyperparams=_field(data, "hyperparams", lambda hp: normalize_hyperparams(kind, hp)),
        standardizer=Standardizer(
            mean=_field(data, "standardizer.mean", floats),
            scale=_field(data, "standardizer.scale", floats),
        ),
        mask=_field(data, "mask", lambda m: None if m is None else np.asarray(m, dtype=bool), None),
        params=_field(data, "parameters.state", state),
        seed=_field(data, "seed", int),
        catalog_version=_field(data, "catalog_version"),
        classes=_field(data, "parameters.classes", np.asarray),
        class_names=_field(data, "parameters.class_names", tuple, ()),
        converged=_field(data, "parameters.converged", bool, True),
        task=_field(data, "parameters.task", default="identification"),
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
