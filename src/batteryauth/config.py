"""Run configuration: one JSON document drives a whole experiment.

Validation is strict and total before any work starts: unknown keys are
rejected at every nesting level, and every error names the offending
field by dotted path, so a typo like "eval.ballances" fails fast
instead of silently running with defaults.

Bounds live on the settings types, which refuse a bad value when made;
this module reads keys, checks their JSON types and names each refusal
by its dotted path.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Tuple

from .dca import DcaConfig
from .eis import EisConfig
from .errors import BadInterval, BatteryAuthError, ConfigError
from .evaluate import EvalConfig, check_choices
from .models import ModelSpec, make_spec
from .models.base import TASKS

PIPELINES = ("dca", "eis")
DEFAULT_MODEL_KINDS = ("RandomForest",)


@dataclass(frozen=True)
class SynthConfig:
    # "demo" or a path to a cell-spec JSON list, under the key "specs"
    specs_path: str = field(default="demo", metadata={"key": "specs"})
    cells_per_spec: int = 10
    records_per_cell: int = 20
    n_points: int = 512
    n_freq: int = 128
    seed: int = 7

    def __post_init__(self):
        # the bounds of every SynthConfig; NaN fails them
        for key in ("cells_per_spec", "records_per_cell", "n_points", "n_freq"):
            if not getattr(self, key) > 0:
                raise BadInterval(f"{key}: must be > 0, got {getattr(self, key)}")
        if not self.seed >= 0:
            raise BadInterval(f"seed: must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RunConfig:
    pipeline: str
    output_dir: str
    input_path: Optional[str]
    synth: Optional[SynthConfig]
    dca: DcaConfig
    eis: EisConfig
    models: Tuple[ModelSpec, ...]
    tasks: Tuple[str, ...]
    eval: EvalConfig    # the "eval" and "selection" sections and the thread count
    snapshot: dict      # the config document itself, which report.json repeats

    @property
    def threads(self) -> int:
        return self.eval.threads


def _reject_unknown(data: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        where = path or "config"
        raise ConfigError(f"{where}: unknown key(s) {unknown}")


def _get(data: dict, key: str, kind, path: str, default=None, required: bool = False):
    if key not in data:
        if required:
            raise ConfigError(f"{path}{key}: required key is missing")
        return default
    value = data[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"{path}{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _settings(cls, data: dict, section: str):
    """The settings ``cls`` of a config section: each field of its
    default's type, within the bounds ``cls`` checks when made. A field's
    key is its name, or the ``"key"`` of its metadata."""
    defaults = asdict(cls())
    keys = {f.metadata.get("key", f.name): f.name for f in fields(cls)}
    _reject_unknown(data, set(keys), section)
    values = {name: _get(data, key, type(defaults[name]), f"{section}.", defaults[name])
              for key, name in keys.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def _parse_models(items, base_seed: int) -> Tuple[ModelSpec, ...]:
    if not isinstance(items, list) or not items:
        raise ConfigError("models: must be a non-empty list of model objects")
    specs = []
    for i, item in enumerate(items):
        path = f"models[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{path}: expected an object, got {type(item).__name__}")
        _reject_unknown(item, {"kind", "grid", "seed"}, path)
        kind = _get(item, "kind", str, path + ".", required=True)
        grid = _get(item, "grid", dict, path + ".", None)
        seed = _get(item, "seed", int, path + ".", base_seed)
        try:
            spec = make_spec(kind, grid=grid, seed=seed)
        except BadInterval as exc:      # a field's bound, "<field>: <reason>"
            raise ConfigError(f"{path}.{exc}") from exc
        except BatteryAuthError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        # runs keep one winner per kind, so a second spec of a kind would
        # overwrite the first one's model file
        first = next((j for j, other in enumerate(specs) if other.kind == spec.kind), None)
        if first is not None:
            raise ConfigError(f"{path}: kind {spec.kind!r} repeats models[{first}]")
        specs.append(spec)
    return tuple(specs)


def _parse_eval(doc: dict, pipeline: str) -> Tuple[Tuple[str, ...], EvalConfig]:
    """The tasks to run, and the eval and selection settings with the thread count."""
    path, d = "eval.", EvalConfig()
    data, selection = _get(doc, "eval", dict, "", {}), _get(doc, "selection", dict, "", {})
    _reject_unknown(data, {"seed", "train_ratio", "folds", "balances", "tasks", "targets"}, "eval")
    _reject_unknown(selection, {"enabled", "fdr"}, "selection")
    ratio = _get(data, "train_ratio", float, path, d.train_ratio)
    # a run trains on at least half of each class, so every class of two or
    # more rows keeps a training row; EvalConfig itself allows (0, 1)
    if not ratio >= 0.5:
        raise ConfigError(f"eval.train_ratio: must be in [0.5, 1), got {ratio}")
    tasks = tuple(_get(data, "tasks", list, path, list(TASKS)))
    try:
        check_choices("tasks", tasks, TASKS)
        return tasks, EvalConfig(
            seed=_get(data, "seed", int, path, d.seed),
            train_ratio=ratio,
            folds=_get(data, "folds", int, path, d.folds),
            targets=tuple(_get(data, "targets", list, path, list(d.targets))),
            balances=tuple(_get(data, "balances", list, path, list(d.balances))),
            # impedance features benefit from pruning; differential-capacity
            # runs keep the full catalog unless asked otherwise
            selection_enabled=_get(selection, "enabled", bool, "selection.", pipeline == "eis"),
            selection_fdr=_get(selection, "fdr", float, "selection.", d.selection_fdr),
            threads=_get(doc, "threads", int, "", d.threads),
        )
    except ValueError as exc:           # a field's bound, "<field>: <reason>"
        name, _, reason = str(exc).partition(": ")
        where = {"selection_fdr": "selection.fdr", "threads": "threads"}.get(name, path + name)
        raise ConfigError(f"{where}: {reason}") from exc


_TOP_KEYS = {
    "pipeline", "output_dir", "threads", "input", "synth",
    "dca", "eis", "selection", "models", "eval",
}


def config_from_json_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    _reject_unknown(data, _TOP_KEYS, "")
    pipeline = _get(data, "pipeline", str, "", required=True)
    if pipeline not in PIPELINES:
        raise ConfigError(f"pipeline: must be one of {list(PIPELINES)}, got {pipeline!r}")
    output_dir = _get(data, "output_dir", str, "", "out")

    input_block = _get(data, "input", dict, "", None)
    input_path = None
    if input_block is not None:
        _reject_unknown(input_block, {"csv"}, "input")
        input_path = _get(input_block, "csv", str, "input.", required=True)
    synth_block = _get(data, "synth", dict, "", None)
    synth = _settings(SynthConfig, synth_block, "synth") if synth_block is not None else None
    if input_path is None and synth is None:
        raise ConfigError("config needs either an 'input' or a 'synth' section")
    if input_path is not None and synth is not None:
        raise ConfigError("'input' and 'synth' sections are mutually exclusive")

    tasks, eval_cfg = _parse_eval(data, pipeline)
    models_items = data.get("models", [{"kind": k} for k in DEFAULT_MODEL_KINDS])
    return RunConfig(
        pipeline=pipeline,
        output_dir=output_dir,
        input_path=input_path,
        synth=synth,
        dca=_settings(DcaConfig, _get(data, "dca", dict, "", {}) or {}, "dca"),
        eis=_settings(EisConfig, _get(data, "eis", dict, "", {}) or {}, "eis"),
        models=_parse_models(models_items, eval_cfg.seed),
        tasks=tasks,
        eval=eval_cfg,
        snapshot=data,
    )


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of a file the run names; a file that cannot be read is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path: str) -> RunConfig:
    text = read_text(path, "config")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_json_dict(data)
