"""Run configuration: one JSON document drives a whole experiment.

Validation is strict and total before any work starts: unknown keys are
rejected at every nesting level, and every error names the offending
field by dotted path, so a typo like "eval.ballances" fails fast
instead of silently running with defaults.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Tuple

from .dca import DcaConfig
from .eis import EisConfig
from .errors import BatteryAuthError, ConfigError
from .evaluate import BALANCE_LEVELS, TARGETS, EvalConfig
from .models import ModelSpec, enumerate_grid, make_spec

PIPELINES = ("dca", "eis")
TASKS = ("identification", "authentication")
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
                raise ValueError(f"{key}: must be > 0, got {getattr(self, key)}")
        if not self.seed >= 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")


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
    eval: EvalConfig    # the "eval" and "selection" sections, the thread count and the snapshot

    @property
    def threads(self) -> int:
        return self.eval.threads

    @property
    def snapshot(self) -> dict:
        return self.eval.snapshot


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
    if kind is not None and not isinstance(value, kind):
        want = kind.__name__ if not isinstance(kind, tuple) else "/".join(k.__name__ for k in kind)
        raise ConfigError(f"{path}{key}: expected {want}, got {type(value).__name__}")
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"{path}{key}: expected int, got bool")
    return value


def _seed(data: dict, path: str, default: int) -> int:
    seed = _get(data, "seed", int, path, default)
    if seed < 0:
        raise ConfigError(f"{path}seed: must be >= 0, got {seed}")
    return seed


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
        seed = _seed(item, path + ".", base_seed)
        try:
            spec = make_spec(kind, grid=grid, seed=seed)
            enumerate_grid(spec)  # every grid point converts and is in bounds
        except BatteryAuthError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        # runs keep one winner per kind, so a second spec of a kind would
        # overwrite the first one's model file
        first = next((j for j, other in enumerate(specs) if other.kind == spec.kind), None)
        if first is not None:
            raise ConfigError(f"{path}: kind {spec.kind!r} repeats models[{first}]")
        specs.append(spec)
    return tuple(specs)


def _choices(data: dict, key: str, allowed: tuple, default: tuple) -> tuple:
    """eval.<key> as a non-empty tuple of distinct members of ``allowed``."""
    values = _get(data, key, list, "eval.", list(default))
    for v in values:
        if v not in allowed:
            raise ConfigError(f"eval.{key}: {v!r} not in {list(allowed)}")
    if not values:
        raise ConfigError(f"eval.{key}: must not be empty")
    if len(set(values)) < len(values):
        raise ConfigError(f"eval.{key}: duplicate entries in {values}")
    return tuple(values)


def _parse_eval(
    data: dict, selection: dict, pipeline: str, threads: int, snapshot: dict
) -> Tuple[Tuple[str, ...], EvalConfig]:
    """The tasks to run, and the protocol settings of the eval and selection sections."""
    path, d = "eval.", EvalConfig()
    _reject_unknown(data, {"seed", "train_ratio", "folds", "balances", "tasks", "targets"}, "eval")
    _reject_unknown(selection, {"enabled", "fdr"}, "selection")
    ratio = _get(data, "train_ratio", float, path, d.train_ratio)
    if not 0.5 <= ratio < 1.0:
        raise ConfigError(f"eval.train_ratio: must be in [0.5, 1), got {ratio}")
    folds = _get(data, "folds", int, path, d.folds)
    if folds < 2:
        raise ConfigError(f"eval.folds: must be >= 2, got {folds}")
    # impedance features benefit from pruning; differential-capacity runs
    # keep the full catalog unless asked otherwise
    enabled = _get(selection, "enabled", bool, "selection.", pipeline == "eis")
    fdr = _get(selection, "fdr", float, "selection.", d.selection_fdr)
    if not 0.0 < fdr < 1.0:
        raise ConfigError(f"selection.fdr: must be in (0, 1), got {fdr}")
    balances = _choices(data, "balances", BALANCE_LEVELS, d.balances)
    return _choices(data, "tasks", TASKS, TASKS), EvalConfig(
        seed=_seed(data, path, d.seed),
        train_ratio=ratio,
        folds=folds,
        targets=_choices(data, "targets", TARGETS, d.targets),
        balances=tuple(int(b) for b in balances),
        selection_enabled=enabled,
        selection_fdr=fdr,
        threads=threads,
        snapshot=snapshot,
    )


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
    threads = _get(data, "threads", int, "", EvalConfig().threads)
    if threads < 1:
        raise ConfigError(f"threads: must be >= 1, got {threads}")

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

    tasks, eval_cfg = _parse_eval(
        _get(data, "eval", dict, "", {}) or {},
        _get(data, "selection", dict, "", {}) or {},
        pipeline,
        threads,
        data,
    )
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
