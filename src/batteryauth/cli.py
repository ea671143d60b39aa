"""Command-line front end: run experiments, authenticate samples, benchmark.

Three subcommands. ``run`` drives the whole pipeline from one JSON
config (generate or ingest data, process, extract, select, train with
grid search, evaluate, write reports and model files). ``authenticate``
applies a saved model to a sample CSV. ``bench`` measures model load
time, per-sample inference latency and serialized model size.

Exit codes: 0 success, 2 configuration/validation error, 1 runtime
error, 141 (128 + SIGPIPE) when the reader of standard output goes away
(``batteryauth authenticate ... | head -1``). Failures print one
module-qualified line to stderr, never a raw traceback.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import statistics
import sys
import time
from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from . import __version__
from .config import RunConfig, load_config, read_text
from .dca import DcaConfig
from .eis import EisConfig
from .errors import (BadSpec, BatteryAuthError, ConfigError, DimensionMismatch, EmptyDataset,
                     FormatVersionMismatch, MalformedCsv)
from .evaluate import (
    auth_averages,
    merge_reports,
    report_to_csv,
    report_to_json,
    run_authentication,
    run_identification,
    task_name,
)
from .features import FeatureMatrix, catalog_default, labels_for, matrix_from_cycles, matrix_from_spectra
from .io_csv import parse_cycle_csv, parse_eis_csv
from .models import TrainedModel, classify, load_model, predict, save_model
from .models.persist import write_atomic
from .records import build_catalog
from .synth import demo_specs, gen_dataset, gen_eis_dataset, specs_from_json


def _config_sha256(snapshot: dict) -> str:
    blob = json.dumps(snapshot, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


SAVED_BALANCE = 50  # the one balance whose authentication winners are saved


def _model_file_name(task: str, kind: str, legit_label: Optional[str] = None) -> str:
    """The file a winner is saved to: ``model_ident_<task>_<kind>.json``, or
    ``model_auth_<task>_<label>_50_<kind>.json`` with every character of the
    label other than a letter, a digit, "-" or "_" made "_"."""
    if legit_label is None:
        return f"model_ident_{task}_{kind}.json"
    label = "".join(c if c.isalnum() or c in "-_" else "_" for c in legit_label)
    return f"model_auth_{task}_{label}_{SAVED_BALANCE}_{kind}.json"


def _check_model_file_names(cfg: RunConfig, matrix: FeatureMatrix) -> None:
    """Refuse two legit labels whose authentication winners would be saved
    under one file name, before anything is fitted."""
    if "authentication" not in cfg.tasks or SAVED_BALANCE not in cfg.eval.balances:
        return
    seen: dict = {}
    for target in cfg.eval.targets:
        task = task_name(target, "authentication")
        for label in labels_for(matrix, target)[1]:
            for spec in cfg.models:
                name = _model_file_name(task, spec.kind, label)
                if seen.setdefault(name, label) != label:
                    raise ConfigError(f"{target} labels {seen[name]!r} and {label!r} both save "
                                      f"their models as {name}; rename one")


# === run ===

def _load_specs(cfg: RunConfig):
    assert cfg.synth is not None
    if cfg.synth.specs_path == "demo":
        return demo_specs()
    return specs_from_json(read_text(cfg.synth.specs_path, "cell-spec file"))


def _build_dataset(cfg: RunConfig):
    if cfg.synth is not None:
        specs = _load_specs(cfg)
        if cfg.pipeline == "dca":
            return gen_dataset(
                specs,
                cells_per_spec=cfg.synth.cells_per_spec,
                cycles_per_cell=cfg.synth.records_per_cell,
                seed=cfg.synth.seed,
                n_points=cfg.synth.n_points,
            )
        return gen_eis_dataset(
            specs,
            cells_per_spec=cfg.synth.cells_per_spec,
            sweeps_per_cell=cfg.synth.records_per_cell,
            seed=cfg.synth.seed,
            n_freq=cfg.synth.n_freq,
        )
    text = read_text(cfg.input_path, "input")  # type: ignore[arg-type]
    records = parse_cycle_csv(text) if cfg.pipeline == "dca" else parse_eis_csv(text)
    return build_catalog(records)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.output_dir:
        cfg = replace(cfg, output_dir=args.output_dir)
    # before any work, so an unusable path costs nothing
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.output_dir}: {exc}") from exc
    data = _build_dataset(cfg)
    if cfg.pipeline == "dca":
        matrix = matrix_from_cycles(data, cfg.dca, threads=cfg.threads)
    else:
        matrix = matrix_from_spectra(data, cfg.eis, threads=cfg.threads)
    _check_model_file_names(cfg, matrix)

    reports = []
    if "identification" in cfg.tasks:
        reports.append(run_identification(matrix, cfg.models, cfg.eval))
    if "authentication" in cfg.tasks:
        reports.append(run_authentication(matrix, cfg.models, cfg.eval))
    report = reports[0] if len(reports) == 1 else merge_reports(reports[0], reports[1])

    provenance = {
        "config_sha256": _config_sha256(cfg.snapshot),
        "catalog_version": matrix.catalog_version,
        "package_version": __version__,
        "eval_seed": cfg.eval.seed,
        "synth_seed": cfg.synth.seed if cfg.synth is not None else None,
    }
    report_json_path = os.path.join(cfg.output_dir, "report.json")
    sections = {"config": cfg.snapshot, "provenance": provenance}
    write_atomic(report_json_path, report_to_json(report, sections))
    write_atomic(os.path.join(cfg.output_dir, "report.csv"), report_to_csv(report))

    saved = [(r, None) for r in report.ident_results]
    saved += [(r, r.legit_label) for r in report.auth_results if r.balance == SAVED_BALANCE]
    for r, label in saved:
        path = os.path.join(cfg.output_dir, _model_file_name(r.task, r.kind, label))
        save_model(r.model, path)

    for r in report.ident_results:
        print(f"{r.task} {r.kind}: macro_f1={r.metric_set.f1:.4f} accuracy={r.metric_set.accuracy:.4f}")
    averages = auth_averages(report.auth_results)["overall"]
    for key in sorted(averages):
        entry = averages[key]
        print(
            f"{key}: mean_f1={entry['f1']:.4f} mean_far={entry['far']:.4f} "
            f"mean_frr={entry['frr']:.4f} over {entry['cells']} cells"
        )
    print(f"report: {report_json_path}")
    return 0


# === authenticate ===

def _load_model(path: str) -> TrainedModel:
    """The model saved at ``path``. Hyperparameters that fail their checks
    make the file a bad model file (exit 1), not a bad configuration."""
    try:
        return load_model(path)
    except ConfigError as exc:
        raise FormatVersionMismatch(f"model file {path}: {exc}") from exc


def _features_for_samples(model: TrainedModel, sample_path: str) -> Tuple[np.ndarray, List[str]]:
    """Full-catalog feature rows and names for every record in the sample CSV.

    Records go through the same ``matrix_from_*`` path as in ``run``, with
    the processing settings the model file pins (the defaults when it
    pins none). The CSV header picks the parser and the catalog, so a
    sample of the wrong record kind is refused as a catalog error before
    any record is parsed.
    """
    text = read_text(sample_path, "sample file")
    try:
        columns = {c.strip() for c in next(csv.reader(io.StringIO(text)), [])}
    except csv.Error as exc:
        raise MalformedCsv(f"line 1: {exc}") from exc
    eis = "frequency" in columns and "z_real" in columns
    if not eis and "voltage" not in columns:
        raise DimensionMismatch(
            "sample CSV is neither a cycle file (voltage/capacity) nor an EIS file (frequency/z_real/z_imag)"
        )
    version = catalog_default(2 if eis else 1).version
    processing = model.processing or (EisConfig() if eis else DcaConfig())
    if model.catalog_version != version or isinstance(processing, EisConfig) != eis:
        raise DimensionMismatch(
            f"model was trained on catalog {model.catalog_version} with {type(processing).__name__}, "
            f"sample extracts {version}"
        )
    records = parse_eis_csv(text) if eis else parse_cycle_csv(text)
    if not records:
        raise EmptyDataset(f"sample file {sample_path} holds no records")
    data = build_catalog(records)
    matrix = matrix_from_spectra(data, processing) if eis else matrix_from_cycles(data, processing)
    return matrix.values, [f"{m.cell_id}/{m.cycle_index}" for m in matrix.metas]


def cmd_authenticate(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    X, names = _features_for_samples(model, args.sample)
    labels, scores = classify(model, X)
    # a label's position in model.classes picks its name and its score
    positions = np.searchsorted(model.classes, labels)
    results = []
    for i, (name, label, pos) in enumerate(zip(names, labels, positions)):
        if model.task == "authentication":
            text_label = "authenticated" if int(label) == 1 else "not_authenticated"
        elif model.class_names:
            text_label = model.class_names[pos]
        else:
            text_label = str(int(label))
        results.append({"index": i, "sample": name, "label": text_label, "score": float(scores[i, pos])})
    if args.json:
        print(
            json.dumps(
                {"model_kind": model.kind, "task": model.task, "results": results},
                sort_keys=True,
            )
        )
    else:
        for r in results:
            print(f"{r['sample']}: {r['label']} (score={r['score']:.4f})")
    return 0


# === bench ===

def cmd_bench(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    print("kind,task,samples,repeats,median_ms_per_sample,model_size_kb,load_ms")
    for model_path in args.model:
        t0 = time.perf_counter()
        model = _load_model(model_path)
        load_ms = (time.perf_counter() - t0) * 1000.0
        X, _ = _features_for_samples(model, args.sample)
        predict(model, X[:1])           # warm-up outside the timed region
        times_ms = []
        for _ in range(args.repeats):
            for i in range(len(X)):
                t0 = time.perf_counter()
                predict(model, X[i : i + 1])
                times_ms.append((time.perf_counter() - t0) * 1000.0)
        median_ms = statistics.median(times_ms)
        size_kb = os.path.getsize(model_path) / 1024.0
        print(f"{model.kind},{model.task},{len(X)},{args.repeats},{median_ms:.3f},{size_kb:.1f},{load_ms:.3f}")
    return 0


# === wiring ===

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batteryauth",
        description="Battery authentication pipelines over capacity cycles and impedance sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the run-config JSON file")
    p_run.add_argument("--output-dir", default=None, help="override config output_dir")
    p_run.set_defaults(func=cmd_run)

    p_auth = sub.add_parser("authenticate", help="apply a saved model to a sample CSV")
    p_auth.add_argument("--model", required=True, help="path to a saved model JSON file")
    p_auth.add_argument("--sample", required=True, help="cycle or EIS CSV with samples to score")
    p_auth.add_argument("--json", action="store_true", help="machine-readable output")
    p_auth.set_defaults(func=cmd_authenticate)

    p_bench = sub.add_parser("bench", help="measure load time, inference latency and model size")
    p_bench.add_argument("--model", required=True, nargs="+", help="one or more saved model files")
    p_bench.add_argument("--sample", required=True, help="CSV with samples to time against")
    p_bench.add_argument("--repeats", type=int, default=3, help="timing repetitions (>= 1)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe; point stdout at devnull so the flush at
        # interpreter exit cannot fail again (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigError, BadSpec) as exc:
        print(f"{type(exc).__module__}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BatteryAuthError as exc:
        print(f"{type(exc).__module__}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the contract is: no bare stack traces
        print(f"unexpected {type(exc).__module__}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
