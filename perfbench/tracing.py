"""In-memory span tracing around batteryauth's public functions.

The tracer replaces module attributes (the name a caller looks a function
up through, e.g. ``batteryauth.evaluate.grid_search``) with timing
wrappers, and puts the originals back on ``uninstall``. Nothing under
``src/`` is edited. A wrapped name that no longer exists raises at
install time, so a rename in the program cannot silently drop a layer.

Each span records name, start, end, parent span and thread. Spans opened
inside a worker pool attach to the ``parallel.map`` span that started the
pool, so per-thread busy time stays attributable.
"""
from __future__ import annotations

import importlib
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

KINDS = (
    "AdaBoost", "DecisionTree", "GaussianNB", "KNN",
    "NeuralNet", "QDA", "RandomForest", "SVM",
)


def _predict_attrs(args, kwargs, result) -> dict:
    X = args[1]
    return {"kind": args[0].kind, "rows": 1 if X.ndim == 1 else len(X)}


def _fit_attrs(args, kwargs, result) -> dict:
    return {"kind": args[0].kind, "converged": bool(result.converged)}


def _extract_attrs(args, kwargs, result) -> dict:
    return {"imputed": int(result.imputed_count)}


def _select_attrs(args, kwargs, result) -> dict:
    return {"kept": int(result.keep.sum()), "screened": int(result.keep.size)}


def _grid_attrs(args, kwargs, result) -> dict:
    cv = result[1]
    return {"candidates": len(cv), "failed": sum(1 for r in cv if r.error)}


def _save_attrs(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, span name, attribute extractor). Every entry is the
# lookup a caller in the pipeline or in the scoring loop actually uses.
SPANS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("batteryauth.cli", "cmd_run", "cli.run", None),
    ("batteryauth.cli", "gen_dataset", "synth.gen", None),
    ("batteryauth.cli", "gen_eis_dataset", "synth.gen", None),
    ("batteryauth.cli", "matrix_from_cycles", "features.matrix", None),
    ("batteryauth.cli", "matrix_from_spectra", "features.matrix", None),
    ("batteryauth.cli", "run_identification", "evaluate.ident", None),
    ("batteryauth.cli", "run_authentication", "evaluate.auth", None),
    ("batteryauth.cli", "save_model", "models.save", _save_attrs),
    ("batteryauth.features", "process_cycle", "dca.process", None),
    ("batteryauth.features", "process_spectrum", "eis.process", None),
    ("batteryauth.features", "extract_features", "features.extract", _extract_attrs),
    ("batteryauth.features", "ordered_map", "parallel.map", None),
    ("batteryauth.dca", "process_cycle", "dca.process", None),
    ("batteryauth.eis", "process_spectrum", "eis.process", None),
    ("batteryauth.io_csv", "parse_cycle_csv", "io_csv.parse", None),
    ("batteryauth.io_csv", "parse_eis_csv", "io_csv.parse", None),
    ("batteryauth.evaluate", "select_features", "selection.screen", _select_attrs),
    ("batteryauth.evaluate", "grid_search", "models.grid_search", _grid_attrs),
    ("batteryauth.evaluate", "predict", "models.predict", _predict_attrs),
    ("batteryauth.models.search", "train", "models.fit", _fit_attrs),
    ("batteryauth.models.search", "predict", "models.predict", _predict_attrs),
    ("batteryauth.models.search", "ordered_map", "parallel.map", None),
    ("batteryauth.models", "predict", "models.predict", _predict_attrs),
    ("batteryauth.models", "predict_scores", "models.predict", _predict_attrs),
    ("batteryauth.models", "load_model", "models.load", None),
)

# Counted at the boundary but not timed as a child span: the scenario draw
# is part of evaluate's own (self) time.
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("batteryauth.evaluate", "make_auth_scenario", "evaluate.scenarios"),
)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counts: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: Dict[int, int] = {}
        self._saved: List[Tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # --- span bookkeeping ---

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_index(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._threads.setdefault(ident, len(self._threads))

    def _open(self, name: str) -> dict:
        stack = self._stack()
        span = {
            "name": name,
            "parent": stack[-1] if stack else None,
            "thread": self._thread_index(),
            "start": time.perf_counter() - self._t0,
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self._t0
        self._stack().pop()

    # --- wrappers ---

    def _wrap(self, fn: Callable, name: str, attrs: Optional[Callable]) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def _wrap_map(self, original: Callable) -> Callable:
        """ordered_map: items run in pool threads start under the map span."""
        tracer = self

        def wrapper(fn, items, threads=1):
            span = tracer._open("parallel.map")
            parent_id = span["id"]

            def in_pool(item):
                stack = tracer._stack()
                if stack:
                    return fn(item)
                stack.append(parent_id)
                try:
                    return fn(item)
                finally:
                    stack.pop()

            try:
                return original(in_pool, items, threads=threads)
            finally:
                tracer._close(span)

        return wrapper

    def _wrap_count(self, fn: Callable, name: str) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, attr, span_name, attrs in SPANS:
            module, original = _lookup(module_name, attr)
            if span_name == "parallel.map":
                wrapped = self._wrap_map(original)
            else:
                wrapped = self._wrap(original, span_name, attrs)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped)
        for module_name, attr, count_name in COUNTS:
            module, original = _lookup(module_name, attr)
            self.counts.setdefault(count_name, 0)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap_count(original, count_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
            fh.write("\n")


def _lookup(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    original = getattr(module, attr, None)
    if not callable(original):
        raise RuntimeError(
            f"traced name {module_name}.{attr} is missing or not callable; "
            "update perfbench/tracing.py to the program's new layout"
        )
    return module, original


# === per-layer metrics ===

# name -> (unit, better, end-to-end metric it should move, on which workloads).
# Counts and busy times cover one traced section: one full run, then model
# load, the per-sample requests and one batch pass over the scoring pool.
_PER_KIND = {
    "models.fit_ms.{}": ("ms", "lower", "run_s",
                         "dca-trees, eis-screen (tree kinds, KNN, GaussianNB); "
                         "dca-solvers (SVM, AdaBoost, QDA, NeuralNet)"),
    "models.fits.{}": ("count", "lower", "run_s", "the workloads that use the kind"),
    "models.predict_ms.{}": ("ms", "lower", "score_mean_ms, score_p95_ms",
                             "one-row predict in scoring, every workload"),
    "models.predict_batch_ms.{}": ("ms", "lower", "run_s, score_samples_per_s",
                                   "batched predict: validation in training, batch scoring"),
}
LAYER_METRICS: Dict[str, Tuple[str, str, str, str]] = {
    "io_csv.parse_ms": ("ms", "lower", "score_mean_ms, score_samples_per_s, score_cold_s",
                        "all (scoring only; no training run reads CSV)"),
    "synth.gen_s": ("s", "lower", "run_s", "all (< 1%, watch only)"),
    "dca.process_ms": ("ms", "lower", "run_s, score_mean_ms", "dca-trees, dca-solvers"),
    "dca.records": ("count", "lower", "run_s", "dca-trees, dca-solvers; zero on eis-screen"),
    "eis.process_ms": ("ms", "lower", "run_s, score_mean_ms", "eis-screen"),
    "eis.records": ("count", "lower", "run_s", "eis-screen; zero on dca-trees, dca-solvers"),
    "features.extract_ms": ("ms", "lower", "run_s, score_mean_ms",
                            "dca-trees, eis-screen (2 channels)"),
    "features.imputed_values": ("count", "lower", "ident_macro_f1, auth_f1", "all"),
    "selection.screen_s": ("s", "lower", "run_s, cpu_s", "eis-screen"),
    "selection.calls": ("count", "lower", "run_s",
                        "eis-screen; zero on dca-trees, dca-solvers"),
    "selection.kept_ratio": ("1", "lower", "run_s", "eis-screen (features kept / screened)"),
    "models.grid_search_s": ("s", "lower", "run_s", "all"),
    "models.candidates": ("count", "lower", "run_s", "all"),
    "models.candidates_failed": ("count", "lower", "failed", "all"),
    **{k.format(kind): v for k, v in _PER_KIND.items() for kind in KINDS},
    "models.converged_ratio": ("1", "higher", "run_s, ident_macro_f1",
                               "dca-solvers (SVM, NeuralNet); converged fits / fits"),
    "models.save_ms": ("ms", "lower", "run_s", "all"),
    "models.file_kb": ("kB", "lower", "run_s, score_cold_s", "all"),
    "models.load_ms": ("ms", "lower", "score_cold_s", "all (scoring section)"),
    "evaluate.ident_s": ("s", "lower", "run_s", "all"),
    "evaluate.auth_s": ("s", "lower", "run_s", "all"),
    "evaluate.scenarios": ("count", "lower", "run_s", "all"),
    "evaluate.self_s": ("s", "lower", "run_s", "all"),
    "parallel.cpu_util": ("1", "higher", "run_s, cpu_s",
                          "eis-screen (threads 2); dca-trees is the threads-1 control"),
    "cli.import_s": ("s", "lower", "setup_s, score_cold_s", "all"),
    "cli.write_s": ("s", "lower", "run_s", "all"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall of the section", "all"),
}


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span duration minus the part of it covered by its child spans."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        inside = [
            (max(lo, s["start"]), min(hi, s["end"]))
            for lo, hi in children.get(s["id"], [])
            if hi > s["start"] and lo < s["end"]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _union_length(inside)
    return out


def layer_metrics(tracer: Tracer, section: dict) -> Dict[str, float]:
    """Every LAYER_METRICS entry from the spans of one traced section.

    ``section`` carries what the spans cannot: wall and CPU time of the
    traced run, the configured thread count, import_s and overhead_s.
    Busy times are summed over threads. A layer the section never entered
    reads 0.
    """
    spans = [s for s in tracer.spans if "end" in s]
    by_name: Dict[str, List[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    own = self_times(spans)

    def total_s(name: str, pred=lambda s: True) -> float:
        return sum(s["end"] - s["start"] for s in by_name.get(name, []) if pred(s))

    def mean_ms(name: str, pred=lambda s: True) -> float:
        chosen = [s for s in by_name.get(name, []) if pred(s)]
        return 1e3 * total_s(name, pred) / len(chosen) if chosen else 0.0

    def count(name: str, pred=lambda s: True) -> int:
        return sum(1 for s in by_name.get(name, []) if pred(s))

    def attr_sum(name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in by_name.get(name, []))

    fits = by_name.get("models.fit", [])
    screened = attr_sum("selection.screen", "screened")
    saves = by_name.get("models.save", [])
    m: Dict[str, float] = {
        "io_csv.parse_ms": mean_ms("io_csv.parse"),
        "synth.gen_s": total_s("synth.gen"),
        "dca.process_ms": mean_ms("dca.process"),
        "dca.records": count("dca.process"),
        "eis.process_ms": mean_ms("eis.process"),
        "eis.records": count("eis.process"),
        "features.extract_ms": mean_ms("features.extract"),
        "features.imputed_values": attr_sum("features.extract", "imputed"),
        "selection.screen_s": total_s("selection.screen"),
        "selection.calls": count("selection.screen"),
        "selection.kept_ratio": attr_sum("selection.screen", "kept") / screened if screened else 0.0,
        "models.grid_search_s": total_s("models.grid_search"),
        "models.candidates": attr_sum("models.grid_search", "candidates"),
        "models.candidates_failed": attr_sum("models.grid_search", "failed"),
    }
    for kind in KINDS:
        def of_kind(s, kind=kind):
            return s.get("kind") == kind

        m[f"models.fit_ms.{kind}"] = mean_ms("models.fit", of_kind)
        m[f"models.fits.{kind}"] = count("models.fit", of_kind)
        m[f"models.predict_ms.{kind}"] = mean_ms(
            "models.predict", lambda s: of_kind(s) and s.get("rows") == 1)
        m[f"models.predict_batch_ms.{kind}"] = mean_ms(
            "models.predict", lambda s: of_kind(s) and s.get("rows", 0) > 1)
    m["models.converged_ratio"] = (
        sum(1 for s in fits if s.get("converged")) / len(fits) if fits else 0.0
    )
    m["models.save_ms"] = mean_ms("models.save")
    m["models.file_kb"] = attr_sum("models.save", "bytes") / 1024.0 / len(saves) if saves else 0.0
    m["models.load_ms"] = mean_ms("models.load")
    m["evaluate.ident_s"] = total_s("evaluate.ident")
    m["evaluate.auth_s"] = total_s("evaluate.auth")
    m["evaluate.scenarios"] = tracer.counts.get("evaluate.scenarios", 0)
    m["evaluate.self_s"] = sum(
        own[s["id"]] for s in spans if s["name"] in ("evaluate.ident", "evaluate.auth")
    )
    m["parallel.cpu_util"] = section["run_cpu_s"] / (section["run_wall_s"] * section["threads"])
    m["cli.import_s"] = section["import_s"]
    m["cli.write_s"] = sum(own[s["id"]] for s in by_name.get("cli.run", [])) + total_s("models.save")
    m["trace.overhead_s"] = section["overhead_s"]
    missing = set(LAYER_METRICS) ^ set(m)
    if missing:
        raise RuntimeError(f"per-layer metric table and computation disagree on {sorted(missing)}")
    return m
