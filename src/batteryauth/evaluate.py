"""Experimental protocol: splits, balancing, metrics, and the two tasks.

Identification is multiclass (battery model or architecture as the
label); authentication is binary one-vs-rest (one label legitimate, the
rest pooled as counterfeit) swept over four balance levels. Both tasks
share the same chain: balance the data, optionally select features,
split 80/20 stratified, grid-search each model spec, score on the held
out part. Each result row carries the winner it scored. All randomness
is derived from the config seed, and reports serialize with sorted keys,
so reruns are byte-identical.

Metrics are views of the fold scorer ``models.search.class_scores``; a
0/0 reads 0 and is flagged as degenerate.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (BadInterval, ClassTooSmall, DimensionMismatch, EmptyCounts, InfeasibleBalance,
                     LabelAbsent, SingleClass)
from .features import FeatureMatrix, labels_for, matrix_take
from .models import ModelSpec, TrainedModel, grid_search, predict
from .models.search import SCORES, CandidateResult, class_scores
from .seeding import child_seed, rng_from
from .selection import select_features

BALANCE_LEVELS = (50, 40, 30, 20)
TARGETS = ("architecture", "model")
SCHEMA_VERSION = "1"


def balance_name(legit_percent: int) -> str:
    """Both printed forms of a balance level, e.g. "50/50 (legit 50%)"."""
    return f"{legit_percent}/{100 - legit_percent} (legit {legit_percent}%)"


# === confusion counts and metrics ===

@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


METRIC_FIELDS = ("accuracy", "precision", "recall", "f1", "far", "frr")


@dataclass(frozen=True)
class MetricSet:
    accuracy: float
    precision: float
    recall: float
    f1: float
    far: Optional[float] = None
    frr: Optional[float] = None
    degenerate: Tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {**{f: getattr(self, f) for f in METRIC_FIELDS}, "degenerate": list(self.degenerate)}


def confusion_binary(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionCounts:
    """Binary counts with label 1 as the positive (legitimate) class."""
    (tn, fp), (fn, tp) = confusion_matrix(y_true, y_pred, 2).tolist()
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, k: int) -> np.ndarray:
    """k x k counts, rows = true class, columns = predicted class."""
    y_true, y_pred = np.asarray(y_true, dtype=np.intp), np.asarray(y_pred, dtype=np.intp)
    if y_true.shape != y_pred.shape:
        raise DimensionMismatch(f"labels of shape {y_true.shape} and predictions of shape {y_pred.shape}")
    if np.any((np.minimum(y_true, y_pred) < 0) | (np.maximum(y_true, y_pred) >= k)):
        raise LabelAbsent(f"labels and predictions must be class ids 0..{k - 1}")
    return np.bincount(k * y_true + y_pred, minlength=k * k).reshape(k, k)


def metrics(counts: ConfusionCounts) -> MetricSet:
    """Binary metrics: class 1's precision, recall and F1; FAR and FRR are
    the miss rates of classes 0 and 1."""
    if counts.total == 0:
        raise EmptyCounts("confusion counts sum to zero")
    scores, undefined = class_scores(np.array([[counts.tn, counts.fp], [counts.fn, counts.tp]]))
    rates = np.append(scores[:3, 1], scores[3]).tolist()
    flags = np.append(undefined[:3, 1], undefined[3])
    return MetricSet((counts.tp + counts.tn) / counts.total, *rates,
                     degenerate=tuple(name for name, flag in zip(METRIC_FIELDS[1:], flags) if flag))


def metrics_from_matrix(cm: np.ndarray) -> MetricSet:
    """Multiclass: per-class one-vs-rest, macro averaged; FAR/FRR omitted.
    A class's 0/0 is flagged as "name:class"."""
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise DimensionMismatch(f"confusion matrix must be square, got shape {cm.shape}")
    total = int(cm.sum())
    if total == 0:
        raise EmptyCounts("confusion matrix is empty")
    scores, undefined = class_scores(cm)
    precision, recall, f1, _ = (scores.sum(axis=1) / len(cm)).tolist()
    return MetricSet(float(np.trace(cm)) / total, precision, recall, f1,
                     degenerate=tuple(f"{SCORES[s]}:{c}" for c, s in np.argwhere(undefined[:3].T)))


# === sampling operations ===

def split_train_test(y: np.ndarray, ratio: float = 0.8, seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive (train, test) indices, split per class (80/20 by default).

    Every class keeps at least one training and one test row, or the split
    is refused with ``ClassTooSmall``.
    """
    if not 0.0 < ratio < 1.0:
        raise BadInterval(f"ratio must be in (0, 1), got {ratio}")
    y = np.asarray(y)
    rng = rng_from(seed, "split")
    test_parts = []
    for c in np.unique(y):
        members = np.flatnonzero(y == c)
        n_test = int(round((1.0 - ratio) * len(members)))
        if not 0 < n_test < len(members):
            part = "test" if n_test == 0 else "training"
            raise ClassTooSmall(f"class {c.item()!r} has {len(members)} sample(s); train ratio {ratio} "
                                f"would leave its {part} part empty")
        members = members[rng.permutation(len(members))]
        test_parts.append(members[:n_test])
    test_idx = np.sort(np.concatenate(test_parts)) if test_parts else np.array([], dtype=int)
    train_mask = np.ones(len(y), dtype=bool)
    train_mask[test_idx] = False
    return np.flatnonzero(train_mask), test_idx


def undersample(matrix: FeatureMatrix, seed: int = 0, target: str = "model") -> FeatureMatrix:
    """Reduce every class to the minority count by uniform sampling."""
    y, _ = labels_for(matrix, target)
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise SingleClass("undersampling needs at least 2 classes")
    floor = int(counts.min())
    rng = rng_from(seed, "undersample")
    picked = []
    for c in classes:
        members = np.flatnonzero(y == c)
        picked.append(rng.choice(members, size=floor, replace=False))
    rows = np.concatenate(picked)
    rows = rows[rng.permutation(len(rows))]
    return matrix_take(matrix, rows)


def make_auth_scenario(
    matrix: FeatureMatrix,
    legit_label: Union[int, str],
    balance: int,
    seed: int = 0,
    target: str = "model",
) -> Tuple[FeatureMatrix, np.ndarray]:
    """Binary scenario: legit label -> 1, a stratified counterfeit pool -> 0.

    The draw maximizes total size subject to availability while keeping
    the legit share within one sample of ``balance`` percent. Each other
    class gives min(its rows, L) counterfeit rows, at the largest L that
    fits the draw; the rows still missing come one each from the lowest
    class ids with rows left. Unless a class runs short, that is an even
    split with the remainder on the lowest ids.
    """
    if balance not in BALANCE_LEVELS:
        raise InfeasibleBalance(f"balance must be one of {BALANCE_LEVELS}, got {balance}")
    y, names = labels_for(matrix, target)
    if isinstance(legit_label, str):
        if legit_label not in names:
            raise LabelAbsent(f"label {legit_label!r} not in {list(names)}")
        legit_id = names.index(legit_label)
    else:
        legit_id = int(legit_label)
        if legit_id not in np.unique(y):
            raise LabelAbsent(f"label id {legit_id} absent from the matrix")
    legit_pool = np.flatnonzero(y == legit_id)
    other_classes = [c for c in np.unique(y) if c != legit_id]
    if len(legit_pool) == 0:
        raise InfeasibleBalance(f"legit pool for label {legit_id} is empty")
    if not other_classes:
        raise SingleClass("authentication needs at least one counterfeit class")

    p = balance / 100.0
    n_legit_avail = len(legit_pool)
    n_counter_avail = int(np.count_nonzero(y != legit_id))
    t_cap = min(int(np.floor(n_legit_avail / p)), int(np.floor(n_counter_avail / (1.0 - p))))
    # both pools cover round(t * p) and the rest at every t <= t_cap, and
    # round(t * p) does not fall as t grows: the largest size is t_cap or none
    n_legit = int(round(t_cap * p))
    n_counter = t_cap - n_legit
    if not 0 < n_legit < t_cap:
        raise InfeasibleBalance(
            f"cannot reach {balance}% legit with pools {n_legit_avail}/{n_counter_avail}"
        )

    rng = rng_from(seed, "scenario")
    legit_rows = rng.choice(legit_pool, size=n_legit, replace=False)

    # quotas as in the docstring; the t_cap sizing makes the pools cover the
    # draw. A level fits iff, for some k, the k smallest classes whole plus
    # that many rows from each other class come to at most n_counter.
    avail = [np.flatnonzero(y == c) for c in other_classes]
    sizes = np.array([len(a) for a in avail])
    m = len(sizes)
    smallest = np.concatenate([[0], np.cumsum(np.sort(sizes))[:-1]])
    level = int(np.max((n_counter - smallest) // (m - np.arange(m))))
    quotas = np.minimum(sizes, level)
    quotas[np.flatnonzero(sizes > level)[: n_counter - int(quotas.sum())]] += 1
    counter_rows = np.concatenate(
        [rng.choice(a, size=q, replace=False) for a, q in zip(avail, quotas.tolist())]
    )

    rows = np.concatenate([legit_rows, counter_rows])
    y_bin = np.concatenate([np.ones(n_legit, dtype=int), np.zeros(n_counter, dtype=int)])
    order = rng.permutation(len(rows))
    return matrix_take(matrix, rows[order]), y_bin[order]


# === report structures ===

def _cv_summary(cv: Sequence[CandidateResult]) -> list:
    return [{"index": r.index, "hyperparams": r.hyperparams, "error": r.error,
             "mean_macro_f1": r.mean_score if np.isfinite(r.mean_score) else None} for r in cv]


def _listed(value):
    """``value`` with every tuple, nested ones too, made a list."""
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


def _row_json(row, **extra) -> dict:
    """A result row as JSON: every field but the model, with tuples as
    lists and the metric set under "metrics", then ``extra``."""
    out = {f.name: _listed(getattr(row, f.name)) for f in fields(row)
           if f.name not in ("metric_set", "model")}
    return {**out, "metrics": row.metric_set.to_json_dict(), **extra}


@dataclass(frozen=True)
class IdentResult:
    task: str                      # arch_identification | model_identification
    target: str                    # architecture | model
    kind: str
    hyperparams: dict
    metric_set: MetricSet
    confusion: tuple               # k x k nested tuples
    class_names: Tuple[str, ...]
    converged: bool
    cv: tuple                      # per-candidate summaries
    # the grid-search winner, refit on the train part; not serialized or compared
    model: Optional[TrainedModel] = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return _row_json(self)


@dataclass(frozen=True)
class AuthResult:
    task: str                      # arch_authentication | model_authentication
    target: str
    kind: str
    legit_label: str
    balance: int
    hyperparams: dict
    metric_set: MetricSet
    counts: ConfusionCounts
    converged: bool
    model: Optional[TrainedModel] = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return _row_json(self, balance_name=balance_name(self.balance), counts=asdict(self.counts))


@dataclass(frozen=True)
class EvalReport:
    tasks: Tuple[str, ...]
    ident_results: Tuple[IdentResult, ...]
    auth_results: Tuple[AuthResult, ...]
    seed: int
    catalog_version: str
    selection_kept: Dict[str, int]      # per task-target key, -1 when off

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tasks": list(self.tasks),
            "identification": [r.to_json_dict() for r in self.ident_results],
            "authentication": [r.to_json_dict() for r in self.auth_results],
            "authentication_averages": auth_averages(self.auth_results),
            "seed": self.seed,
            "catalog_version": self.catalog_version,
            "selection_kept": dict(self.selection_kept),
        }


def _mean_metrics(cells: Sequence[AuthResult]) -> dict:
    means = {f: float(np.mean([getattr(c.metric_set, f) for c in cells])) for f in METRIC_FIELDS}
    return {**means, "cells": len(cells)}


def _groups(results: Sequence, *names: str) -> dict:
    """The results keyed by their values of ``names``, in key order; each
    group keeps the order of ``results``, which fixes the bits of its means."""
    groups: dict = {}
    for r in results:
        groups.setdefault(tuple(getattr(r, n) for n in names), []).append(r)
    return dict(sorted(groups.items()))


def auth_averages(results: Sequence[AuthResult]) -> dict:
    """Arithmetic means per task and kind: over legit labels, over balances, and overall.

    Every mean is recomputable from the stored per-cell results;
    ``_mean_metrics`` over ``_groups``, which the CSV's mean rows use too,
    is the single place the averaging happens.
    """
    views = {"by_balance": ("balance",), "by_label": ("legit_label",), "overall": ()}
    return {view: {":".join(map(str, key)): _mean_metrics(cells)
                   for key, cells in _groups(results, "task", "kind", *by).items()}
            for view, by in views.items()}


# === task runners ===

def check_choices(name: str, values: tuple, allowed: tuple) -> None:
    """Refuse ``values`` unless they are distinct members of ``allowed``, at least one."""
    for v in values:
        if v not in allowed:
            raise BadInterval(f"{name}: {v!r} not in {list(allowed)}")
    if not values:
        raise BadInterval(f"{name}: must not be empty")
    if len(set(values)) < len(values):
        raise BadInterval(f"{name}: duplicate entries in {list(values)}")


@dataclass(frozen=True)
class EvalConfig:
    seed: int = 0
    train_ratio: float = 0.8
    folds: int = 5
    targets: Tuple[str, ...] = TARGETS
    balances: Tuple[int, ...] = BALANCE_LEVELS
    selection_enabled: bool = False
    selection_fdr: float = 0.05
    threads: int = 1

    def __post_init__(self):
        # the bounds of every EvalConfig, from a run config or a caller; NaN fails them
        for key, low in (("threads", 1), ("folds", 2), ("seed", 0)):
            if not getattr(self, key) >= low:
                raise BadInterval(f"{key}: must be >= {low}, got {getattr(self, key)}")
        for key in ("train_ratio", "selection_fdr"):
            if not 0.0 < getattr(self, key) < 1.0:
                raise BadInterval(f"{key}: must be in (0, 1), got {getattr(self, key)}")
        check_choices("balances", self.balances, BALANCE_LEVELS)
        check_choices("targets", self.targets, TARGETS)
        # a level given as 50.0 is the int 50: seed tags and the report take ints
        object.__setattr__(self, "balances", tuple(int(b) for b in self.balances))


def task_name(target: str, mode: str) -> str:
    prefix = "arch" if target == "architecture" else "model"
    return f"{prefix}_{mode}"


def _labelled_sets(matrix: FeatureMatrix, config: EvalConfig, target: str, mode: str):
    """Every labelled set of rows a task fits on for one target, in report order.

    Yields (legit label, balance, rows, labels, class names, split seed).
    Identification fits one set, with no legit label or balance;
    authentication fits one scenario per (legit label, balance level).
    """
    if mode == "identification":
        work = undersample(matrix, seed=child_seed(config.seed, "undersample", target), target=target)
        y, names = labels_for(work, target)
        yield None, None, work, y, names, child_seed(config.seed, "split", target)
        return
    y_all, names = labels_for(matrix, target)
    present = np.unique(y_all)
    if len(present) < 2:
        raise SingleClass(f"authentication needs >= 2 {target} labels")
    for legit_id in present:
        legit_name = names[int(legit_id)]
        for balance in config.balances:
            scen_seed = child_seed(config.seed, "scenario", target, int(legit_id), balance)
            sub, y_bin = make_auth_scenario(
                matrix, int(legit_id), balance, seed=scen_seed, target=target
            )
            split_seed = child_seed(config.seed, "authsplit", target, int(legit_id), balance)
            yield legit_name, balance, sub, y_bin, ("counterfeit", legit_name), split_seed


def _run_task(
    matrix: FeatureMatrix,
    specs: Sequence[ModelSpec],
    config: EvalConfig,
    mode: str,
) -> EvalReport:
    """The chain both tasks share, run on every labelled set of rows.

    Optionally screen the features, split stratified, grid-search each
    spec on the train part and score its predictions on the test part.
    Each winner is stamped with its provenance: the mask, the matrix's
    catalog version and processing, the trained class names and the task.
    """
    results: list = []
    selection_kept: Dict[str, int] = {}
    for target in config.targets:
        task = task_name(target, mode)
        for legit, balance, sub, y, class_names, split_seed in _labelled_sets(
            matrix, config, target, mode
        ):
            key = task if mode == "identification" else f"{task}:{legit}:{balance}"
            mask = None
            if config.selection_enabled:
                sel = select_features(sub.values, y, fdr=config.selection_fdr)
                mask = sel.keep
            selection_kept[key] = int(mask.sum()) if mask is not None else -1
            X = sub.values[:, mask] if mask is not None else sub.values
            train_idx, test_idx = split_train_test(y, ratio=config.train_ratio, seed=split_seed)
            # a model names the classes it was trained on
            trained_names = tuple(class_names[c] for c in np.unique(y[train_idx]))
            for spec in specs:
                model, cv = grid_search(spec, X[train_idx], y[train_idx], k=config.folds,
                                        threads=config.threads)
                # the one place a model's provenance is set
                model = replace(model, mask=mask, catalog_version=matrix.catalog_version,
                                class_names=trained_names, task=mode, processing=matrix.processing)
                y_hat = predict(model, X[test_idx])
                common = dict(task=task, target=target, kind=spec.kind, hyperparams=model.hyperparams,
                              converged=model.converged, model=model)
                if mode == "identification":
                    cm = confusion_matrix(y[test_idx], y_hat, k=len(class_names))
                    results.append(IdentResult(**common, metric_set=metrics_from_matrix(cm),
                                               confusion=tuple(map(tuple, cm.tolist())),
                                               class_names=class_names, cv=tuple(_cv_summary(cv))))
                else:
                    counts = confusion_binary(y[test_idx], y_hat)
                    results.append(AuthResult(**common, legit_label=legit, balance=balance,
                                              metric_set=metrics(counts), counts=counts))
    ident = mode == "identification"
    return EvalReport(
        tasks=tuple(task_name(t, mode) for t in config.targets),
        ident_results=tuple(results) if ident else (),
        auth_results=() if ident else tuple(results),
        seed=config.seed,
        catalog_version=matrix.catalog_version,
        selection_kept=selection_kept,
    )


def run_identification(
    matrix: FeatureMatrix, specs: Sequence[ModelSpec], config: EvalConfig
) -> EvalReport:
    """Multiclass task for each configured target; see module docstring.
    Each row carries its grid-search winner as ``model``."""
    return _run_task(matrix, specs, config, "identification")


def run_authentication(
    matrix: FeatureMatrix, specs: Sequence[ModelSpec], config: EvalConfig
) -> EvalReport:
    """One-vs-rest binary task per (target, legit label, balance level).
    Each row carries its grid-search winner as ``model``."""
    return _run_task(matrix, specs, config, "authentication")


def merge_reports(a: EvalReport, b: EvalReport) -> EvalReport:
    """Combine an identification and an authentication report into one."""
    return EvalReport(
        tasks=a.tasks + b.tasks,
        ident_results=a.ident_results + b.ident_results,
        auth_results=a.auth_results + b.auth_results,
        seed=a.seed,
        catalog_version=a.catalog_version,
        selection_kept={**a.selection_kept, **b.selection_kept},
    )


# === serialization ===

def report_to_json(report: EvalReport, extra: Optional[dict] = None) -> str:
    """The canonical report text: sorted keys, two-space indent, a final
    newline; ``extra`` holds the top-level sections a run adds, such as
    its config document and provenance."""
    payload = {**report.to_json_dict(), **(extra or {})}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_cell(value):
    """A float to six decimals; the writer makes None an empty cell."""
    return f"{value:.6f}" if isinstance(value, float) else value


def report_to_csv(report: EvalReport) -> str:
    """Flat table: kind x metrics for identification, plus kind x balance
    rows (per label and averaged) for authentication. A cell holding a
    comma, a quote or a line break is quoted."""

    def row(head: list, metrics: dict) -> list:
        return head + [_csv_cell(metrics[f]) for f in METRIC_FIELDS]

    rows = [["task", "target", "kind", "legit_label", "balance", *METRIC_FIELDS]]
    rows += [row([r.task, r.target, r.kind, "", ""], vars(r.metric_set)) for r in report.ident_results]
    rows += [row([r.task, r.target, r.kind, r.legit_label, r.balance], vars(r.metric_set))
             for r in report.auth_results]
    rows += [row([task, target, kind, "mean", balance], _mean_metrics(group))
             for (task, kind, balance, target), group
             in _groups(report.auth_results, "task", "kind", "balance", "target").items()]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()
