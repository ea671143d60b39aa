"""Stratified k-fold cross-validation and exhaustive grid search.

Every candidate is scored by mean macro-F1 over the k validation folds;
the maximum wins, ties broken by enumeration position; the winner is
refit on the full training data. Candidate model seeds derive from
(spec.seed, candidate index), so concurrent evaluation cannot change
results. A candidate whose training raises scores -inf; if all do, the
search fails with GridExhausted.

Fits are shared through one registry hook. A kind that names shared
dimensions (``SHARED``: AdaBoost ``n_estimators``, DecisionTree
``max_depth``, KNN ``k`` and ``weights``) has its candidates grouped by
their values on every other dimension. Each group is fitted once per
fold, at its largest value of each shared dimension (None counts as
unlimited), and every member is scored on the model derived from that fit
(``derived_model``), which predicts as the model it would have trained
alone. A fit that raises fails every candidate it serves. A kind without
shared dimensions fits every candidate alone. The pool runs one group per
task.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import BatteryAuthError, ClassTooSmall, GridExhausted
from ..parallel import ordered_map
from ..seeding import child_seed, rng_from
from .base import (
    ModelSpec,
    TrainedModel,
    derived_model,
    enumerate_grid,
    predict,
    shared_dimensions,
    train,
)

DEFAULT_FOLDS = 5


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Unweighted mean of per-class one-vs-rest F1 (0/0 counts as 0)."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    classes = np.unique(y_true)
    f1s = []
    for c in classes:
        tp = np.count_nonzero((y_pred == c) & (y_true == c))
        fp = np.count_nonzero((y_pred == c) & (y_true != c))
        fn = np.count_nonzero((y_pred != c) & (y_true == c))
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(f1s))


def stratified_kfold(
    y: np.ndarray, k: int = DEFAULT_FOLDS, seed: int = 0
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """k (train_idx, val_idx) pairs; per-class fold counts differ by <= 1."""
    y = np.asarray(y)
    rng = rng_from(seed, "kfold")
    fold_of = np.empty(len(y), dtype=int)
    for c in np.unique(y):
        members = np.flatnonzero(y == c)
        if len(members) < k:
            raise ClassTooSmall(
                f"class {c!r} has {len(members)} samples; {k}-fold needs at least {k}"
            )
        members = members[rng.permutation(len(members))]
        fold_of[members] = np.arange(len(members)) % k
    folds = []
    for f in range(k):
        val = np.flatnonzero(fold_of == f)
        trn = np.flatnonzero(fold_of != f)
        folds.append((trn, val))
    return folds


@dataclass(frozen=True)
class CandidateResult:
    index: int
    hyperparams: dict
    mean_score: float
    fold_scores: Tuple[float, ...]
    error: Optional[str] = None


def _largest(value) -> tuple:
    """Order of a shared dimension's values; None is unlimited."""
    return (value is None, 0 if value is None else value)


def _shared_fits(kind: str, candidates: List[dict]) -> List[List[int]]:
    """Candidate indices per fit a fold needs, the one to fit last.
    Candidates that agree on every dimension the kind does not share form
    one group, ordered by their shared values."""
    shared = shared_dimensions(kind)
    if not shared:
        return [[ci] for ci in range(len(candidates))]
    keys: List[dict] = []
    groups: List[List[int]] = []
    for ci, hp in enumerate(candidates):
        key = {dim: value for dim, value in hp.items() if dim not in shared}
        if key in keys:
            groups[keys.index(key)].append(ci)
        else:
            keys.append(key)
            groups.append([ci])

    def order(ci: int) -> tuple:
        return tuple(_largest(candidates[ci][dim]) for dim in shared)

    return [sorted(members, key=order) for members in groups]


def grid_search(
    spec: ModelSpec,
    X: np.ndarray,
    y: np.ndarray,
    k: int = DEFAULT_FOLDS,
    threads: int = 1,
    mask: Optional[np.ndarray] = None,
    catalog_version: str = "",
    class_names: Tuple[str, ...] = (),
    task: str = "identification",
) -> Tuple[TrainedModel, List[CandidateResult]]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    candidates = enumerate_grid(spec)
    folds = stratified_kfold(y, k=k, seed=spec.seed)
    groups = _shared_fits(spec.kind, candidates)

    def evaluate(members: List[int]) -> List[CandidateResult]:
        """Results of candidates that share one fit per fold."""
        top = members[-1]
        per_fold = []
        error = None
        try:
            for trn, val in folds:
                model = train(spec, candidates[top], X[trn], y[trn],
                              seed=child_seed(spec.seed, "candidate", top))
                per_fold.append([macro_f1(y[val], predict(derived_model(model, candidates[ci]), X[val]))
                                 for ci in members])
        except BatteryAuthError as exc:
            error = f"{type(exc).__name__}: {exc}"
        out = []
        for pos, ci in enumerate(members):
            scores = tuple(fold[pos] for fold in per_fold)
            out.append(CandidateResult(
                index=ci,
                hyperparams=candidates[ci],
                mean_score=float("-inf") if error else float(np.mean(scores)),
                fold_scores=scores,
                error=error,
            ))
        return out

    grouped = ordered_map(evaluate, groups, threads=threads)
    results = sorted((r for group in grouped for r in group), key=lambda r: r.index)
    best = max(range(len(results)), key=lambda i: (results[i].mean_score, -i))
    if not np.isfinite(results[best].mean_score):
        details = "; ".join(r.error or "?" for r in results)
        raise GridExhausted(f"every candidate failed: {details}")
    winner = train(
        spec,
        candidates[best],
        X,
        y,
        mask=mask,
        catalog_version=catalog_version,
        class_names=class_names,
        seed=child_seed(spec.seed, "candidate", best),
        task=task,
    )
    return winner, results
