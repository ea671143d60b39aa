"""Feature attribution for trained models.

Two routes. Impurity-based importance (MDI) reads the training-time
split statistics out of tree models and costs nothing extra.
Permutation importance retrains nothing: it shuffles one column at a
time and measures the macro-F1 drop on held-out data. The permutation
route is a deliberately simple, model-agnostic substitute for
SHAP-style attribution; it ranks features by predictive contribution
but does not give per-sample additive explanations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import BadInterval, DimensionMismatch, EmptyDataset
from .models import TrainedModel, predict, raw_importances
from .models.search import macro_f1
from .seeding import rng_from


@dataclass(frozen=True)
class ImportanceResult:
    values: np.ndarray              # one weight per model input feature
    method: str                     # "mdi" | "permutation"
    baseline_score: Optional[float] = None
    repeats: int = 0
    seed: int = 0

    def top_k(self, k: int, names: Optional[Sequence[str]] = None) -> Tuple[Tuple[str, float], ...]:
        """Highest-weight features, ties broken by lower index."""
        order = np.argsort(-self.values, kind="stable")[:k]
        if names is None:
            return tuple((f"f{int(i)}", float(self.values[i])) for i in order)
        return tuple((names[int(i)], float(self.values[i])) for i in order)


def mdi_importance(model: TrainedModel) -> ImportanceResult:
    """Mean decrease in impurity, normalized to sum to 1.

    Only tree-based kinds carry split statistics; anything else raises
    UnsupportedKind. A model whose trees never split has no signal to
    distribute, so the weights fall back to uniform.
    """
    raw = raw_importances(model)
    total = raw.sum()
    if total <= 0:
        return ImportanceResult(
            values=np.full(len(raw), 1.0 / len(raw)), method="mdi"
        )
    return ImportanceResult(values=raw / total, method="mdi")


def permutation_importance(
    model: TrainedModel,
    X: np.ndarray,
    y: np.ndarray,
    repeats: int = 5,
    seed: int = 0,
) -> ImportanceResult:
    """Macro-F1 drop when one column is shuffled, averaged over repeats.

    Columns of X match the model input (post-selection width). Each
    (feature, repeat) pair gets its own seed-derived stream, so results
    do not depend on evaluation order or thread count. Values can be
    slightly negative for irrelevant features; that is expected noise.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[1] != model.input_width:
        raise DimensionMismatch(
            f"X has {X.shape[1] if X.ndim == 2 else 'non-2d'} columns, model expects {model.input_width}"
        )
    if y.shape != (len(X),):
        raise DimensionMismatch(f"labels of shape {y.shape} for {len(X)} rows")
    if len(X) == 0:
        raise EmptyDataset("permutation importance needs at least one row")
    if repeats < 1:
        raise BadInterval(f"repeats must be >= 1, got {repeats}")
    if seed < 0:
        raise BadInterval(f"seed must be >= 0, got {seed}")
    baseline = macro_f1(y, predict(model, X))
    drops = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        scores = []
        for r in range(repeats):
            rng = rng_from(seed, "perm", j, r)
            shuffled = X.copy()
            shuffled[:, j] = shuffled[rng.permutation(len(X)), j]
            scores.append(macro_f1(y, predict(model, shuffled)))
        drops[j] = baseline - float(np.mean(scores))
    return ImportanceResult(
        values=drops,
        method="permutation",
        baseline_score=baseline,
        repeats=repeats,
        seed=seed,
    )
