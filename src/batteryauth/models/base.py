"""Model zoo front door: specs, grids, standardization, train/predict.

Eight classifier kinds share one interface. ``train`` fits the
standardizer on the training matrix, transforms, and dispatches to the
kind's fitter; ``predict`` reverses the path. Each kind's module holds
its default hyperparameter grid, fully overridable per spec; enumeration
order (itertools.product over the grid's key order) is part of the
contract because grid-search ties break by position. Adding a kind is
one module plus one ``_MODULES`` entry.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..dca import DcaConfig
from ..eis import EisConfig
from ..errors import ConfigError, DimensionMismatch, EmptyDataset, NegativeSeed, NonFiniteValue, UnsupportedKind
from . import boost, dtree, forest, naive_bayes, neighbors, neural, qda, svm

# The one table keyed by kind name. A kind module declares what is
# particular to it: ``fit``; ``predict(params, Xs, k, hp)``, which returns
# encoded labels and an (n, k) float array of scores; ``GRID``, its default
# grid, whose key order is the dimension order; ``STATE``, the names of the
# fields its fitted state saves; and, where they apply,
# ``COUNTS`` (hyperparameters that are ints >= 1), ``check`` (other bounds),
# ``check_state(params, k)`` (what a loaded state must hold beyond scoring
# an all-zero row), ``SHARED`` with ``derive``, and ``raw_importances``.
# ``SHARED`` names the grid dimensions one fit can serve: ``derive(params,
# hp)`` turns a fit at the largest value of each (None counts as
# unlimited) into state that predicts as the fit at ``hp`` would, where hp
# differs only in those dimensions. A kind that shares fits does not use
# its seed.
_MODULES = {
    "AdaBoost": boost,
    "DecisionTree": dtree,
    "GaussianNB": naive_bayes,
    "KNN": neighbors,
    "NeuralNet": neural,
    "QDA": qda,
    "RandomForest": forest,
    "SVM": svm,
}
KINDS = tuple(_MODULES)
DEFAULT_GRIDS: Dict[str, Dict[str, list]] = {kind: m.GRID for kind, m in _MODULES.items()}


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    grid: Optional[Dict[str, list]] = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedKind(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        if not self.seed >= 0:
            raise NegativeSeed(f"seed: must be >= 0, got {self.seed}")
        self.resolved_grid()

    def resolved_grid(self) -> Dict[str, list]:
        base = DEFAULT_GRIDS[self.kind]
        if self.grid is None:
            return base
        merged = dict(base)
        for key, values in self.grid.items():
            if key not in base:
                raise ConfigError(f"{self.kind} grid has no dimension {key!r}")
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise ConfigError(f"{self.kind} grid dimension {key!r} must be a non-empty list")
            merged[key] = list(values)
        return merged


def make_spec(kind: str, grid: Optional[dict] = None, seed: int = 0) -> ModelSpec:
    return ModelSpec(kind=kind, grid=grid, seed=seed)


def enumerate_grid(spec: ModelSpec) -> List[dict]:
    """All hyperparameter combinations in the documented order."""
    grid = spec.resolved_grid()
    combos = []
    for values in itertools.product(*grid.values()):
        hp = dict(zip(grid, values))
        try:
            combos.append(normalize_hyperparams(spec.kind, hp))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{spec.kind} grid point {hp} does not convert: {exc}") from exc
    return combos


def normalize_hyperparams(kind: str, hp: dict) -> dict:
    """Coerce JSON-sourced values to their native types and bounds-check.
    ``hp`` names exactly the dimensions of the kind's default grid, and
    takes a string value only from the strings that grid offers for that
    dimension (any value at all, where it offers nothing else). A count
    may be null where the kind's default grid offers null."""
    module = _MODULES[kind]
    out = dict(hp)
    if out.keys() != module.GRID.keys():
        raise ConfigError(f"{kind} hyperparameters must be {sorted(module.GRID)}, got {sorted(out)}")
    for key, values in module.GRID.items():
        words = [v for v in values if isinstance(v, str)]
        if words and (isinstance(out[key], str) or len(words) == len(values)) and out[key] not in words:
            raise ConfigError(f"{kind}.{key} must be one of {words}, got {out[key]!r}")
    for key in getattr(module, "COUNTS", ()):
        if out[key] is None and None in module.GRID[key]:
            continue
        out[key] = int(out[key])
        if out[key] < 1:
            raise ConfigError(f"{kind}.{key} must be >= 1, got {out[key]}")
    if hasattr(module, "check"):
        module.check(out)
    return out


@dataclass(frozen=True, eq=False)
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.scale

    @property
    def width(self) -> int:
        return len(self.mean)


def fit_standardizer(X: np.ndarray) -> Standardizer:
    """Per-column mean/std; constant columns get unit divisors."""
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return Standardizer(mean=mean, scale=scale)


@dataclass(eq=False)
class TrainedModel:
    kind: str
    hyperparams: dict
    standardizer: Standardizer
    params: dict                        # kind-specific fitted state
    seed: int
    classes: np.ndarray                 # internal id -> original label id
    converged: bool = True
    # provenance, which ``train`` leaves at these defaults and the run sets
    mask: Optional[np.ndarray] = None   # keep-mask over the full catalog, or None
    catalog_version: str = ""
    class_names: Tuple[str, ...] = ()
    task: str = "identification"
    # the processing that made the training features; None when unknown
    processing: Optional[Union[DcaConfig, EisConfig]] = None

    def __post_init__(self) -> None:
        if self.class_names and len(self.class_names) != len(self.classes):
            raise DimensionMismatch(f"{len(self.class_names)} class names for {len(self.classes)} classes")

    @property
    def input_width(self) -> int:
        return self.standardizer.width


def train(
    spec: ModelSpec,
    hyperparams: dict,
    X: np.ndarray,
    y: np.ndarray,
    seed: Optional[int] = None,
) -> TrainedModel:
    """Fit one model at fixed hyperparameters.

    X must already be masked to the selected features. (spec, seed, data)
    fully determine the result. The provenance fields keep their defaults.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise DimensionMismatch(f"X {X.shape} and y {y.shape} do not align")
    if len(X) == 0:
        raise EmptyDataset("cannot train on an empty matrix")
    if not np.all(np.isfinite(X)):
        raise NonFiniteValue("training matrix contains non-finite values; impute first")
    classes = np.unique(y)
    if len(X) < len(classes):
        raise DimensionMismatch(f"{len(X)} rows cannot cover {len(classes)} classes")
    y_enc = np.searchsorted(classes, y)
    hp = normalize_hyperparams(spec.kind, hyperparams)
    model_seed = spec.seed if seed is None else seed
    standardizer = fit_standardizer(X)
    Xs = standardizer.transform(X)
    params, converged = _MODULES[spec.kind].fit(Xs, y_enc, len(classes), hp, model_seed)
    return TrainedModel(kind=spec.kind, hyperparams=hp, standardizer=standardizer, params=params,
                        seed=model_seed, classes=classes, converged=converged)


def shared_dimensions(kind: str) -> Tuple[str, ...]:
    """The grid dimensions over which one fit serves every value, if any."""
    return getattr(_MODULES[kind], "SHARED", ())


def derived_model(model: TrainedModel, hyperparams: dict) -> TrainedModel:
    """The model ``train`` gives at ``hyperparams``, for prediction, derived
    from ``model``: trained on the same data at hyperparameters that differ
    at most in the kind's shared dimensions, each at a value at least as
    large (None is unlimited)."""
    if hyperparams == model.hyperparams:
        return model
    params = _MODULES[model.kind].derive(model.params, hyperparams)
    return replace(model, hyperparams=hyperparams, params=params)


def _prepare_input(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if not np.isfinite(X).all():
        raise NonFiniteValue("rows to score hold non-finite values; impute first")
    if X.shape[1] == model.input_width:
        return model.standardizer.transform(X)
    if model.mask is not None and X.shape[1] == len(model.mask):
        return model.standardizer.transform(X[:, model.mask])
    raise DimensionMismatch(
        f"input width {X.shape[1]} matches neither the model width {model.input_width}"
        f" nor the catalog width {len(model.mask) if model.mask is not None else 'n/a'}"
    )


def classify(model: TrainedModel, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Class labels (original ids) and per-class scores, shape (n, k) in the
    order of ``model.classes``, from one call of the kind's predict.
    Full-width rows are masked automatically. Scores are probabilities
    summing to 1 per row, except SVM's one-vs-rest decision margins."""
    Xs = _prepare_input(model, X)
    labels_enc, scores = _MODULES[model.kind].predict(
        model.params, Xs, len(model.classes), model.hyperparams
    )
    return model.classes[labels_enc], scores


def predict(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Class labels (original ids), as ``classify`` gives them."""
    return classify(model, X)[0]


def predict_scores(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Per-class scores, shape (n, k), as ``classify`` gives them."""
    return classify(model, X)[1]


def raw_importances(model: TrainedModel) -> np.ndarray:
    """Unnormalized impurity-decrease sums, for kinds that record them."""
    module = _MODULES[model.kind]
    if not hasattr(module, "raw_importances"):
        raise UnsupportedKind(f"{model.kind} has no impurity importances")
    return module.raw_importances(model.params)
