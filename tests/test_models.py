"""Classifier oracles and persistence round trips for all eight kinds.

Closed-form oracles are recomputed with scalar math inside the tests so
each implementation is checked against an independent derivation, not
against itself.
"""
import base64
import hashlib
import inspect
import json
import math
import re
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from conftest import deadline

from batteryauth.dca import DcaConfig
from batteryauth.eis import EisConfig
from batteryauth.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyDataset,
    FormatVersionMismatch,
    NonFiniteValue,
    SingularCovariance,
    UnsupportedKind,
)
from batteryauth.models import (
    DEFAULT_GRIDS,
    KINDS,
    ModelSpec,
    TrainedModel,
    classify,
    enumerate_grid,
    fit_standardizer,
    grid_search,
    load_model,
    make_spec,
    model_from_json_dict,
    model_to_json_dict,
    predict,
    predict_scores,
    raw_importances,
    save_model,
    train,
)
from batteryauth.explain import mdi_importance
from batteryauth.models import boost, forest, neural, qda, svm, tree
from batteryauth.models.base import _MODULES, derived_model, normalize_hyperparams
from batteryauth.models.neighbors import squared_distances
from batteryauth.models.persist import _decode, _encode
from batteryauth.models.tree import NodeTable, _best_splits, _class_sum, _impurity, grow_trees
from batteryauth.seeding import rng_from

CATALOG = "v1:ch1"


def _train(kind, hp, X, y, seed=0, names=None, task="identification", mask=None):
    names = names or tuple(f"c{i}" for i in range(int(np.max(y)) + 1))
    return replace(
        train(make_spec(kind, seed=seed), hp, np.asarray(X, float), np.asarray(y), seed=seed),
        mask=mask, catalog_version=CATALOG, class_names=names, task=task,
    )


def _blobs(n_per=20, d=3, centers=((0.0, 3.0)), seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(c, 0.3, (n_per, d)) for c in centers])
    y = np.repeat(np.arange(len(centers)), n_per)
    return X, y


class TestSpecAndGrid:
    def test_unsupported_kind(self):
        with pytest.raises(UnsupportedKind):
            make_spec("GradientBoost")

    def test_spec_refuses_an_unknown_kind_when_made(self):
        # not a builtins KeyError later, from grid_search or train
        with pytest.raises(UnsupportedKind, match="unknown model kind 'Bogus'"):
            ModelSpec("Bogus")

    def test_bad_grid_dimension(self):
        with pytest.raises(ConfigError):
            make_spec("KNN", grid={"neighbors": [3]})

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed: must be >= 0"):
            make_spec("KNN", seed=-1)

    def test_grid_override_merges(self):
        spec = make_spec("KNN", grid={"k": [3]})
        grid = spec.resolved_grid()
        assert grid["k"] == [3]
        assert grid["weights"] == DEFAULT_GRIDS["KNN"]["weights"]

    def test_enumeration_order_is_documented_product(self):
        combos = enumerate_grid(make_spec("DecisionTree"))
        # criterion varies slowest, max_depth fastest
        assert combos[0] == {"criterion": "gini", "max_depth": 4}
        assert combos[1] == {"criterion": "gini", "max_depth": 8}
        assert combos[4] == {"criterion": "entropy", "max_depth": 4}
        assert len(combos) == 8

    def test_bad_hyperparam_values(self):
        with pytest.raises(ConfigError):
            enumerate_grid(make_spec("KNN", grid={"k": [0]}))
        with pytest.raises(ConfigError):
            enumerate_grid(make_spec("QDA", grid={"reg": [1.5]}))

    @pytest.mark.parametrize("kind,grid", [
        ("SVM", {"C": ["x"]}),            # a float hyperparameter
        ("SVM", {"C": [None]}),
        ("KNN", {"k": ["x"]}),            # a count
        ("KNN", {"k": [[3]]}),
        ("KNN", {"k": [1e400]}),          # inf: int() overflows
    ])
    def test_grid_value_that_does_not_convert(self, kind, grid):
        with pytest.raises(ConfigError, match=f"{kind} grid point"):
            enumerate_grid(make_spec(kind, grid=grid))

    @pytest.mark.parametrize("kind,grid,message", [
        ("SVM", {"gamma": ["auto"]}, "SVM.gamma must be one of ['scale'], got 'auto'"),
        ("SVM", {"gamma": [0.0]}, "SVM.gamma must be 'scale' or a number > 0, got 0.0"),
        ("SVM", {"gamma": [float("nan")]}, "SVM.gamma must be 'scale' or a number > 0, got nan"),
        ("SVM", {"C": [float("nan")]}, "SVM.C must be > 0"),
        ("NeuralNet", {"activation": ["sigmoid"]},
         "NeuralNet.activation must be one of ['relu', 'tanh'], got 'sigmoid'"),
        ("NeuralNet", {"solver": ["lbfgs"]}, "NeuralNet.solver must be one of ['sgd', 'adam'], got 'lbfgs'"),
        ("KNN", {"weights": ["bogus"]}, "KNN.weights must be one of ['uniform', 'distance'], got 'bogus'"),
        ("DecisionTree", {"criterion": [3]}, "DecisionTree.criterion must be one of ['gini', 'entropy'], got 3"),
        ("GaussianNB", {"var_smoothing": [float("nan")]}, "GaussianNB.var_smoothing must be >= 0"),
    ], ids=["svm-auto", "svm-gamma-0", "svm-gamma-nan", "svm-C-nan", "nn-sigmoid", "nn-lbfgs",
            "knn-weights", "tree-criterion", "nb-nan"])
    def test_value_outside_the_kinds_grid_is_refused(self, kind, grid, message):
        # sigmoid trained with tanh, bogus weights voted by distance, and
        # gamma "auto" failed with a raw ValueError after feature extraction
        with pytest.raises(ConfigError, match=re.escape(message)):
            enumerate_grid(make_spec(kind, grid=grid))

    @pytest.mark.parametrize("hp", [{"k": 3}, {"k": 3, "weights": "uniform", "p": 2}])
    def test_hyperparameters_name_exactly_the_grid_dimensions(self, hp):
        with pytest.raises(ConfigError, match=r"KNN hyperparameters must be \['k', 'weights'\]"):
            normalize_hyperparams("KNN", hp)

    def test_all_kinds_have_default_grids(self):
        assert set(DEFAULT_GRIDS) == set(KINDS)
        assert len(KINDS) == 8


class TestStandardizer:
    def test_transform_centers_and_scales(self):
        X = np.array([[1.0, 10.0], [3.0, 10.0], [5.0, 10.0]])
        s = fit_standardizer(X)
        Xs = s.transform(X)
        assert np.allclose(Xs[:, 0], (X[:, 0] - 3.0) / X[:, 0].std())
        # constant column: scale falls back to 1, values center to 0
        assert np.allclose(Xs[:, 1], 0.0)
        assert s.scale[1] == 1.0


class TestDecisionTree:
    def test_memorizes_distinct_points(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((25, 4))
        y = rng.integers(0, 3, size=25)
        m = _train("DecisionTree", {"criterion": "gini", "max_depth": None}, X, y)
        assert (predict(m, X) == y).all()

    def test_single_class_set_is_a_leaf(self):
        X = np.arange(8.0).reshape(-1, 1)
        y = np.zeros(8, dtype=int)
        m = _train("DecisionTree", {"criterion": "gini", "max_depth": None}, X, y, names=("only",))
        assert (predict(m, X) == 0).all()

    def test_first_split_matches_gini_oracle(self):
        # 1-d data where the best threshold is unambiguous; the split must
        # separate the classes at the first cut
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        m = _train("DecisionTree", {"criterion": "gini", "max_depth": 1}, X, y)
        assert (predict(m, X) == y).all()

    def test_entropy_criterion_works(self):
        X, y = _blobs()
        m = _train("DecisionTree", {"criterion": "entropy", "max_depth": None}, X, y)
        assert (predict(m, X) == y).all()

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((100, 3))
        y = rng.integers(0, 2, size=100)
        shallow = _train("DecisionTree", {"criterion": "gini", "max_depth": 2}, X, y)
        deep = _train("DecisionTree", {"criterion": "gini", "max_depth": None}, X, y)
        assert (predict(deep, X) == y).mean() > (predict(shallow, X) == y).mean()

    def test_tie_breaks_on_lowest_feature(self):
        # two identical columns: identical impurity decrease; the split must
        # pick feature 0 by the documented tie rule
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        m = _train("DecisionTree", {"criterion": "gini", "max_depth": 1}, X, y)
        assert m.params["tree"].feature[0] == 0

    def test_scores_are_leaf_fractions(self):
        # duplicate points with conflicting labels leave an impure leaf even
        # at unlimited depth; its score is the leaf class fraction
        X = np.array([[0.0], [0.0], [0.0], [5.0]])
        y = np.array([0, 0, 1, 1])
        m = _train("DecisionTree", {"criterion": "gini", "max_depth": None}, X, y)
        scores = predict_scores(m, np.array([[0.0], [5.0]]))
        assert np.allclose(scores[0], [2 / 3, 1 / 3])
        assert np.allclose(scores[1], [0.0, 1.0])


    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_derived_depth_predicts_as_fit_alone(self, criterion):
        X, y = _golden_data()
        probe = np.vstack([X, np.random.default_rng(7).standard_normal((60, 8)) * 1.5])
        full = _train("DecisionTree", {"criterion": criterion, "max_depth": None}, X, y)
        depth = full.params["tree"].depth
        assert depth >= 4
        for max_depth in range(1, depth + 2):
            hp = {"criterion": criterion, "max_depth": max_depth}
            alone = _train("DecisionTree", hp, X, y)
            cut = derived_model(full, hp)
            assert cut.hyperparams == hp
            assert cut.params["tree"].depth == alone.params["tree"].depth == min(max_depth, depth)
            assert np.array_equal(predict(cut, probe), predict(alone, probe))
            assert np.array_equal(predict_scores(cut, probe), predict_scores(alone, probe))
        assert derived_model(full, {"criterion": criterion, "max_depth": None}) is full


class TestRandomForest:
    def test_scores_are_vote_fractions(self):
        X, y = _blobs(centers=(0.0, 3.0, 6.0))
        m = _train("RandomForest", {"criterion": "gini", "n_estimators": 7}, X, y)
        scores = predict_scores(m, X)
        assert scores.shape == (60, 3)
        assert np.allclose(scores.sum(axis=1), 1.0)
        assert np.allclose((scores * 7) - np.round(scores * 7), 0.0)  # votes are integers

    def test_deterministic_given_seed(self):
        X, y = _blobs()
        a = _train("RandomForest", {"criterion": "gini", "n_estimators": 11}, X, y, seed=9)
        b = _train("RandomForest", {"criterion": "gini", "n_estimators": 11}, X, y, seed=9)
        probe = np.random.default_rng(1).standard_normal((50, 3))
        assert np.array_equal(predict(a, probe), predict(b, probe))


class TestAdaBoost:
    def test_training_error_nonincreasing_with_rounds(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((120, 2))
        y = ((X[:, 0] + 0.6 * X[:, 1]) > 0).astype(int)
        errs = []
        for n in (1, 5, 25):
            m = _train("AdaBoost", {"n_estimators": n}, X, y)
            errs.append(1.0 - (predict(m, X) == y).mean())
        assert errs[0] >= errs[1] >= errs[2]

    def test_perfect_stump_stops_early(self):
        X = np.array([[0.0], [1.0], [5.0], [6.0]])
        y = np.array([0, 0, 1, 1])
        m = _train("AdaBoost", {"n_estimators": 50}, X, y)
        assert len(m.params["alphas"]) == 1
        assert (predict(m, X) == y).all()

    @pytest.mark.parametrize("data", ["two-class", "three-class", "chance"])
    def test_prefix_equals_fit_alone(self, data):
        if data == "chance":
            # XOR: every stump errs on half the weight, so round 1 keeps one
            # stump at alpha 0 and stops
            X = np.tile([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], (2, 1))
            y = np.tile([0, 1, 1, 0], 2)
        else:
            X, y = _golden_data()
            if data == "two-class":
                y = (y > 0).astype(int)
        full = _train("AdaBoost", {"n_estimators": 130}, X, y, seed=1)
        rounds = len(full.params["alphas"])
        assert rounds == {"two-class": 130, "three-class": 130, "chance": 1}[data]
        probe = np.vstack([X, np.random.default_rng(6).standard_normal((30, X.shape[1]))])
        for n in sorted({1, 2, 3, 50, rounds - 1, rounds, rounds + 1, 130} & set(range(1, 131))):
            alone = _train("AdaBoost", {"n_estimators": n}, X, y, seed=1)
            cut = derived_model(full, {"n_estimators": n})
            assert model_to_json_dict(cut) == model_to_json_dict(alone)
            assert np.array_equal(predict(cut, probe), predict(alone, probe))
            assert np.array_equal(predict_scores(cut, probe), predict_scores(alone, probe))

    def test_constant_features_keep_one_leaf_stump(self):
        # no split position exists, so round 1's leaf errs on exactly half
        # the weight, gets alpha 0 and stays alone; its raw vote labels
        # every row with the lower of the two tied classes
        X = np.full((8, 2), 0.7)
        y = np.repeat([0, 1], 4)
        m = _train("AdaBoost", {"n_estimators": 50}, X, y)
        assert m.params["stumps"].feature.tolist() == [-1]
        assert m.params["alphas"].tolist() == [0.0]
        probe = np.random.default_rng(1).standard_normal((4, 2))
        assert predict_scores(m, probe).tolist() == [[1.0, 0.0]] * 4
        assert predict(m, probe).tolist() == [0] * 4

    def test_scores_normalized(self):
        X, y = _blobs(centers=(0.0, 2.0, 4.0))
        m = _train("AdaBoost", {"n_estimators": 10}, X, y)
        s = predict_scores(m, X)
        assert np.allclose(s.sum(axis=1), 1.0)


class TestGaussianNB:
    def test_matches_closed_form_posteriors(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        m = _train("GaussianNB", {"var_smoothing": 1e-9}, X, y)
        mu_all, sd_all = X.mean(), X.std()
        Xs = (X - mu_all) / sd_all
        eps = 1e-9 * Xs.var()

        def loglik(x, mu, var):
            var = var + eps
            return -0.5 * math.log(2 * math.pi * var) - (x - mu) ** 2 / (2 * var)

        for qv in (4.0, 5.5, 7.0):
            qs = float((qv - mu_all) / sd_all)
            l0 = math.log(0.5) + loglik(qs, Xs[:2].mean(), Xs[:2].var())
            l1 = math.log(0.5) + loglik(qs, Xs[2:].mean(), Xs[2:].var())
            top = max(l0, l1)
            z = math.exp(l0 - top) + math.exp(l1 - top)
            oracle = [math.exp(l0 - top) / z, math.exp(l1 - top) / z]
            got = predict_scores(m, np.array([[qv]]))[0]
            assert np.allclose(got, oracle, rtol=0, atol=1e-12)

    def test_unbalanced_priors(self):
        X = np.array([[0.0], [0.2], [0.4], [10.0]])
        y = np.array([0, 0, 0, 1])
        m = _train("GaussianNB", {"var_smoothing": 1e-9}, X, y)
        assert predict(m, np.array([[0.1]]))[0] == 0


class TestKnn:
    def test_k1_memorizes_training_set(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 4))
        y = rng.integers(0, 3, size=30)
        m = _train("KNN", {"k": 1, "weights": "uniform"}, X, y)
        assert (predict(m, X) == y).all()

    def test_vote_tie_prefers_lowest_class_id(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([1, 0])
        m = _train("KNN", {"k": 2, "weights": "uniform"}, X, y, names=("a", "b"))
        assert predict(m, np.array([[0.0]]))[0] == 0
        # every row gets one vote per class: an exact score tie, which
        # classify gives to the lowest class id, not the lowest position
        m = train(make_spec("KNN"), {"k": 2, "weights": "uniform"}, X, np.array([9, 4]))
        labels, scores = classify(m, np.array([[-3.0], [-1.0], [0.0], [1.0], [5.0]]))
        assert scores.tolist() == [[0.5, 0.5]] * 5
        assert labels.tolist() == [4] * 5

    def test_distance_weight_zero_distance_dominates(self):
        X = np.array([[0.0], [0.1], [0.2]])
        y = np.array([1, 0, 0])
        m = _train("KNN", {"k": 3, "weights": "distance"}, X, y)
        assert predict(m, np.array([[0.0]]))[0] == 1

    def test_exact_match_at_distance_zero_wins_vote(self):
        # the query repeats a class-1 training row; four class-0 rows sit
        # 1e-9 away, so any rounding residue in the self-distance (as the
        # expanded form |a|^2 + |b|^2 - 2ab leaves) would hand them the vote
        rng = np.random.default_rng(11)
        X = 1e3 * rng.standard_normal((12, 40))
        y = np.zeros(12, dtype=int)
        y[0] = 1
        X[1:5] = X[0] + 1e-9 * rng.standard_normal((4, 40))
        m = _train("KNN", {"k": 5, "weights": "distance"}, X, y)
        labels, scores = predict(m, X[:1]), predict_scores(m, X[:1])
        assert labels[0] == 1
        assert scores[0].tolist() == [0.0, 1.0]

    def test_distances_follow_the_difference_form(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 25)) * 7.0
        b = np.vstack([a[1], rng.standard_normal((4, 25))])
        got = squared_distances(a, b)
        assert got[1, 0] == 0.0
        for i in range(len(a)):
            for j in range(len(b)):
                acc = 0.0
                for ai, bj in zip(a[i], b[j]):
                    acc += (ai - bj) * (ai - bj)
                assert got[i, j] == acc

    @staticmethod
    def _per_row_scores(model, X):
        """Votes row by row, each a bincount in neighbour order."""
        Xs = model.standardizer.transform(X)
        train_x, train_y = model.params["train_x"], model.params["train_y"]
        kk, k = min(model.hyperparams["k"], len(train_x)), len(model.classes)
        dists = np.sqrt(squared_distances(Xs, train_x))
        scores = np.zeros((len(Xs), k))
        for i in range(len(Xs)):
            order = np.argsort(dists[i], kind="stable")[:kk]
            nd, ny = dists[i][order], train_y[order]
            if model.hyperparams["weights"] == "uniform":
                vote = np.bincount(ny, minlength=k).astype(float)
            elif (nd == 0).any():
                vote = np.bincount(ny[nd == 0], minlength=k).astype(float)
            else:
                vote = np.bincount(ny, weights=1.0 / nd, minlength=k)
            scores[i] = vote / vote.sum()
        return scores

    @pytest.mark.parametrize("weights", ["uniform", "distance"])
    @pytest.mark.parametrize("k", [1, 2, 5, 9, 40])
    @pytest.mark.parametrize("n_classes", [3, 12])
    def test_votes_equal_per_row_reference(self, weights, k, n_classes):
        # rounded values give distance ties, repeated rows give ties at one
        # distance with different labels, the probe holds the training rows
        # (distance zero), and k = 40 exceeds the 36 training rows
        rng = np.random.default_rng(n_classes)
        X = np.round(rng.standard_normal((36, 3)), 1)
        X[30:] = X[:6]
        y = rng.integers(0, n_classes, 36)
        y[:n_classes] = np.arange(n_classes)
        m = _train("KNN", {"k": k, "weights": weights}, X, y)
        probe = np.vstack([X, np.round(rng.standard_normal((40, 3)), 1)])
        reference = self._per_row_scores(m, probe)
        assert (predict_scores(m, probe) == reference).all()
        assert (predict(m, probe) == m.classes[np.argmax(reference, axis=1)]).all()

    def test_k_larger_than_train_clamps(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        m = _train("KNN", {"k": 9, "weights": "uniform"}, X, y)
        assert predict(m, X).shape == (4,)


class TestNeuralNet:
    @pytest.mark.parametrize("solver", ["sgd", "adam"])
    def test_learns_separable_blobs(self, solver):
        X, y = _blobs(n_per=30)
        hp = {"hidden": 20, "activation": "relu", "solver": solver}
        m = _train("NeuralNet", hp, X, y, seed=4)
        assert (predict(m, X) == y).mean() >= 0.95
        assert isinstance(m.converged, bool)

    def test_deterministic_retrain(self):
        X, y = _blobs(n_per=15)
        hp = {"hidden": 10, "activation": "tanh", "solver": "adam"}
        a = _train("NeuralNet", hp, X, y, seed=6)
        b = _train("NeuralNet", hp, X, y, seed=6)
        assert np.array_equal(a.params["w1"], b.params["w1"])


def _neural_per_parameter(Xs, y, k, hp, seed):
    """The reference network fit: each of w1, b1, w2, b2 is its own array,
    and every solver step updates them one at a time."""
    n, d = Xs.shape
    hidden, activation = int(hp["hidden"]), hp["activation"]
    rng = rng_from(seed, "neural")
    w1 = neural._glorot(rng, d, hidden)
    b1 = np.zeros(hidden)
    w2 = neural._glorot(rng, hidden, k)
    b2 = np.zeros(k)
    onehot = np.eye(k)[y]
    velocity = [np.zeros_like(p) for p in (w1, b1, w2, b2)]
    adam_m = [np.zeros_like(p) for p in (w1, b1, w2, b2)]
    adam_v = [np.zeros_like(p) for p in (w1, b1, w2, b2)]
    adam_t, best_loss, stall, converged = 0, np.inf, 0, False
    for _epoch in range(neural.MAX_EPOCHS):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, neural.BATCH_SIZE):
            batch = order[start:start + neural.BATCH_SIZE]
            xb, tb = Xs[batch], onehot[batch]
            m = len(batch)
            z1 = xb @ w1 + b1
            a1 = neural._act(z1, activation)
            probs = neural.softmax(a1 @ w2 + b2)
            losses.append(float(-(tb * np.log(probs + 1e-12)).sum() / m))
            dz2 = (probs - tb) / m
            dz1 = (dz2 @ w2.T) * neural._act_grad(z1, a1, activation)
            grads = [xb.T @ dz1, dz1.sum(axis=0), a1.T @ dz2, dz2.sum(axis=0)]
            if hp["solver"] == "sgd":
                for p, g, v in zip((w1, b1, w2, b2), grads, velocity):
                    v *= neural.SGD_MOMENTUM
                    v -= neural.SGD_LR * g
                    p += v
            else:
                adam_t += 1
                correct1 = 1 - neural.ADAM_BETA1**adam_t
                correct2 = 1 - neural.ADAM_BETA2**adam_t
                for p, g, m1, v1 in zip((w1, b1, w2, b2), grads, adam_m, adam_v):
                    m1 *= neural.ADAM_BETA1
                    m1 += (1 - neural.ADAM_BETA1) * g
                    v1 *= neural.ADAM_BETA2
                    v1 += (1 - neural.ADAM_BETA2) * g**2
                    mhat = m1 / correct1
                    vhat = v1 / correct2
                    p -= neural.ADAM_LR * mhat / (np.sqrt(vhat) + neural.ADAM_EPS)
        epoch_loss = float(np.mean(losses))
        if epoch_loss > best_loss - neural.LOSS_TOL:
            stall += 1
            if stall >= neural.PATIENCE:
                converged = True
                break
        else:
            stall = 0
        best_loss = min(best_loss, epoch_loss)
    return {"w1": w1, "b1": b1, "w2": w2, "b2": b2, "activation": activation}, converged


class TestNeuralFlatBufferOracle:
    """``neural.fit`` (views of flat buffers, in-place steps) against the
    per-parameter loop. n = 70 gives mini-batches of 32, 32 and 6 rows."""

    @pytest.mark.parametrize("solver", ["sgd", "adam"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_equals_per_parameter_updates(self, solver, activation):
        rng = np.random.default_rng(12)
        Xs = rng.standard_normal((70, 6))
        y = (Xs[:, 0] + 0.5 * rng.standard_normal(70) > 0).astype(int) + (Xs[:, 1] > 0.8)
        hp = {"hidden": 9, "activation": activation, "solver": solver}
        state, converged = neural.fit(Xs, y, 3, hp, seed=3)
        want, want_converged = _neural_per_parameter(Xs, y, 3, hp, seed=3)
        assert converged == want_converged
        assert state["activation"] == want["activation"]
        for name in ("w1", "b1", "w2", "b2"):
            got = state[name]
            assert got.shape == want[name].shape and got.flags.c_contiguous, name
            assert got.base is None, name                    # a copy, not a view
            assert got.tobytes() == want[name].tobytes(), name


class TestNeuralGradientOracle:
    """The backpropagated gradient against central differences of the
    batch loss. With one full batch, one epoch and plain SGD, the first
    step moves the flat parameters (w1, b1, w2, b2) by exactly -SGD_LR * g
    from the Glorot start, which ``fit`` returns when no epoch runs."""

    @staticmethod
    def _loss(theta, X, y, d, hidden, k, activation):
        w1 = theta[:d * hidden].reshape(d, hidden)
        b1 = theta[d * hidden:(d + 1) * hidden]
        w2 = theta[(d + 1) * hidden:(d + 1) * hidden + hidden * k].reshape(hidden, k)
        b2 = theta[(d + 1) * hidden + hidden * k:]
        z1 = X @ w1 + b1
        a1 = np.maximum(z1, 0.0) if activation == "relu" else np.tanh(z1)
        z2 = a1 @ w2 + b2
        top = z2.max(axis=1)
        log_norm = top + np.log(np.exp(z2 - top[:, None]).sum(axis=1))
        return float(np.mean(log_norm - z2[np.arange(len(y)), y]))

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_first_sgd_step_is_the_loss_gradient(self, activation, monkeypatch):
        rng = np.random.default_rng(21)
        n, d, hidden, k = 24, 4, 5, 3
        assert n <= neural.BATCH_SIZE
        X = rng.standard_normal((n, d))
        y = rng.integers(0, k, n)
        hp = {"hidden": hidden, "activation": activation, "solver": "sgd"}

        def flat(epochs):
            monkeypatch.setattr(neural, "MAX_EPOCHS", epochs)
            state, _ = neural.fit(X, y, k, hp, seed=9)
            return np.concatenate([state[name].ravel() for name in ("w1", "b1", "w2", "b2")])

        start = flat(0)
        g = (start - flat(1)) / neural.SGD_LR
        h = 1e-6
        numeric = np.empty_like(start)
        for i in range(len(start)):
            e = np.zeros_like(start)
            e[i] = h
            numeric[i] = (self._loss(start + e, X, y, d, hidden, k, activation)
                          - self._loss(start - e, X, y, d, hidden, k, activation)) / (2 * h)
        assert np.linalg.norm(g - numeric) <= 1e-6 * np.linalg.norm(numeric)


class TestQda:
    def test_matches_manual_mahalanobis(self):
        rng = np.random.default_rng(8)
        X = np.vstack([rng.normal(0, 1.0, (50, 2)), rng.normal(4, 0.5, (50, 2))])
        y = np.repeat([0, 1], 50)
        m = _train("QDA", {"reg": 0.0}, X, y)
        # manual: standardized data, per-class ddof=1 covariance, log posterior
        mu, sd = X.mean(axis=0), X.std(axis=0)
        Xs = (X - mu) / sd
        q = np.array([[1.5, 1.5]])
        qs = (q - mu) / sd
        logps = []
        for c in (0, 1):
            sub = Xs[y == c]
            cov = np.cov(sub, rowvar=False, ddof=1)
            diff = (qs - sub.mean(axis=0)).ravel()
            maha = diff @ np.linalg.solve(cov, diff)
            logps.append(math.log(0.5) - 0.5 * (np.linalg.slogdet(cov)[1] + maha + 2 * math.log(2 * math.pi)))
        top = max(logps)
        z = sum(math.exp(v - top) for v in logps)
        oracle = [math.exp(v - top) / z for v in logps]
        assert np.allclose(predict_scores(m, q)[0], oracle, atol=1e-9)

    def test_singular_covariance_names_the_remedy(self):
        X = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [3.0, 6.0],
                      [10.0, 0.0], [11.0, 2.0], [12.0, 4.0], [13.0, 6.0]])
        X[:, 1] = 2 * X[:, 0]          # exactly collinear
        y = np.repeat([0, 1], 4)
        with pytest.raises(SingularCovariance) as err:
            _train("QDA", {"reg": 0.0}, X, y)
        assert "reg" in str(err.value)

    def test_regularization_rescues_collinear_data(self):
        X = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [3.0, 6.0],
                      [10.0, 20.0], [11.0, 22.0], [12.0, 24.0], [13.0, 26.0]])
        y = np.repeat([0, 1], 4)
        m = _train("QDA", {"reg": 0.5}, X, y)
        assert (predict(m, X) == y).all()

    @pytest.mark.parametrize("reg", [0.0, 0.5])
    @pytest.mark.parametrize("d", [5, 32, 33, 137])
    def test_log_posteriors_match_a_triangular_solve(self, d, reg):
        # scipy is a test-only reference: per class, the Cholesky factor of
        # the regularized covariance and a triangular solve, as the package
        # scored before it stored inverse factors; d > 32 takes the block path
        from scipy.linalg import solve_triangular

        rng = np.random.default_rng(d)
        X = np.vstack([rng.normal(c, 1.0, (2 * d, d)) for c in (0.0, 0.7, 1.5)])
        y = np.repeat([0, 1, 2], 2 * d)
        m = _train("QDA", {"reg": reg}, X, y)
        Xs = m.standardizer.transform(X)
        probe = m.standardizer.transform(rng.normal(0.7, 1.5, (25, d)))
        for rows in (probe[:1], probe):
            expected = np.empty((len(rows), 3))
            for c in range(3):
                cov = np.cov(Xs[y == c], rowvar=False)
                L = np.linalg.cholesky((1 - reg) * cov + reg * np.trace(cov) / d * np.eye(d))
                z = solve_triangular(L, (rows - Xs[y == c].mean(axis=0)).T, lower=True)
                expected[:, c] = (math.log(1 / 3) - np.log(np.diag(L)).sum()
                                  - 0.5 * np.square(z).sum(axis=0) - 0.5 * d * math.log(2 * math.pi))
            assert np.allclose(qda.log_posteriors(m.params, rows), expected, rtol=1e-12, atol=0)


class TestSvm:
    def test_linear_separable_perfect(self):
        X, y = _blobs(n_per=20)
        m = _train("SVM", {"kernel": "linear", "C": 1.0, "gamma": "scale"}, X, y)
        assert (predict(m, X) == y).all()

    def test_binary_margins_mirror(self):
        X, y = _blobs(n_per=12)
        m = _train("SVM", {"kernel": "linear", "C": 1.0, "gamma": "scale"}, X, y)
        dv = predict_scores(m, X)
        assert dv.shape == (24, 2)
        assert np.allclose(dv[:, 0], -dv[:, 1])

    def test_rbf_solves_xor(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]] * 4)
        X = X + np.random.default_rng(7).normal(0, 0.02, X.shape)
        y = np.tile([0, 0, 1, 1], 4)
        m = _train("SVM", {"kernel": "rbf", "C": 10.0, "gamma": 1.0}, X, y)
        assert (predict(m, X) == y).all()

    def test_three_class_one_vs_rest(self):
        # a linear one-vs-rest boundary cannot isolate the middle blob, so
        # the multiclass path is exercised with the rbf kernel
        X, y = _blobs(n_per=15, centers=(0.0, 3.0, 6.0))
        m = _train("SVM", {"kernel": "rbf", "C": 10.0, "gamma": "scale"}, X, y)
        assert predict_scores(m, X).shape == (45, 3)
        assert (predict(m, X) == y).mean() >= 0.95

    def test_closed_form_on_two_points(self):
        # x = -1 and x = +1 at large C: the max-margin line is w = 1, b = 0,
        # with both points support vectors on the margins -1 and +1
        X = np.array([[-1.0], [1.0]])
        hp = {"kernel": "linear", "C": 1000.0, "gamma": "scale"}
        params, converged = svm.fit(X, np.array([0, 1]), 2, hp, seed=0)
        assert converged
        (coef,), (b,) = params["coef"], params["b"]
        assert coef @ params["sv"][:, 0] == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(0.0, abs=1e-12)
        margins = svm.predict(params, X, 2, hp)
        assert np.allclose(margins[:, 1], [-1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_dual_solution_is_feasible_and_optimal(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 31))
        X = rng.standard_normal((n, 3))
        t = np.where(X[:, 0] + rng.standard_normal(n) > 0, 1.0, -1.0)
        t[:2] = [1.0, -1.0]
        kernel = ("linear", "rbf")[seed % 2]
        C = (0.1, 1.0, 10.0)[seed % 3]
        K = X @ X.T if kernel == "linear" else np.exp(-0.5 * squared_distances(X, X))
        alpha, b, converged = svm._smo(K, t, C)
        assert converged
        assert np.all((alpha >= 0) & (alpha <= C))
        assert abs(alpha @ t) <= 1e-12
        # the maximal violating pair, from the gradient recomputed in full
        v = -t * ((t[:, None] * t[None, :] * K) @ alpha - 1.0)
        up = ((t > 0) & (alpha < C)) | ((t < 0) & (alpha > 0))
        low = ((t > 0) & (alpha > 0)) | ((t < 0) & (alpha < C))
        assert v[up].max() - v[low].min() < svm.TOL
        # KKT with the returned bias: margins >= 1 at 0, <= 1 at C, = 1 between
        slack = t * (K @ (alpha * t) + b) - 1.0
        assert np.all(slack[alpha == 0] >= -svm.TOL)
        assert np.all(slack[alpha == C] <= svm.TOL)
        assert np.all(np.abs(slack[(alpha > 0) & (alpha < C)]) <= svm.TOL)

    def test_iteration_cap_flags_non_convergence(self, monkeypatch):
        X, y = _blobs(n_per=12)
        hp = {"kernel": "rbf", "C": 10.0, "gamma": "scale"}
        assert svm.fit(X, y, 2, hp, seed=0)[1]
        monkeypatch.setattr(svm, "MAX_ITER", 1)
        params, converged = svm.fit(X, y, 2, hp, seed=0)
        assert not converged
        assert np.isfinite(params["b"][0])

    @pytest.mark.parametrize("hp", [
        {"kernel": "linear", "C": 0.1, "gamma": "scale"},
        {"kernel": "rbf", "C": 10.0, "gamma": 0.1},
    ], ids=["linear", "rbf"])
    def test_shared_rows_match_per_machine_reference(self, hp):
        # each machine solved on its own, and scored on its own support rows
        X, y = _golden_data()
        m = _train("SVM", hp, X, y, seed=5)
        Xs = m.standardizer.transform(X)
        probe = np.vstack([Xs, np.random.default_rng(4).standard_normal((40, 8)) * 1.5])
        gamma = m.params["gamma_value"]
        K = svm._kernel(Xs, Xs, hp["kernel"], gamma)
        used, ref = np.zeros(len(X), dtype=bool), []
        for c in range(3):
            t = np.where(y == c, 1.0, -1.0)
            alpha, b, _ = svm._smo(K, t, hp["C"])
            on = alpha > svm._SV_CUTOFF
            used |= on
            ref.append(svm._kernel(probe, Xs[on], hp["kernel"], gamma) @ (alpha[on] * t[on]) + b)
        ref = np.column_stack(ref)
        # the used training rows, each once and in training order; the
        # golden data repeats rows 30-35 as 40-45, so equal rows can recur
        assert np.array_equal(m.params["sv"], Xs[used]) and len(m.params["sv"]) <= len(X)
        assert m.params["coef"].shape == (3, used.sum())
        margins = svm.predict(m.params, probe, 3, hp)
        assert np.allclose(margins, ref, rtol=0.0, atol=1e-12)
        # classify labels a row by its largest margin
        assert np.array_equal(margins.argmax(axis=1), ref.argmax(axis=1))

    @pytest.mark.parametrize("label", [1.0, -1.0])
    def test_one_class_machine_has_a_finite_bias(self, label):
        X = np.random.default_rng(8).standard_normal((30, 5))
        alpha, b, converged = svm._smo(X @ X.T, np.full(30, label), 1.0)
        assert converged and np.isfinite(b) and not alpha.any()
        # with every alpha at 0, KKT asks only for margins t * b >= 1
        assert label * b >= 1.0 - svm.TOL
        hp = {"kernel": "linear", "C": 1.0, "gamma": "scale"}
        params, _ = svm.fit(X, np.zeros(30, dtype=int), 1, hp, seed=0)
        assert np.isfinite(params["b"][0])


class TestSingleClass:
    @pytest.mark.parametrize("kind", KINDS)
    def test_trains_on_one_label_and_predicts_it(self, kind):
        X, _ = _blobs(n_per=10)
        y = np.full(len(X), 3)
        hp = enumerate_grid(make_spec(kind))[0]
        m = replace(train(make_spec(kind), hp, X, y), catalog_version=CATALOG, class_names=("only",))
        assert list(m.classes) == [3]
        assert (predict(m, X) == 3).all()


class TestKindContract:
    """Every kind's predict gives only an (n, k) float array of scores, with
    one class as with several; ``classify`` labels each row with its
    highest-scoring class, the lowest on a tie, from one predict call."""

    @pytest.mark.parametrize("n_classes", [1, 2, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_scores_are_an_n_by_k_float_array(self, kind, n_classes):
        X, y = _blobs(n_per=10, centers=(0.0, 3.0, 6.0)[:n_classes])
        y = 2 * y + 3                  # ids that are not positions
        hp = enumerate_grid(make_spec(kind))[0]
        m = replace(train(make_spec(kind), hp, X, y), catalog_version=CATALOG)
        probe = np.vstack([X, np.random.default_rng(2).standard_normal((5, 3)) * 4.0])
        labels, scores = classify(m, probe)
        assert isinstance(scores, np.ndarray) and scores.dtype == np.float64
        assert scores.shape == (len(probe), n_classes)
        assert set(labels) <= set(m.classes)
        assert np.array_equal(labels, predict(m, probe))
        assert scores.tobytes() == predict_scores(m, probe).tobytes()
        # the label is the class of the row's largest score
        assert np.array_equal(scores.argmax(axis=1), np.searchsorted(m.classes, labels))

    @pytest.mark.parametrize("kind", KINDS)
    def test_kind_predict_returns_only_the_scores(self, kind):
        X, y = _blobs(n_per=10, centers=(0.0, 3.0, 6.0))
        hp = enumerate_grid(make_spec(kind))[0]
        m = train(make_spec(kind), hp, X, 2 * y + 3)
        probe = np.vstack([X, np.random.default_rng(7).standard_normal((9, 3)) * 4.0])
        scores = _MODULES[kind].predict(m.params, m.standardizer.transform(probe), 3, m.hyperparams)
        assert isinstance(scores, np.ndarray) and scores.shape == (len(probe), 3)
        assert scores.tobytes() == predict_scores(m, probe).tobytes()
        assert np.array_equal(predict(m, probe), m.classes[scores.argmax(axis=1)])


class TestTrainValidation:
    def test_misaligned_rows(self):
        with pytest.raises(DimensionMismatch):
            _train("DecisionTree", {"criterion": "gini", "max_depth": None},
                   np.zeros((3, 2)), np.array([0, 1]))

    def test_one_dimensional_matrix(self):
        with pytest.raises(DimensionMismatch):
            train(make_spec("KNN"), {"k": 1, "weights": "uniform"},
                  np.zeros(4), np.array([0, 0, 1, 1]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyDataset):
            train(make_spec("KNN"), {"k": 1, "weights": "uniform"},
                  np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_non_finite_rejected(self):
        X = np.array([[0.0], [np.nan]])
        with pytest.raises(NonFiniteValue):
            _train("DecisionTree", {"criterion": "gini", "max_depth": None}, X, np.array([0, 1]))


class TestProvenanceFields:
    """``train`` leaves the provenance at its defaults; a model checks its
    class-name count whenever it is made, through ``replace`` too."""

    def test_train_and_grid_search_only_fit(self):
        assert list(inspect.signature(train).parameters) == ["spec", "hyperparams", "X", "y", "seed"]
        assert list(inspect.signature(grid_search).parameters) == ["spec", "X", "y", "k", "threads"]
        X, y = _blobs(n_per=6)
        m = train(make_spec("KNN"), {"k": 1, "weights": "uniform"}, X, y)
        assert (m.mask, m.catalog_version, m.class_names, m.task, m.processing) == \
            (None, "", (), "identification", None)

    @pytest.mark.parametrize("names", [("only",), ("a", "b", "c")], ids=["one", "three"])
    def test_replace_with_a_wrong_name_count_raises(self, names):
        X, y = _blobs(n_per=6)
        m = train(make_spec("KNN"), {"k": 1, "weights": "uniform"}, X, y)
        with pytest.raises(DimensionMismatch, match=f"{len(names)} class names for 2 classes"):
            replace(m, class_names=names)
        assert replace(m, class_names=("a", "b")).class_names == ("a", "b")


class TestPersistence:
    ALL = [
        ("DecisionTree", {"criterion": "gini", "max_depth": None}),
        ("RandomForest", {"criterion": "entropy", "n_estimators": 5}),
        ("AdaBoost", {"n_estimators": 5}),
        ("GaussianNB", {"var_smoothing": 1e-7}),
        ("KNN", {"k": 3, "weights": "distance"}),
        ("NeuralNet", {"hidden": 8, "activation": "relu", "solver": "sgd"}),
        ("QDA", {"reg": 0.1}),
        ("SVM", {"kernel": "rbf", "C": 1.0, "gamma": 0.1}),
    ]

    @pytest.mark.parametrize("kind,hp", ALL, ids=[k for k, _ in ALL])
    def test_round_trip_preserves_predictions(self, kind, hp, tmp_path):
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        m = _train(kind, hp, X, y, seed=2)
        path = str(tmp_path / f"{kind}.json")
        save_model(m, path)
        back = load_model(path)
        probe = np.random.default_rng(0).standard_normal((40, 3))
        assert np.array_equal(predict(back, probe), predict(m, probe))
        assert back.kind == m.kind
        assert back.hyperparams == m.hyperparams
        assert back.catalog_version == m.catalog_version
        assert back.task == m.task
        assert back.class_names == m.class_names

    def test_envelope_key_set_is_exact(self):
        X, y = _blobs(n_per=8)
        env = model_to_json_dict(_train("DecisionTree", {"criterion": "gini", "max_depth": 2}, X, y))
        assert set(env) == {
            "format_version", "kind", "hyperparams", "standardizer",
            "mask", "parameters", "seed", "catalog_version", "processing",
        }
        assert set(env["parameters"]) == {"classes", "class_names", "task", "converged", "state"}
        assert env["format_version"] == "3"
        assert env["processing"] is None

    @pytest.mark.parametrize("kind,hp", ALL, ids=[k for k, _ in ALL])
    def test_declared_state_fields_are_the_saved_ones(self, kind, hp, tmp_path):
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        path = str(tmp_path / f"{kind}.json")
        save_model(_train(kind, hp, X, y, seed=2), path)
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)["parameters"]["state"]
        assert sorted(state) == sorted(_MODULES[kind].STATE)

    @pytest.mark.parametrize("kind,field", [(k, f) for k, _ in ALL for f in _MODULES[k].STATE])
    def test_missing_state_field_is_named(self, kind, field):
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        env = model_to_json_dict(_train(kind, dict(self.ALL)[kind], X, y, seed=2))
        del env["parameters"]["state"][field]
        with pytest.raises(FormatVersionMismatch, match=f"'parameters.state.{field}'"):
            model_from_json_dict(env)

    @pytest.mark.parametrize("path,value", [
        ("mask", ...),
        ("parameters.class_names", ...),
        ("parameters.converged", ...),
        ("parameters.task", ...),
        ("catalog_version", ...),
        ("parameters.task", "Authentication"),
        ("parameters.task", None),
        ("parameters.converged", "no"),
        ("parameters.converged", 1),
        ("catalog_version", 3),
        ("catalog_version", None),
    ], ids=lambda v: "missing" if v is ... else str(v))
    def test_missing_or_mistyped_provenance_field_is_named(self, path, value):
        # a missing mask, class-name list, convergence flag or task tag
        # loaded as its default, so the file scored as an identification
        # model; "no" and 1 loaded as converged
        X, y = _blobs(n_per=8)
        env = model_to_json_dict(_train("GaussianNB", {"var_smoothing": 1e-9}, X, y,
                                        task="authentication"))
        *parents, last = path.split(".")
        holder = env
        for key in parents:
            holder = holder[key]
        if value is ...:
            del holder[last]
        else:
            holder[last] = value
        with pytest.raises(FormatVersionMismatch, match=rf"model field '{path}' is missing or malformed"):
            model_from_json_dict(env)

    @pytest.mark.parametrize("task", ["identification", "authentication"])
    @pytest.mark.parametrize("converged", [True, False])
    def test_provenance_fields_load_as_written(self, task, converged):
        X, y = _blobs(n_per=8)
        m = replace(_train("GaussianNB", {"var_smoothing": 1e-9}, X, y, task=task), converged=converged)
        back = model_from_json_dict(json.loads(json.dumps(model_to_json_dict(m))))
        assert (back.task, back.converged, back.catalog_version) == (task, converged, CATALOG)

    @pytest.mark.parametrize("version", ["1", "2", "99"])
    def test_unknown_format_version(self, version):
        """Format 1 files (arrays as number lists) and format 2 files (a
        tree ensemble as one dict per tree) are refused too, naming 3."""
        X, y = _blobs(n_per=8)
        env = model_to_json_dict(_train("GaussianNB", {"var_smoothing": 1e-9}, X, y))
        env["format_version"] = version
        with pytest.raises(FormatVersionMismatch, match="expected '3'"):
            model_from_json_dict(env)

    @pytest.mark.parametrize("kind,hp,name", [
        ("DecisionTree", {"criterion": "gini", "max_depth": None}, "tree"),
        ("RandomForest", {"criterion": "entropy", "n_estimators": 4}, "trees"),
        ("AdaBoost", {"n_estimators": 6}, "stumps"),
    ], ids=["DecisionTree", "RandomForest", "AdaBoost"])
    def test_saved_tree_state_is_the_seven_table_fields(self, kind, hp, name):
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        m = _train(kind, hp, X, y, seed=2)
        saved = model_to_json_dict(m)["parameters"]["state"][name]
        dtypes = {"roots": "<i4", "feature": "<i4", "left": "<i4", "right": "<i4",
                  "threshold": "<f8", "counts": "<f8", "importances": "<f8"}
        assert {field: array["dtype"] for field, array in saved.items()} == dtypes
        trees, nodes = len(m.params[name].roots), len(m.params[name].feature)
        assert trees == {"tree": 1, "trees": 4, "stumps": len(m.params.get("alphas", ()))}[name]
        assert saved["roots"]["shape"] == [trees]
        assert saved["importances"]["shape"] == [trees, 3]
        assert saved["counts"]["shape"] == [nodes, 3]

    @pytest.mark.parametrize("kind,hp,name", [
        ("RandomForest", {"criterion": "gini", "n_estimators": 4}, "trees"),
        ("AdaBoost", {"n_estimators": 6}, "stumps"),
    ], ids=["RandomForest", "AdaBoost"])
    @pytest.mark.parametrize("feature_id", [3, 100000])
    def test_split_feature_past_the_width_is_refused(self, kind, hp, name, feature_id, tmp_path):
        # the data has 3 features, so ids 0-2; walking id 3 would index past
        # the row and fail with IndexError at predict time
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        env = model_to_json_dict(_train(kind, hp, X, y, seed=2))
        saved = env["parameters"]["state"][name]
        feature = _decode(saved["feature"]).copy()
        assert (feature >= 0).any()
        feature[feature >= 0] = feature_id
        saved["feature"] = _encode(feature)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(env), encoding="utf-8")
        with pytest.raises(FormatVersionMismatch,
                           match=rf"'parameters.state'.*feature ids must be below the 3 "
                                 rf"features of importances, got {feature_id}"):
            load_model(str(path))

    def test_split_feature_at_the_last_column_loads(self):
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        env = model_to_json_dict(_train("AdaBoost", {"n_estimators": 6}, X, y, seed=2))
        saved = env["parameters"]["state"]["stumps"]
        feature = _decode(saved["feature"]).copy()
        feature[feature >= 0] = 2
        saved["feature"] = _encode(feature)
        assert (model_from_json_dict(env).params["stumps"].feature.max()) == 2

    @staticmethod
    def _edited_tree_file(tmp_path, edit):
        """A saved DecisionTree file whose table arrays went through ``edit``
        (a dict of field -> array, changed in place)."""
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        env = model_to_json_dict(_train("DecisionTree", {"criterion": "gini", "max_depth": None}, X, y))
        saved = env["parameters"]["state"]["tree"]
        table = {name: _decode(value).copy() for name, value in saved.items()}
        assert (table["feature"] >= 0).sum() >= 2
        edit(table)
        saved.update({name: _encode(value) for name, value in table.items()})
        path = tmp_path / "model.json"
        path.write_text(json.dumps(env), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("field,cut", [
        ("counts", lambda a: a[:-1]),
        ("threshold", lambda a: a[:-1]),
        ("left", lambda a: a[:-1]),
        ("importances", lambda a: np.vstack([a, a])),
    ], ids=["counts", "threshold", "left", "importances"])
    def test_table_arrays_of_other_lengths_are_refused_at_load(self, field, cut, tmp_path):
        # a dropped counts row loaded, then predict died with IndexError; a
        # dropped threshold loaded silently
        def edit(table):
            table[field] = np.ascontiguousarray(cut(table[field]))

        with pytest.raises(FormatVersionMismatch, match="'parameters.state'.*NodeTable arrays "
                                                        "disagree on the node or tree count"):
            load_model(self._edited_tree_file(tmp_path, edit))

    @pytest.mark.parametrize("field,value,message", [
        ("roots", lambda t: len(t["feature"]), "root ids must lie in the table"),
        ("roots", lambda t: -1, "root ids must lie in the table"),
        ("left", lambda t: len(t["feature"]), "child ids must lie in the table"),
        ("right", lambda t: -1, "child ids must lie in the table"),
        ("right", lambda t: 0, "child ids must lie in the table of [0-9]+ nodes, after their parent"),
    ], ids=["root-past-end", "root-negative", "left-past-end", "right-negative", "right-to-root"])
    def test_table_ids_out_of_place_are_refused_at_load(self, field, value, message, tmp_path):
        def edit(table):
            at = 0 if field == "roots" else int(np.flatnonzero(table["feature"] >= 0)[-1])
            table[field][at] = value(table)

        path = self._edited_tree_file(tmp_path, edit)
        # a child pointing back is a cycle, which the depth walk at load never left
        with deadline(10), pytest.raises(FormatVersionMismatch,
                                         match=f"'parameters.state'.*NodeTable {message}"):
            load_model(path)

    def test_table_with_a_cycle_is_refused_at_load(self, tmp_path):
        # a split node whose left child is the root made the depth walk at
        # load loop forever
        def edit(table):
            table["left"][np.flatnonzero(table["feature"] >= 0)[-1]] = 0

        path = self._edited_tree_file(tmp_path, edit)
        with deadline(10), pytest.raises(FormatVersionMismatch, match="after their parent"):
            load_model(path)

    @pytest.mark.parametrize("kind,hp,drop", [
        ("KNN", {"k": 3, "weights": "distance"}, "weights"),
        ("SVM", {"kernel": "rbf", "C": 1.0, "gamma": 0.1}, "kernel"),
    ])
    def test_missing_hyperparameter_is_a_library_error_at_load(self, kind, hp, drop, tmp_path):
        # each loaded and then failed with a raw KeyError
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        env = model_to_json_dict(_train(kind, hp, X, y))
        del env["hyperparams"][drop]
        with pytest.raises(ConfigError, match=f"{kind} hyperparameters must be"):
            model_from_json_dict(env)

    @staticmethod
    def _edit_state(state, changes):
        """Apply ``changes`` to a saved state: each maps a field (a dotted
        one names an array of a tree table) to None, which drops it, or to
        a function of its value, decoded when it is an array."""
        for path, change in changes.items():
            *parents, name = path.split(".")
            holder = state
            for parent in parents:
                holder = holder[parent]
            if change is None:
                del holder[name]
            elif isinstance(holder[name], dict):
                holder[name] = _encode(np.ascontiguousarray(change(_decode(holder[name]))))
            else:
                holder[name] = change(holder[name])

    @pytest.mark.parametrize("kind,hp,changes,message", [
        ("KNN", {"k": 3, "weights": "uniform"}, {"train_y": lambda a: np.where(a == 2, 7, a)},
         r"train_y must hold one class id in \[0, 3\)"),
        ("KNN", {"k": 3, "weights": "uniform"}, {"train_y": lambda a: a[:-1]},
         r"train_y must hold one class id in \[0, 3\) per row"),
        ("SVM", {"kernel": "rbf", "C": 1.0, "gamma": 0.1}, {"gamma_value": lambda v: -1.0},
         "gamma_value must be a number > 0, got -1.0"),
        ("SVM", {"kernel": "rbf", "C": 1.0, "gamma": 0.1}, {"gamma_value": lambda v: "x"},
         "gamma_value must be a number > 0, got 'x'"),
        ("DecisionTree", {"criterion": "gini", "max_depth": None}, {"tree.right": None},
         "AttributeError"),
        ("RandomForest", {"criterion": "gini", "n_estimators": 3}, {"trees.counts": lambda a: a[:, :2]},
         "tree class sums are 2 classes wide"),
        ("GaussianNB", {"var_smoothing": 1e-9}, {"variances": lambda a: -a}, "an all-zero row scores"),
        ("QDA", {"reg": 0.5}, {name: lambda a: a[:2] for name in qda.STATE},
         r"an all-zero row scores \[\["),
    ], ids=["knn-label", "knn-rows", "svm-gamma", "svm-gamma-text", "tree-field", "forest-classes",
            "nb-variances", "qda-classes"])
    def test_state_that_cannot_score_every_row_is_refused_at_load(self, kind, hp, changes, message):
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        env = model_to_json_dict(_train(kind, hp, X, y))
        self._edit_state(env["parameters"]["state"], changes)
        with pytest.raises(FormatVersionMismatch, match=message):
            model_from_json_dict(env)

    def test_unknown_activation_in_the_state_is_refused_at_load(self):
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        env = model_to_json_dict(_train("NeuralNet", {"hidden": 4, "activation": "tanh", "solver": "adam"}, X, y))
        env["parameters"]["state"]["activation"] = "sigmoid"
        with pytest.raises(UnsupportedKind, match="unknown NeuralNet activation 'sigmoid'"):
            model_from_json_dict(env)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatVersionMismatch):
            load_model(str(path))

    @pytest.mark.parametrize("kind,hp", ALL, ids=[k for k, _ in ALL])
    def test_file_equals_json_dumps(self, kind, hp, tmp_path):
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        self._assert_json_dumps_bytes(_train(kind, hp, X, y, seed=2), tmp_path)

    def test_file_equals_json_dumps_masked_and_no_support_vectors(self, tmp_path):
        rng = np.random.default_rng(8)
        X_full = rng.standard_normal((30, 5))
        mask = np.array([True, False, True, True, False])
        y = (X_full[:, 0] > 0).astype(int)
        masked = _train("RandomForest", {"criterion": "gini", "n_estimators": 3},
                        X_full[:, mask], y, mask=mask)
        self._assert_json_dumps_bytes(masked, tmp_path)
        # one class: every SMO pair has an empty box, so no alpha moves
        bare = _train("SVM", {"kernel": "linear", "C": 1.0, "gamma": "scale"},
                      X_full, np.zeros(30, dtype=int), names=("only",))
        assert len(bare.params["sv"]) == 0
        self._assert_json_dumps_bytes(bare, tmp_path)

    @staticmethod
    def _assert_json_dumps_bytes(model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, str(path))
        expected = json.dumps(model_to_json_dict(model), sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    def test_interrupted_write_keeps_old_file(self, tmp_path):
        X, y = _blobs(n_per=10)
        m = _train("NeuralNet", {"hidden": 4, "activation": "tanh", "solver": "adam"}, X, y)
        path = tmp_path / "model.json"
        save_model(m, str(path))
        before = path.read_bytes()
        # not JSON: the encoder fails before the temporary file is opened
        m.params["activation"] = object()
        with pytest.raises(TypeError):
            save_model(m, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        assert load_model(str(path)).params["activation"] == "tanh"

    def test_failed_move_keeps_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        X, y = _blobs(n_per=10)
        path = tmp_path / "model.json"
        save_model(_train("GaussianNB", {"var_smoothing": 1e-9}, X, y), str(path))
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr("batteryauth.models.persist.os.replace", refuse)
        with pytest.raises(OSError, match="disk went away"):
            save_model(_train("GaussianNB", {"var_smoothing": 1e-5}, X, y), str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


class TestMaskedPrediction:
    def test_auto_mask_accepts_full_width_rows(self):
        rng = np.random.default_rng(10)
        X_full = rng.standard_normal((30, 6))
        mask = np.array([True, False, True, False, False, True])
        y = (X_full[:, 0] > 0).astype(int)
        m = _train("DecisionTree", {"criterion": "gini", "max_depth": None},
                   X_full[:, mask], y, mask=mask)
        probe_full = rng.standard_normal((10, 6))
        a = predict(m, probe_full)
        b = predict(m, probe_full[:, mask])
        assert np.array_equal(a, b)

    def test_wrong_width_raises(self):
        X, y = _blobs(n_per=10)
        m = _train("DecisionTree", {"criterion": "gini", "max_depth": None}, X, y)
        with pytest.raises(DimensionMismatch):
            predict(m, np.zeros((2, 5)))


class TestImportances:
    def test_tree_kinds_only(self):
        X, y = _blobs(n_per=10)
        m = _train("KNN", {"k": 1, "weights": "uniform"}, X, y)
        with pytest.raises(UnsupportedKind):
            raw_importances(m)

    def test_informative_feature_accumulates(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((80, 5))
        y = (X[:, 2] > 0).astype(int)
        m = _train("RandomForest", {"criterion": "gini", "n_estimators": 15}, X, y)
        raw = raw_importances(m)
        assert raw.argmax() == 2


def _round_trip(array):
    """``array`` through the array codec and JSON text, as a file holds it."""
    return _decode(json.loads(json.dumps(_encode(array))))


class TestArrayCodec:
    """Arrays load with the dtype, shape and bytes they were saved with."""

    VALUES = {
        # nan, +-inf, -0.0, the smallest subnormal and a mid-range subnormal
        "float64": np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.5e-310, 1 / 3, -1e300]),
        "int32": np.array([np.iinfo(np.int32).min, -1, 0, 7, np.iinfo(np.int32).max], dtype=np.int32),
        "int64": np.array([np.iinfo(np.int64).min, -1, 0, 2**53 + 1, np.iinfo(np.int64).max]),
        "bool": np.array([True, False, False, True, True]),
    }
    SHAPES = [(0,), (), (2, 0, 3), (2, 3, 4), (9,)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("dtype", sorted(VALUES))
    def test_round_trip_is_exact(self, dtype, shape):
        array = np.resize(self.VALUES[dtype], shape)
        assert array.shape == shape
        back = _round_trip(array)
        assert back.dtype == array.dtype and back.shape == array.shape
        assert np.array_equal(back, array, equal_nan=True)
        if array.dtype.kind == "f":
            assert np.array_equal(np.signbit(back), np.signbit(array))
        assert back.tobytes() == array.tobytes()
        back[...] = array          # loaded arrays are writable

    def test_big_endian_and_strided_arrays(self):
        values = np.arange(12.0).reshape(3, 4)
        for array in (values.astype(">f8"), values.T, values[::2, ::-1], np.asfortranarray(values)):
            back = _round_trip(array)
            assert back.dtype == np.dtype("<f8") and back.shape == array.shape
            assert np.array_equal(back, array)

    def test_saved_form_is_dtype_shape_and_base64(self):
        saved = _encode(np.array([[1.0, -0.0]]))
        assert saved == {"dtype": "<f8", "shape": [1, 2],
                         "data": base64.b64encode(np.array([1.0, -0.0], "<f8").tobytes()).decode()}

    def test_grown_tree_keeps_int32_ids_after_load(self, tmp_path):
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        m = _train("DecisionTree", {"criterion": "gini", "max_depth": None}, X, y)
        path = str(tmp_path / "m.json")
        save_model(m, path)
        for tree in (m.params["tree"], load_model(path).params["tree"]):
            assert [a.dtype for a in (tree.roots, tree.feature, tree.left, tree.right)] == [np.int32] * 4
            assert tree.threshold.dtype == tree.counts.dtype == tree.importances.dtype == np.float64

    def test_envelope_arrays_keep_dtypes(self, tmp_path):
        rng = np.random.default_rng(8)
        mask = np.array([True, False, True])
        m = _train("KNN", {"k": 1, "weights": "uniform"}, rng.standard_normal((12, 2)),
                   np.repeat([0, 1], 6), mask=mask)
        path = str(tmp_path / "m.json")
        save_model(m, path)
        back = load_model(path)
        assert back.mask.dtype == bool and np.array_equal(back.mask, mask)
        assert back.classes.dtype == m.classes.dtype
        assert back.standardizer.mean.tobytes() == m.standardizer.mean.tobytes()
        assert back.standardizer.scale.tobytes() == m.standardizer.scale.tobytes()

    @pytest.mark.parametrize("path,keys,change", [
        ("standardizer.mean", ("standardizer", "mean"), lambda a: a.update(data="not base64!")),
        ("standardizer.scale", ("standardizer", "scale"), lambda a: a.update(shape=[5])),
        ("parameters.classes", ("parameters", "classes"), lambda a: a.update(dtype="|O")),
        ("parameters.state", ("parameters", "state", "means"), lambda a: a.update(data=a["data"][:-4])),
    ], ids=["base64", "shape", "object-dtype", "short-data"])
    def test_malformed_array_names_the_field(self, path, keys, change):
        X, y = _blobs(n_per=8)
        env = model_to_json_dict(_train("GaussianNB", {"var_smoothing": 1e-9}, X, y))
        target = env
        for key in keys:
            target = target[key]
        change(target)
        with pytest.raises(FormatVersionMismatch, match=f"'{path}'"):
            model_from_json_dict(env)

    @pytest.mark.parametrize("path,field,value", [
        ("standardizer.mean", ("standardizer", "mean"), np.zeros((2, 4))),
        ("standardizer.scale", ("standardizer", "scale"), np.ones(3)),
        ("mask", (None, "mask"), np.ones(7, dtype=np.int64)),
        ("mask", (None, "mask"), np.ones((2, 4), dtype=bool)),
        ("mask", (None, "mask"), np.array([True] * 5 + [False] * 2)),
    ], ids=["2-D-mean", "short-scale", "int-mask", "2-D-mask", "mask-keeps-5"])
    def test_contradicting_widths_are_refused_at_load(self, path, field, value, tmp_path):
        # each of these loaded, and scoring then died on a numpy broadcast
        mask = np.array([True, False, True, True, False, True, False])
        env = model_to_json_dict(_train("KNN", {"k": 1, "weights": "uniform"},
                                        np.random.default_rng(8).standard_normal((12, 4)),
                                        np.repeat([0, 1], 6), mask=mask))
        parent, key = field
        (env if parent is None else env[parent])[key] = _encode(value)
        file = tmp_path / "model.json"
        file.write_text(json.dumps(env), encoding="utf-8")
        with pytest.raises(FormatVersionMismatch, match=f"'{path}'"):
            load_model(str(file))

    def test_old_machine_list_layout_is_refused(self):
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        env = model_to_json_dict(_train("SVM", {"kernel": "rbf", "C": 1.0, "gamma": 0.1}, X, y))
        state = env["parameters"]["state"]
        rows, coef = state.pop("sv"), _decode(state.pop("coef"))
        biases = _decode(state.pop("b"))
        state["machines"] = [{"class_id": c, "sv": rows, "coef": _encode(coef[c]), "b": float(biases[c])}
                             for c in range(3)]
        with pytest.raises(FormatVersionMismatch, match="'parameters.state.sv'"):
            model_from_json_dict(env)

    def test_old_cholesky_layout_is_refused(self):
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        env = model_to_json_dict(_train("QDA", {"reg": 0.1}, X, y))
        state = env["parameters"]["state"]
        state["chols"] = _encode(np.linalg.inv(_decode(state.pop("whiten"))))
        with pytest.raises(FormatVersionMismatch, match="'parameters.state.whiten'"):
            model_from_json_dict(env)

    @pytest.mark.parametrize("kind,hp,field,cut", [
        ("SVM", {"kernel": "rbf", "C": 1.0, "gamma": "scale"}, "sv", lambda a: a[:, :-1]),
        ("KNN", {"k": 1, "weights": "uniform"}, "train_x", lambda a: a[:, :-1]),
        ("NeuralNet", {"hidden": 4, "activation": "relu", "solver": "adam"}, "w1", lambda a: a[:-1]),
        ("GaussianNB", {"var_smoothing": 1e-9}, "means", lambda a: a[:, :-1]),
        ("QDA", {"reg": 0.5}, "means", lambda a: a[:, :-1]),
        ("QDA", {"reg": 0.5}, "whiten", lambda a: a[:, :-1, :-1]),
    ], ids=["SVM-sv", "KNN-train_x", "NeuralNet-w1", "GaussianNB-means", "QDA-means", "QDA-whiten"])
    def test_state_of_another_width_is_refused_at_load(self, kind, hp, field, cut):
        # each of these loaded, and scoring then died on a numpy broadcast
        X, y = _blobs(n_per=12, d=4)
        env = model_to_json_dict(_train(kind, hp, X, y))
        state = env["parameters"]["state"]
        state[field] = _encode(np.ascontiguousarray(cut(_decode(state[field]))))
        with pytest.raises(FormatVersionMismatch, match="does not score rows of the standardizer's 4 features"):
            model_from_json_dict(env)

    def test_tree_table_of_another_width_is_refused_at_load(self):
        # split feature ids stay in range, so the table scores 4-wide rows;
        # its importances claim a fifth feature
        X, y = _blobs(n_per=12, d=4)
        env = model_to_json_dict(_train("RandomForest", {"criterion": "gini", "n_estimators": 3}, X, y))
        trees = env["parameters"]["state"]["trees"]
        wide = _decode(trees["importances"])
        trees["importances"] = _encode(np.hstack([wide, np.zeros((len(wide), 1))]))
        with pytest.raises(FormatVersionMismatch, match="tree importances are 5 features wide"):
            model_from_json_dict(env)

    def test_non_array_where_an_array_belongs_names_the_field(self):
        X, y = _blobs(n_per=8)
        env = model_to_json_dict(_train("GaussianNB", {"var_smoothing": 1e-9}, X, y))
        env["standardizer"]["mean"] = [0.0, 0.0, 0.0]
        with pytest.raises(FormatVersionMismatch, match="'standardizer.mean'"):
            model_from_json_dict(env)


class TestProcessingBlock:
    def _model(self, processing):
        X, y = _blobs(n_per=8)
        m = _train("GaussianNB", {"var_smoothing": 1e-9}, X, y)
        m.processing = processing
        return m

    @pytest.mark.parametrize("processing", [
        DcaConfig(savgol_window=21, savgol_polyorder=2), DcaConfig(), EisConfig(resample_m=64), None,
    ], ids=repr)
    def test_round_trip(self, processing, tmp_path):
        path = str(tmp_path / "m.json")
        save_model(self._model(processing), path)
        assert load_model(path).processing == processing

    def test_saved_form(self):
        env = model_to_json_dict(self._model(EisConfig(resample_m=64)))
        assert env["processing"] == {"pipeline": "eis", "config": {"resample_m": 64}}

    @pytest.mark.parametrize("change", [
        lambda env: env["processing"].update(pipeline="xrd"),
        lambda env: env["processing"]["config"].pop("resample_n"),
        lambda env: env["processing"]["config"].update(extra=1),
        lambda env: env["processing"]["config"].update(savgol_window=21.0),
        lambda env: env["processing"]["config"].update(eps_volts="0.001"),
        lambda env: env["processing"].pop("config"),
        lambda env: env.pop("processing"),
    ], ids=["pipeline", "missing", "extra", "float-window", "text-eps", "no-config", "no-block"])
    def test_malformed_block_names_the_field(self, change):
        env = model_to_json_dict(self._model(DcaConfig()))
        change(env)
        with pytest.raises(FormatVersionMismatch, match="'processing'"):
            model_from_json_dict(env)


    @pytest.mark.parametrize("pipeline,change,message", [
        ("dca", {"savgol_polyorder": -1}, "savgol_polyorder: must be in [0, savgol_window), got -1"),
        ("dca", {"savgol_window": 4}, "savgol_window: must be odd and >= 3, got 4"),
        ("dca", {"savgol_polyorder": 51}, "savgol_polyorder: must be in [0, savgol_window), got 51"),
        ("dca", {"eps_volts": float("nan")}, "eps_volts: must be > 0, got nan"),
        ("dca", {"eps_volts": 0.0}, "eps_volts: must be > 0, got 0.0"),
        ("dca", {"resample_n": 4}, "resample_n: must be >= 8, got 4"),
        ("eis", {"resample_m": 0}, "resample_m: must be >= 8, got 0"),
        ("dca", {"resample_n": 10**10}, "resample_n: must be <= 4096, got 10000000000"),
        ("dca", {"savgol_window": 100001}, "savgol_window: must be <= 1001, got 100001"),
        ("eis", {"resample_m": 10**10}, "resample_m: must be <= 4096, got 10000000000"),
    ], ids=["polyorder-negative", "window-even", "polyorder-window", "eps-nan", "eps-zero",
            "resample-n", "resample-m", "resample-n-max", "window-max", "resample-m-max"])
    def test_block_out_of_bounds_is_refused_at_load(self, pipeline, change, message, tmp_path):
        # a negative polyorder loaded and scoring died with IndexError; an even
        # window failed with a misleading "series too short"; NaN passed; resample_n
        # 10**10 loaded and scoring asked numpy for 74.5 GiB (loading scores only
        # an all-zero feature row, so these cases allocate nothing large)
        env = model_to_json_dict(self._model(DcaConfig() if pipeline == "dca" else EisConfig()))
        env["processing"]["config"].update(change)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(env), encoding="utf-8")
        with pytest.raises(FormatVersionMismatch, match=f"'processing'.*{re.escape(message)}"):
            load_model(str(path))

    @pytest.mark.parametrize("make", [
        lambda: DcaConfig(savgol_polyorder=-1), lambda: DcaConfig(eps_volts=float("nan")),
        lambda: DcaConfig(savgol_window=4), lambda: EisConfig(resample_m=7),
    ], ids=["polyorder", "eps-nan", "window", "resample-m"])
    def test_settings_check_their_bounds_when_made(self, make):
        with pytest.raises(ValueError, match="must be"):
            make()


def _golden_data():
    """Fixed 3-class data with ties, a constant column and duplicate rows
    (some with conflicting labels)."""
    rng = np.random.default_rng(31337)
    n, d = 54, 8
    X = rng.standard_normal((n, d))
    X[:, 1] = np.round(X[:, 1], 0)
    X[:, 4] = 2.5
    X[:, 6] = np.round(X[:, 6] * 2, 0) / 2
    X[40:46] = X[30:36]
    y = ((X[:, 0] + 0.7 * X[:, 2] + 0.4 * rng.standard_normal(n)) > 0).astype(int)
    y[X[:, 3] > 0.9] = 2
    y[40:43] = (y[30:33] + 1) % 3
    return X, y


class TestGoldenTreeModels:
    """sha256 of saved tree-kind model files, and of their labels and scores
    on a fixed probe, as this code produced them. A change to split search,
    RNG draw order, tie-breaking or vote summation shows up here. File pins
    are those of model format 3; the output pins, checked on the trained
    and the loaded model, predate it, except RandomForest's: both of its
    file and output pins are those of the one-stream forest (every tree
    drawn from one rng_from(seed, "forest") Generator)."""

    CASES = [
        ("RandomForest", {"criterion": "gini", "n_estimators": 25},
         "aede05cb7250dee2de4cf3b31d8ce5b7da26fc1c1f6542518e3b4ab8234b2785",
         "8a5bced945b1a2c2cb6003b07412eeee8fdc53085d7b077f49424be0dd35df28"),
        ("RandomForest", {"criterion": "entropy", "n_estimators": 25},
         "498d4f5caefae7caeb23c4043fb172a39d715ae9495f3d50b48a75a513cc6b97",
         "33a5629de7e14dc06be5a1af2e6f5ff1fdc33a0a30c793b32d313ff4e9224fbf"),
        ("DecisionTree", {"criterion": "gini", "max_depth": 4},
         "090cf7b9629b348b70a22ccca9cb0b8fa304ea871f93ea72f938d1ce9c11fab8",
         "db8aac58afd1b3ef47c3f3b43959212b0456a8273f157fc27f763bc45a4f99a3"),
        ("DecisionTree", {"criterion": "entropy", "max_depth": None},
         "46b9ae39b007e0d4ab352bae24b54248721d1f2a9bfc4a98874e82764077181e",
         "9cec7b7bdb6ca728f57dad4b29e57bc523cae3f0f86c697e93c1e8cc0471cc82"),
        ("DecisionTree", {"criterion": "gini", "max_depth": None},
         "df22b4ea3ad122870efd63f1301db3a215437235fd1ce6374d3d7d0769f5d060",
         "431d0bd35d964130eb72f2c1ad6f33aa16b062fa3a3e8f7da5d6a0fbca37383a"),
        ("AdaBoost", {"n_estimators": 12},
         "95e2d86dbcd69f3864fa4e7d65d0d1e58b1e23411f2f2b082664ef38f603867d",
         "def185d513a4e1472ca86151bdffc50983a1c8098b431942b340dffa9a1b0e7e"),
    ]

    @pytest.mark.parametrize("kind,hp,file_sha,output_sha", CASES,
                             ids=[f"{k}-{'-'.join(map(str, hp.values()))}" for k, hp, _, _ in CASES])
    def test_model_file_and_outputs_are_pinned(self, kind, hp, file_sha, output_sha, tmp_path):
        X, y = _golden_data()
        m = _train(kind, hp, X, y, seed=5, names=("a", "b", "c"))
        if kind == "AdaBoost":
            assert len(m.params["alphas"]) >= 3
        path = tmp_path / "model.json"
        save_model(m, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == file_sha
        probe = np.vstack([X, np.random.default_rng(4).standard_normal((40, 8)) * 1.5])
        for model in (m, load_model(str(path))):
            blob = predict_scores(model, probe).tobytes() + predict(model, probe).astype(np.int64).tobytes()
            assert hashlib.sha256(blob).hexdigest() == output_sha


class TestGoldenSolverModels:
    """sha256 of saved SVM, NeuralNet, QDA and AdaBoost model files, and of
    their labels and scores (SVM: decision margins) on a fixed probe, as
    this code produced them. Two classes are the golden data's class 0
    against the rest. Both AdaBoost fits run all 200 rounds; from round 57
    on, the 3-class fit meets split positions whose right-side weight sum
    rounds to 0, which split search skips. File pins are those of model
    format 3; the output pins predate it, except SVM's: all four SVM pins
    are those of the second-order (WSS2) SMO solver, and the file pins and
    the two 3-class output pins those of the shared support-vector block
    (one kernel product sums the machines' terms in another order, so the
    3-class margins moved by at most 4.4e-15, with equal labels). Both QDA
    pins are those of the stored inverse Cholesky factor (``whiten``, one
    product in place of a triangular solve): its scores moved by at most
    3.3e-15 from the solve's, with equal labels."""

    CASES = [
        ("SVM", 2, {"kernel": "linear", "C": 1.0, "gamma": "scale"},
         "577f7ff0a55c3a144acaf7db5aab2743a9fdda71215ac15e7104b7c2227fbdeb",
         "b544a00fd69cc4ec02a8d0cf15bf1ddc791af43f85b950f6be936047e2bf2b33"),
        ("SVM", 2, {"kernel": "rbf", "C": 1.0, "gamma": "scale"},
         "250a82cf06da8a66a4688aea04c16a960707162bfedb294422e6f28d6482d7db",
         "34bb9454dfd8928aeb435b8d896fc8db4490eb0b845679c784895ddc3ace663e"),
        ("SVM", 3, {"kernel": "linear", "C": 0.1, "gamma": "scale"},
         "3cd7e912708b8834149ef5d04dba21c1d426c05828abb8e120145b0de7eb56ff",
         "7d2842c53cebf5d920fbc062f3054eb622487a6d1f2cc2854834e3acc4f601c0"),
        ("SVM", 3, {"kernel": "rbf", "C": 10.0, "gamma": 0.1},
         "57d0993af2f0d4553fc9d147058aa7ffe05eeba0b4f88a16346a2458d5d74a64",
         "1f2c97511c9a018c88aca22b222fa2705370af0eb023ee6172b7fa5ab560599c"),
        ("NeuralNet", 3, {"hidden": 8, "activation": "relu", "solver": "adam"},
         "cc7417c957c71b8af39e873f6f4f03e535a61079314a479a906ad498a803e354",
         "7bf38d3c53078fb07792743393b2f54538fbf8607b33ecfaf1b5b79295b11047"),
        ("NeuralNet", 3, {"hidden": 8, "activation": "relu", "solver": "sgd"},
         "698d93286a0257cfa37bf575664ebe5c6b2ed4cf466e634869c226c5ef4be208",
         "3d9ac4a013b7496b1180eba9f26aec168542d86d16356ecb0232207ad5ce2e04"),
        ("NeuralNet", 3, {"hidden": 8, "activation": "tanh", "solver": "adam"},
         "a17ff45c4bee24d30a255e099790743551c058a1da3fafc028d679290e04dc52",
         "6b754be18c279a7cf62e3b04f460d6094d5857c84cf6f8e72945a312ee3d7090"),
        ("NeuralNet", 3, {"hidden": 8, "activation": "tanh", "solver": "sgd"},
         "0af083ebc61b205aefe0dd8f36266c3c8ae8adaaf0577c6f81515e84e4eb0d70",
         "7a8ddcfd97ead9cc4d6302c87069213bc4b7fcb06dd1da5c8f4757cdaf274bb8"),
        ("QDA", 3, {"reg": 0.1},
         "6277870013d9ae0d01485d9c8e127b4f7302c8bdaf77d49d48054977984019e5",
         "016c6cfde0c366c907686882296240c2c84725cf3e05c33a74e8d63c86973628"),
        ("AdaBoost", 3, {"n_estimators": 200},
         "c3d6eef15ba2c35c91f5b837fb56baa1abf9c7bebb6457c872b533cd74043f26",
         "b2b16134e49c47c48cbcb75ad9d44614447cb2e8d36e8813f5ba2ed8f7453a38"),
        ("AdaBoost", 2, {"n_estimators": 200},
         "79fdad516604c31faf8b2739256945e2aaa6fed729fb11658d76017fddc62b27",
         "036e508c014250b508eeaa3e95247b89d37126a42b3f229ca07e405666c2edf0"),
    ]

    @pytest.mark.parametrize(
        "kind,n_classes,hp,file_sha,output_sha", CASES,
        ids=[f"{k}-{c}cls-{'-'.join(map(str, hp.values()))}" for k, c, hp, _, _ in CASES])
    def test_model_file_and_outputs_are_pinned(self, kind, n_classes, hp, file_sha,
                                               output_sha, tmp_path):
        X, y = _golden_data()
        if n_classes == 2:
            y = (y > 0).astype(int)
        m = _train(kind, hp, X, y, seed=5, names=("a", "b", "c")[:n_classes])
        if kind == "AdaBoost":
            assert len(m.params["alphas"]) == 200
        path = tmp_path / "model.json"
        save_model(m, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == file_sha
        probe = np.vstack([X, np.random.default_rng(4).standard_normal((40, 8)) * 1.5])
        for model in (m, load_model(str(path))):
            blob = predict_scores(model, probe).tobytes() + predict(model, probe).astype(np.int64).tobytes()
            assert hashlib.sha256(blob).hexdigest() == output_sha


class TestGoldenInstanceModels:
    """sha256 of saved KNN and GaussianNB model files (model format 3), and
    of their labels and scores on the probe, recorded before the shared
    state codec. KNN with distance weights meets exact matches: the probe
    holds the training rows."""

    CASES = [
        ("KNN", 3, {"k": 3, "weights": "uniform"},
         "83370542ab55bcdf4dd7e6ec74cdf4d5d5313c412b7184622705efe1b9ad15aa",
         "fe32562ac37c2cb8754282b8d89293fc9251080518d44a89d7f4dc85b15c7e45"),
        ("KNN", 3, {"k": 5, "weights": "distance"},
         "df1d86c5e9a47c3c539624212fec3b691e773028c9cf52626b0446981a0bbed1",
         "0752d657f508df3febacecbd09549f94d9939a3a94a9d3acd0402519900c2932"),
        ("KNN", 2, {"k": 1, "weights": "distance"},
         "d5fccfb849e7915fe885ca9667d3e221ab1f022c0fcd543e63b6118d6e368a9d",
         "5bdee09b709d64abb5aa17f9dae220667be1a9e7fbf8f14332fb022636a385cd"),
        ("GaussianNB", 3, {"var_smoothing": 1e-9},
         "07b414363bf52e7866e136e71915cf0c137730c42070f88b4653213868b63b98",
         "028db630ba6b5461b976b7e79b6db56f0bdaa4cffd9617d04f1f03734fd653dc"),
        ("GaussianNB", 2, {"var_smoothing": 1e-5},
         "9ac324170548f24eeedebba79fd0a6e8bfa00a0233c5bcc4e3e805ed3d62f8e7",
         "c2b50a492b65ad54c4da5844e29673aaf106f739fd8cdedaf1fa4dbd7f06369a"),
    ]

    @pytest.mark.parametrize(
        "kind,n_classes,hp,file_sha,output_sha", CASES,
        ids=[f"{k}-{c}cls-{'-'.join(map(str, hp.values()))}" for k, c, hp, _, _ in CASES])
    def test_model_file_and_outputs_are_pinned(self, kind, n_classes, hp, file_sha,
                                               output_sha, tmp_path):
        X, y = _golden_data()
        if n_classes == 2:
            y = (y > 0).astype(int)
        m = _train(kind, hp, X, y, seed=5, names=("a", "b", "c")[:n_classes])
        path = tmp_path / "model.json"
        save_model(m, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == file_sha
        probe = np.vstack([X, np.random.default_rng(4).standard_normal((40, 8)) * 1.5])
        for model in (m, load_model(str(path))):
            blob = predict_scores(model, probe).tobytes() + predict(model, probe).astype(np.int64).tobytes()
            assert hashlib.sha256(blob).hexdigest() == output_sha


def _assert_same_state(a, b, where="state"):
    """Equal values, and equal dtype kinds for arrays, throughout two states."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype.kind == b.dtype.kind, where
        assert np.array_equal(a, b), where
    elif isinstance(a, NodeTable):
        assert type(b) is type(a), where
        _assert_same_state(vars(a), vars(b), where)
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_same_state(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, (list, tuple)):
        assert type(b) is type(a) and len(a) == len(b), where
        for i, (x, z) in enumerate(zip(a, b)):
            _assert_same_state(x, z, f"{where}[{i}]")
    else:
        assert type(a) is type(b) and a == b, where


class TestKindRegistry:
    ALL = TestPersistence.ALL

    def test_every_kind_is_exercised(self):
        assert sorted(kind for kind, _ in self.ALL) == sorted(KINDS)

    @pytest.mark.parametrize("kind,hp", ALL, ids=[k for k, _ in ALL])
    def test_state_round_trips_with_dtype_kinds(self, kind, hp, tmp_path):
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        m = _train(kind, hp, X, y, seed=2)
        path = str(tmp_path / "model.json")
        save_model(m, path)
        _assert_same_state(m.params, load_model(path).params)

    def test_integer_state_loads_as_integers(self, tmp_path):
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        path = str(tmp_path / "m.json")
        save_model(_train("KNN", {"k": 3, "weights": "uniform"}, X, y), path)
        knn = load_model(path).params
        save_model(_train("DecisionTree", {"criterion": "gini", "max_depth": None}, X, y), path)
        tree = load_model(path).params["tree"]
        assert [a.dtype.kind for a in (knn["train_y"], tree.feature, tree.left, tree.right)] == ["i"] * 4
        # whole-number floats (class weight sums) stay floats
        assert knn["train_x"].dtype.kind == tree.counts.dtype.kind == "f"

    def test_svm_without_support_vectors_loads_empty(self, tmp_path):
        X = np.random.default_rng(8).standard_normal((30, 5))
        bare = _train("SVM", {"kernel": "linear", "C": 1.0, "gamma": "scale"},
                      X, np.zeros(30, dtype=int), names=("only",))
        path = str(tmp_path / "m.json")
        save_model(bare, path)
        back = load_model(path).params
        assert back["sv"].shape == (0, 5) and back["coef"].shape == (1, 0)
        assert np.array_equal(back["b"], bare.params["b"])

    @pytest.mark.parametrize("kind,hp", ALL, ids=[k for k, _ in ALL])
    def test_mdi_exactly_where_the_module_has_raw_importances(self, kind, hp):
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        m = _train(kind, hp, X, y, seed=2)
        if hasattr(_MODULES[kind], "raw_importances"):
            assert mdi_importance(m).values.sum() == pytest.approx(1.0)
        else:
            with pytest.raises(UnsupportedKind):
                mdi_importance(m)

    def test_importance_kinds_are_the_tree_kinds(self):
        with_mdi = {k for k in KINDS if hasattr(_MODULES[k], "raw_importances")}
        assert with_mdi == {"AdaBoost", "DecisionTree", "RandomForest"}


# --- tree engine oracles -------------------------------------------------

def _bf_impurity(counts, criterion):
    total = sum(counts)
    if criterion == "gini":
        return 1.0 - sum((c / total) ** 2 for c in counts)
    return -sum((c / total) * math.log2(c / total) for c in counts if c > 0)


def _bf_counts(y, w, rows, k):
    counts = [0.0] * k
    for r in rows:
        counts[int(y[r])] += float(w[r])
    return counts


def _bf_candidates(X, y, w, rows, k, criterion):
    """(decrease, feature, threshold) of every feature and every boundary
    between distinct values, scored with scalar float math."""
    counts = _bf_counts(y, w, rows, k)
    node_w = sum(counts)
    parent = _bf_impurity(counts, criterion)
    candidates = []
    for f in range(X.shape[1]):
        values = sorted({float(X[r, f]) for r in rows})
        for lo, hi in zip(values, values[1:]):
            thr = lo + 0.5 * (hi - lo)
            if not lo <= thr < hi:
                thr = lo
            lc = _bf_counts(y, w, [r for r in rows if X[r, f] <= thr], k)
            rc = _bf_counts(y, w, [r for r in rows if X[r, f] > thr], k)
            child = (sum(lc) * _bf_impurity(lc, criterion)
                     + sum(rc) * _bf_impurity(rc, criterion)) / node_w
            candidates.append((parent - child, f, thr))
    return candidates


def _near_best(candidates):
    """Splits whose decrease ties the best one up to rounding. Splits that
    tie in exact arithmetic can differ in the last bits, so the engine's
    earliest-position rule cannot be replayed with other float math."""
    top = max(c[0] for c in candidates)
    return top, {(f, thr) for dec, f, thr in candidates if dec >= top - 1e-12}


def _check_brute_force(tree, X, y, w, k, criterion, max_depth=None):
    """Walk the grown tree in pre-order and check every node against the
    brute-force enumeration: class sums, leaf decisions, and a split that is
    among the best ones at a midpoint between distinct values."""
    seen = []

    def visit(node, rows, depth):
        assert node == len(seen)                      # pre-order ids
        seen.append(node)
        counts = _bf_counts(y, w, rows, k)
        assert np.allclose(tree.counts[node], counts, rtol=1e-12, atol=0)
        splittable = (sum(1 for c in counts if c != 0) > 1 and len(rows) >= 2
                      and (max_depth is None or depth < max_depth))
        candidates = _bf_candidates(X, y, w, rows, k, criterion) if splittable else []
        if tree.feature[node] < 0:
            # a leaf: no split beats the 1e-12 floor (up to rounding)
            assert not candidates or _near_best(candidates)[0] <= 2e-12
            return
        top, near = _near_best(candidates)
        f, thr = int(tree.feature[node]), float(tree.threshold[node])
        assert top > 1e-12 and (f, thr) in near
        visit(int(tree.left[node]), [r for r in rows if X[r, f] <= thr], depth + 1)
        visit(int(tree.right[node]), [r for r in rows if X[r, f] > thr], depth + 1)

    assert tree.roots.tolist() == [0]
    visit(0, list(range(len(X))), 0)
    assert len(seen) == len(tree.feature)


def _oracle_data(seed, n=24, k=3):
    """Small data with ties, duplicate rows (conflicting labels) and a
    constant column."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.standard_normal((n, 4)), 1)
    X[:, 2] = np.round(X[:, 2])
    X[:, 3] = 0.7
    X[n - 4:] = X[:4]
    y = rng.integers(0, k, n)
    y[n - 4:n - 2] = (y[:2] + 1) % k
    return X, y


class TestTreeEngineOracle:
    CASES = [(seed, crit, weighted, k) for seed in (0, 1, 2) for crit in ("gini", "entropy")
             for weighted in (False, True) for k in (2, 3)]

    @pytest.mark.parametrize("seed,criterion,weighted,k", CASES)
    def test_root_and_tree_match_brute_force(self, seed, criterion, weighted, k):
        X, y = _oracle_data(seed, k=k)
        w = np.random.default_rng(seed + 50).uniform(0.2, 2.0, len(X)) if weighted else None
        tree = grow_trees(X, y, k, [np.arange(len(X))], criterion=criterion, sample_weight=w)
        bw = np.ones(len(X)) if w is None else w
        top, near = _near_best(_bf_candidates(X, y, bw, list(range(len(X))), k, criterion))
        if len(near) == 1:
            assert near == {(int(tree.feature[0]), float(tree.threshold[0]))}
        _check_brute_force(tree, X, y, bw, k, criterion)

    def test_max_depth_caps_the_brute_force_tree(self):
        X, y = _oracle_data(3)
        tree = grow_trees(X, y, 3, [np.arange(len(X))], criterion="gini", max_depth=2)
        _check_brute_force(tree, X, y, np.ones(len(X)), 3, "gini", max_depth=2)
        assert len(tree.feature) == 7

    def test_constant_candidates_retry_on_all_features(self):
        # only column 1 varies; a one-feature draw of a constant column must
        # fall back to the full search instead of leafing the node
        rng = np.random.default_rng(8)
        X = np.zeros((16, 4))
        X[:, 0], X[:, 2], X[:, 3] = 1.0, -2.0, 0.5
        X[:, 1] = np.round(rng.standard_normal(16), 1)
        y = (X[:, 1] > 0).astype(int)
        # a one-feature draw takes the feature of the smallest of four keys
        seed = next(s for s in range(100) if np.random.default_rng(s).random(4).argmin() != 1)
        tree = grow_trees(X, y, 2, [np.arange(16)], max_features=1,
                          rng=np.random.default_rng(seed))
        assert tree.feature[0] == 1
        _check_brute_force(tree, X, y, np.ones(16), 2, "gini")

    @pytest.mark.parametrize("y,w,threshold", [
        ([0, 0, 1, 1], [0.0, 1.0, 1.0, 1.0], 1.5),      # a zero-weight row alone on the left
        ([0, 0, 1, 1], [1e-300, 1.0, 1.0, 1.0], 1.5),
        ([0, 1, 1, 0], [1.0, 1.0, 1.0, 1e-17], 0.5),    # the right side's sum rounds to 0
    ])
    def test_zero_weight_side_is_no_split(self, y, w, threshold):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        tree = grow_trees(X, np.array(y), 2, [np.arange(4)], sample_weight=np.array(w))
        assert tree.feature[0] == 0
        assert tree.threshold[0] == threshold

    @pytest.mark.parametrize("weighted", [False, True])
    def test_batch_with_no_boundary_finds_no_split(self, weighted):
        # only column 2 varies, and no node is offered it: neither the
        # equal-sized nor the padded batch has a boundary to score
        rng = np.random.default_rng(11)
        X = np.zeros((12, 3))
        X[:, 0], X[:, 1], X[:, 2] = 1.0, -0.5, rng.standard_normal(12)
        y = np.arange(12) % 3
        w = rng.uniform(0.5, 2.0, 12) if weighted else None
        for rows in ([np.arange(12), np.arange(12)[::-1]], [np.arange(12), np.arange(7), np.arange(3, 5)]):
            counts = np.array([np.bincount(y[r], weights=None if w is None else w[r], minlength=3)
                               for r in rows])
            parent_imp = _impurity(counts.T, counts.sum(axis=1), "gini")
            for feats in (np.array([[0, 1]] * len(rows)), np.array([[1]] * len(rows))):
                found = _best_splits(X, y, w, rows, feats, 3, "gini", parent_imp)[0]
                assert found.tolist() == [False] * len(rows)
            assert _best_splits(X, y, w, rows, None, 3, "gini", parent_imp)[0].all()

    def test_class_sums_follow_numpy_order(self):
        # the search adds class slabs in the order numpy's pairwise sum adds
        # a contiguous axis, so its sums equal a per-node sum(axis=-1) bit
        # for bit (sequential below 8 classes, eight running sums above)
        rng = np.random.default_rng(4)
        for k in list(range(1, 20)) + [64, 129, 300]:
            a = rng.random((k, 40)) * 10.0 ** rng.integers(-8, 8, (k, 40))
            assert (_class_sum(a) == np.ascontiguousarray(a.T).sum(axis=-1)).all(), k

    @pytest.mark.parametrize("criterion,weighted", [("gini", False), ("entropy", True)])
    def test_lockstep_equals_one_at_a_time(self, criterion, weighted):
        # with no feature draws, a tree grown in a batch is the tree grown
        # alone; bootstrap samples of different lengths give nodes of mixed
        # sizes in every step, so padding is exercised from the root on
        rng = np.random.default_rng(21)
        X = np.round(rng.standard_normal((60, 9)), 1)
        X[:, 4] = 0.0
        y = rng.integers(0, 3, 60)
        w = rng.uniform(0.1, 3.0, 60) if weighted else None
        T = 9
        sizes = [5, 60, 12, 33, 2, 47, 60, 8, 21]
        samples = [rng.integers(0, 60, size=s) for s in sizes]
        together = grow_trees(X, y, 3, samples, criterion=criterion, sample_weight=w)
        alone = [grow_trees(X, y, 3, [samples[t]], criterion=criterion, sample_weight=w)
                 for t in range(T)]
        assert len({len(b.feature) for b in alone}) > 2
        assert together.roots.tolist() == np.cumsum([0] + [len(b.feature) for b in alone[:-1]]).tolist()
        for t, b in enumerate(alone):
            a = _one_tree(together, t)
            for field in ("feature", "threshold", "left", "right", "counts", "importances"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


def join(parts):
    """One table of ``parts`` (tables) in order, child ids shifted to table
    positions."""
    def cat(name, dtype=None):
        return np.concatenate([getattr(p, name) for p in parts], dtype=dtype)

    roots, left, right = cat("roots", np.int32), cat("left", np.int32), cat("right", np.int32)
    sizes = [len(p.feature) for p in parts]
    starts = np.cumsum([0] + sizes[:-1], dtype=np.int32)
    roots += np.repeat(starts, [len(p.roots) for p in parts])
    shift = np.repeat(starts, sizes)
    left += np.where(left >= 0, shift, 0)
    right += np.where(right >= 0, shift, 0)
    return NodeTable(roots, cat("feature", np.int32), cat("threshold", float), left, right,
                     cat("counts", float), cat("importances"))


def _grow_reference(X, y, k, samples, criterion="gini", max_depth=None, max_features=None,
                    rng=None, sample_weight=None):
    """The bookkeeping reference for ``grow_trees``: one node at a time, one
    ``_best_splits`` search per node, its rows split by boolean masks and its
    class sums added one node at a time. Nodes are visited breadth first over
    all trees, the engine's step order: the roots in tree order, then
    children, left before right, in parent order. Each splittable node draws
    ``rng.random(d)`` in that order, and its candidates are the features of
    its max_features smallest keys. Each tree is then emitted by recursion in
    pre-order, its importances added in that order."""
    d = X.shape[1]
    w = sample_weight
    draw = max_features is not None and max_features < d
    roots = [{"depth": 0, "rows": np.asarray(s, dtype=np.intp)} for s in samples]
    root_weight = [float(len(s)) if w is None else float(w[s].sum()) for s in samples]
    queue = deque(roots)
    while queue:
        node = queue.popleft()
        rows = node["rows"]
        c = np.bincount(y[rows], weights=None if w is None else w[rows], minlength=k)
        node["counts"] = c = c.astype(float)
        weight = node["weight"] = c.sum()
        if ((c != 0).sum() < 2 or not weight > 0 or len(rows) < 2
                or (max_depth is not None and node["depth"] >= max_depth)):
            continue
        parent_imp = _impurity(c[:, None], np.array([weight]), criterion)
        feats = np.sort(np.argsort(rng.random(d))[:max_features])[None] if draw else None
        found, f, lo, hi, decrease = _best_splits(X, y, w, [rows], feats, k, criterion, parent_imp)
        if draw and not found[0]:
            found, f, lo, hi, decrease = _best_splits(X, y, w, [rows], None, k, criterion,
                                                      parent_imp)
        if not found[0]:
            continue
        f, lo, hi = int(f[0]), float(lo[0]), float(hi[0])
        thr = lo + 0.5 * (hi - lo)
        node["split"] = f, (thr if lo <= thr < hi else lo), float(decrease[0])
        go = X[rows, f] <= node["split"][1]
        node["kids"] = [{"depth": node["depth"] + 1, "rows": part} for part in (rows[go], rows[~go])]
        queue.extend(node["kids"])

    tables = []
    for t, root in enumerate(roots):
        feature, threshold, left, right, counts = [], [], [], [], []
        importances = np.zeros((1, d))

        def emit(node):
            at = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            counts.append(node["counts"])
            if "split" in node:
                f, thr, decrease = node["split"]
                feature[at], threshold[at] = f, thr
                importances[0, f] += (node["weight"] / root_weight[t]) * decrease
                left[at] = emit(node["kids"][0])
                right[at] = emit(node["kids"][1])
            return at

        emit(root)
        ids = np.int32
        tables.append(NodeTable(np.zeros(1, ids), np.array(feature, ids), np.array(threshold),
                                np.array(left, ids), np.array(right, ids),
                                np.array(counts).reshape(-1, k), importances))
    return join(tables)


def _growth_case(seed):
    """A random growth problem: bootstrap samples of mixed sizes (an empty
    one now and then), ties, constant columns, 1 to 5 classes, and random
    max_features, max_depth and sample weights."""
    rng = np.random.default_rng(seed)
    n, d, k = int(rng.integers(1, 41)), int(rng.integers(1, 9)), int(rng.integers(1, 6))
    X = np.round(rng.standard_normal((n, d)), 1)
    X[:, rng.random(d) < 0.4] = 0.5                       # locally constant candidates
    y = rng.integers(0, k, n)
    T = int(rng.integers(1, 7))
    samples = [rng.integers(0, n, size=int(rng.integers(0, 2 * n + 1))) for _ in range(T)]
    options = {
        "criterion": ("gini", "entropy")[int(rng.integers(2))],
        "max_depth": None if rng.random() < 0.5 else int(rng.integers(0, 5)),
        "max_features": None if rng.random() < 0.3 else int(rng.integers(1, d + 1)),
        "sample_weight": None if rng.random() < 0.5 else rng.uniform(0.0, 2.0, n),
    }
    return X, y, k, samples, options


class TestGrowthBookkeepingOracle:
    """``grow_trees`` (flat node arrays, many trees and nodes per step)
    against the recursive one-node-at-a-time reference, byte for byte."""

    FIELDS = ("roots", "feature", "threshold", "left", "right", "counts", "importances")

    def _same(self, got, want):
        for field in self.FIELDS:
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.shape == b.shape, field
            assert a.tobytes() == b.tobytes(), field

    def _check(self, X, y, k, samples, **options):
        got = grow_trees(X, y, k, samples, rng=np.random.default_rng(99), **options)
        self._same(got, _grow_reference(X, y, k, samples, rng=np.random.default_rng(99), **options))
        return got

    @pytest.mark.parametrize("seed", range(40))
    def test_random_cases(self, seed):
        X, y, k, samples, options = _growth_case(seed)
        self._check(X, y, k, samples, **options)

    def test_cases_cover_retry_depth_weights_and_empty_samples(self, monkeypatch):
        cases = [_growth_case(seed) for seed in range(40)]
        assert {c[2] for c in cases} == {1, 2, 3, 4, 5}
        assert any(c[4]["max_depth"] is not None for c in cases)
        assert any(c[4]["sample_weight"] is not None for c in cases)
        assert any(len(s) == 0 for c in cases for s in c[3])
        # a node whose drawn columns are all locally constant is searched
        # again on every column: a search without feats while drawing
        retried = []
        search = tree._best_splits
        monkeypatch.setattr(tree, "_best_splits",
                            lambda *a: retried.append(a[4] is None) or search(*a))
        for X, y, k, samples, options in cases:
            if options["max_features"] is not None and options["max_features"] < X.shape[1]:
                grow_trees(X, y, k, samples, rng=np.random.default_rng(99), **options)
        assert any(retried)

    def test_two_hundred_row_forest(self):
        rng = np.random.default_rng(200)
        X = np.round(rng.standard_normal((200, 20)), 2)
        y = rng.integers(0, 4, 200)
        samples = [rng.integers(0, 200, size=200) for _ in range(25)]
        table = self._check(X, y, 4, samples, criterion="entropy", max_features=4)
        assert len(table.feature) > 25 * 20

    @pytest.mark.parametrize("seed,criterion", [(0, "gini"), (1, "entropy"), (2, "gini")])
    def test_forest_fit_draws_from_one_stream(self, seed, criterion):
        # the stream contract of a forest fit: one Generator from
        # rng_from(seed, "forest"), all bootstrap samples in one call, then
        # the node keys of every step
        rng = np.random.default_rng(300 + seed)
        n, d, k, T = 40, 17, 3, 12
        X = np.round(rng.standard_normal((n, d)), 1)
        y = rng.integers(0, k, n)
        params, _ = forest.fit(X, y, k, {"criterion": criterion, "n_estimators": T}, seed)
        stream = rng_from(seed, "forest")
        samples = stream.integers(0, n, size=(T, n))
        want = _grow_reference(X, y, k, list(samples), criterion=criterion, max_features=4,
                               rng=stream)
        self._same(params["trees"], want)


def _boost_by_grow_trees(X, y, k, n_estimators):
    """The reference SAMME: each round grows its stump with ``grow_trees`` on
    all rows and predicts by walking that one-tree table; the round tables
    are joined at the end."""
    n = len(X)
    w = np.full(n, 1.0 / n)
    stumps, alphas = [], []
    for _ in range(n_estimators):
        stump = grow_trees(X, y, n_classes=k, samples=[np.arange(n)], criterion="gini",
                           max_depth=1, sample_weight=w)
        miss = stump.labels(X)[:, 0] != y
        err = float(w[miss].sum())
        if err <= 0.0:
            stumps.append(stump)
            alphas.append(boost.ALPHA_PERFECT + np.log(max(k - 1, 1)))
            break
        alpha = boost.LEARNING_RATE * (np.log((1.0 - err) / err) + np.log(max(k - 1, 1)))
        if alpha <= 0.0:
            if not stumps:
                stumps.append(stump)
                alphas.append(0.0)
            break
        stumps.append(stump)
        alphas.append(float(alpha))
        w = w * np.exp(alpha * miss)
        w = w / w.sum()
    return join(stumps), np.asarray(alphas, dtype=float)


class TestStumpOracle:
    """``boost.fit`` (rows sorted once per fit, one table at the end) against
    the per-round ``grow_trees`` replay, array for array."""

    def _check(self, X, y, k, n_estimators):
        state, converged = boost.fit(X, y, k, {"n_estimators": n_estimators}, seed=0)
        table, alphas = _boost_by_grow_trees(X, y, k, n_estimators)
        assert converged is True
        assert state["alphas"].dtype == alphas.dtype
        assert state["alphas"].tobytes() == alphas.tobytes()
        for field in ("roots", "feature", "threshold", "left", "right", "counts", "importances"):
            got, want = getattr(state["stumps"], field), getattr(table, field)
            assert got.dtype == want.dtype and got.shape == want.shape, field
            assert got.tobytes() == want.tobytes(), field
        return state

    @pytest.mark.parametrize("k", [2, 5])
    def test_random_data(self, k):
        rng = np.random.default_rng(40 + k)
        X = rng.standard_normal((30, 7))
        y = rng.integers(0, k, 30)
        state = self._check(X, y, k, 60)
        assert len(state["alphas"]) > 5

    def test_duplicate_values(self):
        X, y = _oracle_data(5, n=28, k=3)
        state = self._check(X, y, 3, 80)
        assert len(state["alphas"]) > 5

    @pytest.mark.parametrize("y,k", [([0], 1), ([1], 2)])
    def test_single_row(self, y, k):
        state = self._check(np.array([[0.3, -1.0]]), np.array(y), k, 10)
        assert state["stumps"].feature.tolist() == [-1]

    def test_single_class(self):
        X = np.random.default_rng(3).standard_normal((12, 4))
        state = self._check(X, np.zeros(12, dtype=int), 1, 10)
        assert state["stumps"].feature.tolist() == [-1]

    def test_constant_features_never_split(self):
        X = np.full((10, 3), 1.5)
        y = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 2])
        state = self._check(X, y, 3, 20)
        assert (state["stumps"].feature == -1).all()
        assert state["stumps"].roots.tolist() == list(range(len(state["alphas"])))

    def test_golden_three_class_past_zero_weight_sides(self):
        # as in the golden pins: from round 57 on, split positions whose
        # right-side weight sum rounds to 0 are skipped
        X, y = _golden_data()
        state = self._check(fit_standardizer(X).transform(X), y, 3, 200)
        assert len(state["alphas"]) == 200
        assert len(state["stumps"].feature) == 600


def _one_tree(table, t):
    """Tree ``t`` of ``table`` as a one-tree table, ids made its own."""
    start = table.roots[t]
    end = table.roots[t + 1] if t + 1 < len(table.roots) else len(table.feature)
    local = {name: np.where(getattr(table, name)[start:end] >= 0,
                            getattr(table, name)[start:end] - start, -1).astype(np.int32)
             for name in ("left", "right")}
    return NodeTable(roots=np.zeros(1, dtype=np.int32), feature=table.feature[start:end],
                     threshold=table.threshold[start:end], counts=table.counts[start:end],
                     importances=table.importances[t:t + 1], **local)


def _walk(table, root, x):
    """Table id of the leaf ``x`` reaches from ``root``, one node at a time."""
    node = root
    while table.feature[node] >= 0:
        node = table.left[node] if x[table.feature[node]] <= table.threshold[node] else table.right[node]
    return node


class TestNodeTablePredict:
    """The one-table walk against a per-tree, per-row reference walk."""

    def _fit(self, kind, hp):
        X, y = _golden_data()
        m = _train(kind, hp, X, y, seed=5, names=("a", "b", "c"))
        probe = np.vstack([X, np.random.default_rng(6).standard_normal((30, 8)) * 2.0])
        return m, probe, m.standardizer.transform(probe)

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_forest_votes(self, criterion):
        m, probe, Xs = self._fit("RandomForest", {"criterion": criterion, "n_estimators": 15})
        votes = np.zeros((len(Xs), 3))
        for i, x in enumerate(Xs):
            table = m.params["trees"]
            for root in table.roots:
                votes[i, int(np.argmax(table.counts[_walk(table, root, x)]))] += 1.0
        assert (predict(m, probe) == m.classes[np.argmax(votes, axis=1)]).all()
        assert (predict_scores(m, probe) == votes / votes.sum(axis=1, keepdims=True)).all()

    def test_decision_tree_leaf_fractions(self):
        m, probe, Xs = self._fit("DecisionTree", {"criterion": "gini", "max_depth": None})
        tree = m.params["tree"]
        counts = np.array([tree.counts[_walk(tree, 0, x)] for x in Xs])
        assert (predict(m, probe) == m.classes[np.argmax(counts, axis=1)]).all()
        assert (predict_scores(m, probe) == counts / counts.sum(axis=1, keepdims=True)).all()

    def test_first_stumps_are_the_fit_of_fewer_rounds(self):
        m, probe, Xs = self._fit("AdaBoost", {"n_estimators": 40})
        stumps = m.params["stumps"]
        assert len(stumps.roots) == 40
        for n in (1, 2, 9, 39, 40):
            alone = self._fit("AdaBoost", {"n_estimators": n})[0].params["stumps"]
            first = stumps.first(n)
            for field in ("roots", "feature", "threshold", "left", "right", "counts", "importances"):
                assert getattr(first, field).tobytes() == getattr(alone, field).tobytes(), field
            assert first.depth == alone.depth == 1
            assert np.array_equal(first.labels(Xs), alone.labels(Xs))
        assert stumps.first(40) is stumps.first(41) is stumps

    def test_adaboost_alphas_in_stump_order(self):
        # past 8 stumps, numpy's pairwise sum would add them in another order
        m, probe, Xs = self._fit("AdaBoost", {"n_estimators": 40})
        assert len(m.params["alphas"]) == 40
        scores = np.zeros((len(Xs), 3))
        for i, x in enumerate(Xs):
            stumps = m.params["stumps"]
            for root, alpha in zip(stumps.roots, m.params["alphas"]):
                scores[i, int(np.argmax(stumps.counts[_walk(stumps, root, x)]))] += alpha
        scores = scores / scores.sum(axis=1, keepdims=True)
        assert (predict(m, probe) == m.classes[np.argmax(scores, axis=1)]).all()
        assert (predict_scores(m, probe) == scores).all()
