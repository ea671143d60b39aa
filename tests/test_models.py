"""Classifier oracles and persistence round trips for all eight kinds.

Closed-form oracles are recomputed with scalar math inside the tests so
each implementation is checked against an independent derivation, not
against itself.
"""
import hashlib
import json
import math

import numpy as np
import pytest

from batteryauth.errors import (
    ConfigError,
    DimensionMismatch,
    FormatVersionMismatch,
    NonFiniteValue,
    SingularCovariance,
    UnsupportedKind,
)
from batteryauth.models import (
    DEFAULT_GRIDS,
    KINDS,
    TrainedModel,
    decision_margins,
    enumerate_grid,
    fit_standardizer,
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
from batteryauth.models.base import _MODULES, derived_model
from batteryauth.models.neighbors import squared_distances
from batteryauth.models.persist import _write_json
from batteryauth.models.tree import NodeTable, Tree, _class_sum, grow_trees

CATALOG = "v1:ch1"


def _train(kind, hp, X, y, seed=0, names=None, task="identification", mask=None):
    names = names or tuple(f"c{i}" for i in range(int(np.max(y)) + 1))
    return train(
        make_spec(kind, seed=seed), hp, np.asarray(X, float), np.asarray(y),
        mask=mask, catalog_version=CATALOG, class_names=names, seed=seed, task=task,
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

    def test_bad_grid_dimension(self):
        with pytest.raises(ConfigError):
            make_spec("KNN", grid={"neighbors": [3]})

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
        depth = full.params["table"].depth
        assert depth >= 4
        for max_depth in range(1, depth + 2):
            hp = {"criterion": criterion, "max_depth": max_depth}
            alone = _train("DecisionTree", hp, X, y)
            cut = derived_model(full, hp)
            assert cut.hyperparams == hp
            assert cut.params["table"].depth == alone.params["table"].depth == min(max_depth, depth)
            assert np.array_equal(predict(cut, probe), predict(alone, probe))
            assert np.array_equal(predict_scores(cut, probe), predict_scores(alone, probe))
        assert derived_model(full, {"criterion": criterion, "max_depth": None}) is full


class TestRandomForest:
    def test_single_tree_no_bootstrap_equals_tree(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 1))
        y = (X[:, 0] > 0.2).astype(int)
        hp_rf = {"criterion": "gini", "n_estimators": 1, "bootstrap": False}
        rf = _train("RandomForest", hp_rf, X, y, seed=3)
        dt = _train("DecisionTree", {"criterion": "gini", "max_depth": None}, X, y, seed=3)
        probe = rng.standard_normal((300, 1))
        assert np.array_equal(predict(rf, probe), predict(dt, probe))

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


class TestSvm:
    def test_linear_separable_perfect(self):
        X, y = _blobs(n_per=20)
        m = _train("SVM", {"kernel": "linear", "C": 1.0, "gamma": "scale"}, X, y)
        assert (predict(m, X) == y).all()
        assert predict_scores(m, X) is None

    def test_binary_margins_mirror(self):
        X, y = _blobs(n_per=12)
        m = _train("SVM", {"kernel": "linear", "C": 1.0, "gamma": "scale"}, X, y)
        dv = decision_margins(m, X)
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
        assert decision_margins(m, X).shape == (45, 3)
        assert (predict(m, X) == y).mean() >= 0.95


class TestSingleClass:
    @pytest.mark.parametrize("kind", KINDS)
    def test_trains_on_one_label_and_predicts_it(self, kind):
        X, _ = _blobs(n_per=10)
        y = np.full(len(X), 3)
        hp = enumerate_grid(make_spec(kind))[0]
        m = train(make_spec(kind), hp, X, y, catalog_version=CATALOG, class_names=("only",))
        assert list(m.classes) == [3]
        assert (predict(m, X) == 3).all()
        scores = predict_scores(m, X)
        if scores is not None:
            assert scores.shape == (len(X), 1)

    def test_svm_one_class_margins_have_one_column(self):
        X, _ = _blobs(n_per=10)
        m = _train("SVM", {"kernel": "linear", "C": 1.0, "gamma": "scale"}, X, np.zeros(len(X), int))
        assert decision_margins(m, X).shape == (len(X), 1)


class TestTrainValidation:
    def test_misaligned_rows(self):
        with pytest.raises(DimensionMismatch):
            _train("DecisionTree", {"criterion": "gini", "max_depth": None},
                   np.zeros((3, 2)), np.array([0, 1]))

    def test_one_dimensional_matrix(self):
        with pytest.raises(DimensionMismatch):
            train(make_spec("KNN"), {"k": 1, "weights": "uniform"},
                  np.zeros(4), np.array([0, 0, 1, 1]))

    def test_non_finite_rejected(self):
        X = np.array([[0.0], [np.nan]])
        with pytest.raises(NonFiniteValue):
            _train("DecisionTree", {"criterion": "gini", "max_depth": None}, X, np.array([0, 1]))


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
            "mask", "parameters", "seed", "catalog_version",
        }
        assert set(env["parameters"]) == {"classes", "class_names", "task", "converged", "state"}
        assert env["format_version"] == "1"

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

    def test_unknown_format_version(self):
        X, y = _blobs(n_per=8)
        env = model_to_json_dict(_train("GaussianNB", {"var_smoothing": 1e-9}, X, y))
        env["format_version"] = "99"
        with pytest.raises(FormatVersionMismatch):
            model_from_json_dict(env)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatVersionMismatch):
            load_model(str(path))

    @pytest.mark.parametrize("kind,hp", ALL, ids=[k for k, _ in ALL])
    def test_streamed_file_equals_json_dump(self, kind, hp, tmp_path):
        X, y = _blobs(n_per=15, centers=(0.0, 2.5, 5.0))
        self._assert_json_dump_bytes(_train(kind, hp, X, y, seed=2), tmp_path)

    def test_streamed_file_equals_json_dump_masked_and_no_support_vectors(self, tmp_path):
        rng = np.random.default_rng(8)
        X_full = rng.standard_normal((30, 5))
        mask = np.array([True, False, True, True, False])
        y = (X_full[:, 0] > 0).astype(int)
        masked = _train("RandomForest", {"criterion": "gini", "n_estimators": 3},
                        X_full[:, mask], y, mask=mask)
        self._assert_json_dump_bytes(masked, tmp_path)
        # one class: every SMO pair has an empty box, so no alpha moves
        bare = _train("SVM", {"kernel": "linear", "C": 1.0, "gamma": "scale"},
                      X_full, np.zeros(30, dtype=int), names=("only",))
        assert len(bare.params["machines"][0]["sv"]) == 0
        self._assert_json_dump_bytes(bare, tmp_path)

    @staticmethod
    def _assert_json_dump_bytes(model, tmp_path):
        path = tmp_path / "streamed.json"
        save_model(model, str(path))
        with open(tmp_path / "dumped.json", "w", encoding="utf-8") as fh:
            json.dump(model_to_json_dict(model), fh, sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == (tmp_path / "dumped.json").read_bytes()

    def test_writer_matches_json_on_odd_values(self):
        doc = {
            "z": [[], [[]], [{}], {}, [1, [2.5, "x"]], [[1, 2], 3]],
            "a": {"nested": {"b": [{"k": (1, 2)}], "a": ()}, "s": "\u00e9\u2603\n\"",
                  "f": [float("nan"), float("inf"), -0.0]},
            # keys of one type each: json sorts keys before it converts them
            "k": [{3: "x", 1: [[2]]}, {1.5: None, -0.5: [[]]}, {True: [[1]], False: 0},
                  {None: [[None]]}],
            "m": (("t", 1), [2**70, -1e-310, 1e300]),
        }
        pieces = []
        _write_json(doc, pieces.append)
        assert "".join(pieces) == json.dumps(doc, sort_keys=True)

    def test_interrupted_write_keeps_old_file(self, tmp_path):
        X, y = _blobs(n_per=10)
        m = _train("NeuralNet", {"hidden": 4, "activation": "tanh", "solver": "adam"}, X, y)
        path = tmp_path / "model.json"
        save_model(m, str(path))
        before = path.read_bytes()
        # sorted first in the state, so the envelope is half written when it fails
        m.params["activation"] = object()
        with pytest.raises(TypeError):
            save_model(m, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        assert load_model(str(path)).params["activation"] == "tanh"


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
    RNG draw order, tie-breaking or vote summation shows up here."""

    CASES = [
        ("RandomForest", {"criterion": "gini", "n_estimators": 25},
         "ac22565b19d5d8dd91d427379b888bb8a8023bf6bb3df7826664a54841d5ca92",
         "a94bb8b8c74e266dc6c43bc3be49d2d25389be850f9963b9672721b4deb5e384"),
        ("RandomForest", {"criterion": "entropy", "n_estimators": 25},
         "ef5431668a378008c9929c31ed4668f2bb1c03f6ad04f5886d3a124debee6da7",
         "12b3970783df1391b89df5571f1c6e2398aac74d530f221ef4ad367d0ed2c7b0"),
        ("DecisionTree", {"criterion": "gini", "max_depth": 4},
         "0d93c1420dab1e79237e66177702ce5d0c87f6dd43582bcdec6af2e33cad282f",
         "db8aac58afd1b3ef47c3f3b43959212b0456a8273f157fc27f763bc45a4f99a3"),
        ("DecisionTree", {"criterion": "entropy", "max_depth": None},
         "cfa4f4cb87d52e44017a18532cd9e37372f37f08b80c7ee0714d1abedc84d3d0",
         "9cec7b7bdb6ca728f57dad4b29e57bc523cae3f0f86c697e93c1e8cc0471cc82"),
        ("DecisionTree", {"criterion": "gini", "max_depth": None},
         "bf8111745b581829abf8484edd9831245150ae6fef744a9dc7340f91e81c63b1",
         "431d0bd35d964130eb72f2c1ad6f33aa16b062fa3a3e8f7da5d6a0fbca37383a"),
        ("AdaBoost", {"n_estimators": 12},
         "316909f3770f5c5aaa6bd860eb50902c2aac9316b5d32f10c4c6ee3d4b2e80a0",
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
    rounds to 0, which split search skips."""

    CASES = [
        ("SVM", 2, {"kernel": "linear", "C": 1.0, "gamma": "scale"},
         "61f103ed5a737915779130812d216b65ae1bb845b9330637c9fb0c4904435f41",
         "d9563fde08337aebd417088fabb1e69b45f8cb1482cf6e8ff1d7ef4cbf1b702f"),
        ("SVM", 2, {"kernel": "rbf", "C": 1.0, "gamma": "scale"},
         "ce67169fa4d91ef65d55a2aafbe14b98f1a1cd2c77008d58e8dd99291ce84f16",
         "d63131e99cdc4f763675f122e98ed45e0244261a40f95a93e26f66b3a3806540"),
        ("SVM", 3, {"kernel": "linear", "C": 0.1, "gamma": "scale"},
         "276b6a69879981ec9ed457c29d1d8da3741fb5a5b9139d8b606743aa724cfe4d",
         "bcd30ebdbc02fd89059059ea3b3e3c162d2b39bc64472b7496881170e95a0474"),
        ("SVM", 3, {"kernel": "rbf", "C": 10.0, "gamma": 0.1},
         "c6709a8e83cba056616e5b9a2ef1081102bf4cf5b43333970382906b8b08aa29",
         "dcef466743826253d093fa2c2c4b312dee5121c53c6b77f2958c5e90a194a15c"),
        ("NeuralNet", 3, {"hidden": 8, "activation": "relu", "solver": "adam"},
         "688a836d4d28559cf768ae439c20a486136348241031406eba31fca8cc818583",
         "7bf38d3c53078fb07792743393b2f54538fbf8607b33ecfaf1b5b79295b11047"),
        ("NeuralNet", 3, {"hidden": 8, "activation": "relu", "solver": "sgd"},
         "f8f3ceee756bf6d403332dd2a8fe12ff5cf3707ddc0c7db44161c563eaec2ca0",
         "3d9ac4a013b7496b1180eba9f26aec168542d86d16356ecb0232207ad5ce2e04"),
        ("NeuralNet", 3, {"hidden": 8, "activation": "tanh", "solver": "adam"},
         "dcc38379781250bd806ec145feefdd06318d80b107cbf77d888957a50a92266c",
         "6b754be18c279a7cf62e3b04f460d6094d5857c84cf6f8e72945a312ee3d7090"),
        ("NeuralNet", 3, {"hidden": 8, "activation": "tanh", "solver": "sgd"},
         "854710a6a0a9f19aacd28dd4f8fd5993a039ab5fbbcaa3861f59ce16c5d250ff",
         "7a8ddcfd97ead9cc4d6302c87069213bc4b7fcb06dd1da5c8f4757cdaf274bb8"),
        ("QDA", 3, {"reg": 0.1},
         "a31e04cbd1bdf50a61a192c73897219c3a299e4faec703b0ae8f22e3fc12247d",
         "470e41b631c9dcba0760f4f9ea3a0728bfb2c59ebb83eb1d958af8deecda6d9e"),
        ("AdaBoost", 3, {"n_estimators": 200},
         "774f9184fd0f2e4a7c08b9fdd83fdcfa0a1bdd51e460a5f4d38eaffcaffe5ae8",
         "b2b16134e49c47c48cbcb75ad9d44614447cb2e8d36e8813f5ba2ed8f7453a38"),
        ("AdaBoost", 2, {"n_estimators": 200},
         "84f7bfa2590c489ebe95a98e7c71edeb6632dadb50293191b2c896be79ab2b70",
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
            scores = decision_margins(model, probe) if kind == "SVM" else predict_scores(model, probe)
            blob = scores.tobytes() + predict(model, probe).astype(np.int64).tobytes()
            assert hashlib.sha256(blob).hexdigest() == output_sha


class TestGoldenInstanceModels:
    """sha256 of saved KNN and GaussianNB model files, and of their labels
    and scores on the probe, recorded before the shared state codec. KNN
    with distance weights meets exact matches: the probe holds the
    training rows."""

    CASES = [
        ("KNN", 3, {"k": 3, "weights": "uniform"},
         "5784297192831515f7a73d822942930a85a283966804afc2f438f0f73a0f955b",
         "fe32562ac37c2cb8754282b8d89293fc9251080518d44a89d7f4dc85b15c7e45"),
        ("KNN", 3, {"k": 5, "weights": "distance"},
         "51e1fdd688b4d581bc825a16aeabce769d3a12015f028d186c3a5778ddc0bfa7",
         "0752d657f508df3febacecbd09549f94d9939a3a94a9d3acd0402519900c2932"),
        ("KNN", 2, {"k": 1, "weights": "distance"},
         "3d07eafc8f610fb7d43fe4b7bc14962a8e07421f1eb9b963df996fab9934673f",
         "5bdee09b709d64abb5aa17f9dae220667be1a9e7fbf8f14332fb022636a385cd"),
        ("GaussianNB", 3, {"var_smoothing": 1e-9},
         "0834f91708329f17e4b2eadbf9f23f21da13914619faa2fda254b944e02e49db",
         "028db630ba6b5461b976b7e79b6db56f0bdaa4cffd9617d04f1f03734fd653dc"),
        ("GaussianNB", 2, {"var_smoothing": 1e-5},
         "0726aab30811b448099d26df121143e8b03af2a2502e9b61ef9b1f68517b5ad1",
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
    elif isinstance(a, (Tree, NodeTable)):
        assert type(b) is type(a), where
        _assert_same_state(vars(a), vars(b), where)
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_same_state(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), where
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
        machine = load_model(path).params["machines"][0]
        assert len(machine["sv"]) == len(machine["coef"]) == 0
        assert machine["b"] == bare.params["machines"][0]["b"]

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

    visit(0, list(range(len(X))), 0)
    assert len(seen) == tree.n_nodes


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
        (tree,) = grow_trees(X, y, k, [np.arange(len(X))], criterion=criterion, sample_weight=w)
        bw = np.ones(len(X)) if w is None else w
        top, near = _near_best(_bf_candidates(X, y, bw, list(range(len(X))), k, criterion))
        if len(near) == 1:
            assert near == {(int(tree.feature[0]), float(tree.threshold[0]))}
        _check_brute_force(tree, X, y, bw, k, criterion)

    def test_max_depth_caps_the_brute_force_tree(self):
        X, y = _oracle_data(3)
        (tree,) = grow_trees(X, y, 3, [np.arange(len(X))], criterion="gini", max_depth=2)
        _check_brute_force(tree, X, y, np.ones(len(X)), 3, "gini", max_depth=2)
        assert tree.n_nodes == 7

    def test_constant_candidates_retry_on_all_features(self):
        # only column 1 varies; a one-feature draw of a constant column must
        # fall back to the full search instead of leafing the node
        rng = np.random.default_rng(8)
        X = np.zeros((16, 4))
        X[:, 0], X[:, 2], X[:, 3] = 1.0, -2.0, 0.5
        X[:, 1] = np.round(rng.standard_normal(16), 1)
        y = (X[:, 1] > 0).astype(int)
        seed = next(s for s in range(100)
                    if np.random.default_rng(s).choice(4, size=1, replace=False)[0] != 1)
        (tree,) = grow_trees(X, y, 2, [np.arange(16)], max_features=1,
                             rngs=[np.random.default_rng(seed)])
        assert tree.feature[0] == 1
        _check_brute_force(tree, X, y, np.ones(16), 2, "gini")

    @pytest.mark.parametrize("y,w,threshold", [
        ([0, 0, 1, 1], [0.0, 1.0, 1.0, 1.0], 1.5),      # a zero-weight row alone on the left
        ([0, 0, 1, 1], [1e-300, 1.0, 1.0, 1.0], 1.5),
        ([0, 1, 1, 0], [1.0, 1.0, 1.0, 1e-17], 0.5),    # the right side's sum rounds to 0
    ])
    def test_zero_weight_side_is_no_split(self, y, w, threshold):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        (tree,) = grow_trees(X, np.array(y), 2, [np.arange(4)], sample_weight=np.array(w))
        assert tree.feature[0] == 0
        assert tree.threshold[0] == threshold

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
        # bootstrap samples of different lengths give nodes of mixed sizes in
        # every step, so padding is exercised from the root on
        rng = np.random.default_rng(21)
        X = np.round(rng.standard_normal((60, 9)), 1)
        X[:, 4] = 0.0
        y = rng.integers(0, 3, 60)
        w = rng.uniform(0.1, 3.0, 60) if weighted else None
        T = 9

        def streams():
            return [np.random.default_rng([77, t]) for t in range(T)]

        sizes = [5, 60, 12, 33, 2, 47, 60, 8, 21]
        samples = [r.integers(0, 60, size=s) for r, s in zip(streams(), sizes)]
        rngs = streams()
        for r, s in zip(rngs, sizes):
            r.integers(0, 60, size=s)                    # same stream position
        together = grow_trees(X, y, 3, samples, criterion=criterion, max_features=3,
                              rngs=rngs, sample_weight=w)
        rngs = streams()
        for r, s in zip(rngs, sizes):
            r.integers(0, 60, size=s)
        alone = [grow_trees(X, y, 3, [samples[t]], criterion=criterion, max_features=3,
                            rngs=[rngs[t]], sample_weight=w)[0] for t in range(T)]
        assert len({t.n_nodes for t in together}) > 2
        for a, b in zip(together, alone):
            for field in ("feature", "threshold", "left", "right", "counts", "importances"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


def _walk(tree, x):
    node = 0
    while tree.feature[node] >= 0:
        node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
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
            for tree in m.params["trees"]:
                votes[i, int(np.argmax(tree.counts[_walk(tree, x)]))] += 1.0
        assert (predict(m, probe) == m.classes[np.argmax(votes, axis=1)]).all()
        assert (predict_scores(m, probe) == votes / votes.sum(axis=1, keepdims=True)).all()

    def test_decision_tree_leaf_fractions(self):
        m, probe, Xs = self._fit("DecisionTree", {"criterion": "gini", "max_depth": None})
        tree = m.params["tree"]
        counts = np.array([tree.counts[_walk(tree, x)] for x in Xs])
        assert (predict(m, probe) == m.classes[np.argmax(counts, axis=1)]).all()
        assert (predict_scores(m, probe) == counts / counts.sum(axis=1, keepdims=True)).all()

    def test_adaboost_alphas_in_stump_order(self):
        # past 8 stumps, numpy's pairwise sum would add them in another order
        m, probe, Xs = self._fit("AdaBoost", {"n_estimators": 40})
        assert len(m.params["alphas"]) == 40
        scores = np.zeros((len(Xs), 3))
        for i, x in enumerate(Xs):
            for stump, alpha in zip(m.params["stumps"], m.params["alphas"]):
                scores[i, int(np.argmax(stump.counts[_walk(stump, x)]))] += alpha
        scores = scores / scores.sum(axis=1, keepdims=True)
        assert (predict(m, probe) == m.classes[np.argmax(scores, axis=1)]).all()
        assert (predict_scores(m, probe) == scores).all()
