"""Classifier oracles and persistence round trips for all eight kinds.

Closed-form oracles are recomputed with scalar math inside the tests so
each implementation is checked against an independent derivation, not
against itself.
"""
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
from batteryauth.models.neighbors import squared_distances

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
