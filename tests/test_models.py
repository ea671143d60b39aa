"""Classifier oracles and persistence round trips for all eight kinds.

Closed-form oracles are recomputed with scalar math inside the tests so
each implementation is checked against an independent derivation, not
against itself.
"""
import hashlib
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
from batteryauth.models.tree import _class_sum, grow_trees

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
