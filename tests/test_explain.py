"""Feature attribution: impurity weights and permutation drops."""
from dataclasses import replace

import numpy as np
import pytest

from batteryauth.errors import BadInterval, DimensionMismatch, EmptyDataset, UnsupportedKind
from batteryauth.explain import ImportanceResult, mdi_importance, permutation_importance
from batteryauth.models import make_spec, train


def _fit(kind, hp, X, y, seed=0):
    return replace(train(make_spec(kind, seed=seed), hp, X, y, seed=seed), catalog_version="v1:ch1",
                   class_names=("n", "p"))


@pytest.fixture(scope="module")
def one_signal_data():
    """Five columns, only column 3 carries the label."""
    rng = np.random.default_rng(4)
    X = rng.standard_normal((120, 5))
    y = (X[:, 3] > 0).astype(int)
    return X, y


class TestMdi:
    def test_weights_sum_to_one_and_are_nonnegative(self, one_signal_data):
        X, y = one_signal_data
        m = _fit("RandomForest", {"criterion": "gini", "n_estimators": 12}, X, y)
        imp = mdi_importance(m)
        assert imp.method == "mdi"
        assert imp.values.sum() == pytest.approx(1.0)
        assert (imp.values >= 0).all()

    def test_informative_column_dominates(self, one_signal_data):
        X, y = one_signal_data
        m = _fit("RandomForest", {"criterion": "gini", "n_estimators": 12}, X, y)
        imp = mdi_importance(m)
        assert imp.values.argmax() == 3
        # per-split feature subsampling forces some weight onto noise
        # columns, so dominance is strong but not total
        assert imp.values[3] > 0.5
        assert imp.values[3] > 3 * np.delete(imp.values, 3).max()

    @pytest.mark.parametrize("kind,hp", [
        ("DecisionTree", {"criterion": "gini", "max_depth": None}),
        ("AdaBoost", {"n_estimators": 10}),
    ])
    def test_other_tree_kinds_supported(self, kind, hp, one_signal_data):
        X, y = one_signal_data
        imp = mdi_importance(_fit(kind, hp, X, y))
        assert imp.values.argmax() == 3

    def test_non_tree_kind_rejected(self, one_signal_data):
        X, y = one_signal_data
        m = _fit("GaussianNB", {"var_smoothing": 1e-9}, X, y)
        with pytest.raises(UnsupportedKind):
            mdi_importance(m)

    def test_splitless_model_falls_back_to_uniform(self):
        # single-class data grows a bare root everywhere: no split statistics
        X = np.random.default_rng(0).standard_normal((10, 4))
        y = np.zeros(10, dtype=int)
        m = replace(train(make_spec("DecisionTree"), {"criterion": "gini", "max_depth": None}, X, y),
                    class_names=("only",))
        imp = mdi_importance(m)
        assert np.allclose(imp.values, 0.25)


class TestPermutation:
    def test_signal_column_has_largest_drop(self, one_signal_data):
        X, y = one_signal_data
        m = _fit("KNN", {"k": 5, "weights": "uniform"}, X, y)
        imp = permutation_importance(m, X, y, repeats=5, seed=0)
        assert imp.method == "permutation"
        assert imp.values.argmax() == 3
        assert imp.values[3] > 0.2
        assert imp.baseline_score > 0.9
        # noise columns sit near zero either side
        assert np.abs(np.delete(imp.values, 3)).max() < 0.15

    def test_works_on_non_tree_kinds(self, one_signal_data):
        X, y = one_signal_data
        m = _fit("SVM", {"kernel": "linear", "C": 1.0, "gamma": "scale"}, X, y)
        imp = permutation_importance(m, X, y, repeats=3, seed=1)
        assert imp.values.argmax() == 3

    def test_deterministic_for_fixed_seed(self, one_signal_data):
        X, y = one_signal_data
        m = _fit("KNN", {"k": 5, "weights": "uniform"}, X, y)
        a = permutation_importance(m, X, y, repeats=3, seed=7)
        b = permutation_importance(m, X, y, repeats=3, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_width_mismatch(self, one_signal_data):
        X, y = one_signal_data
        m = _fit("KNN", {"k": 5, "weights": "uniform"}, X, y)
        with pytest.raises(DimensionMismatch):
            permutation_importance(m, X[:, :4], y)

    def test_repeats_validated(self, one_signal_data):
        X, y = one_signal_data
        m = _fit("KNN", {"k": 5, "weights": "uniform"}, X, y)
        with pytest.raises(BadInterval, match="repeats must be >= 1"):
            permutation_importance(m, X, y, repeats=0)

    def test_zero_rows_raise(self, one_signal_data):
        X, y = one_signal_data
        m = _fit("KNN", {"k": 5, "weights": "uniform"}, X, y)
        with pytest.raises(EmptyDataset):
            permutation_importance(m, X[:0], y[:0])

    def test_label_count_mismatch_raises(self, one_signal_data):
        X, y = one_signal_data
        m = _fit("KNN", {"k": 5, "weights": "uniform"}, X, y)
        with pytest.raises(DimensionMismatch, match="labels"):
            permutation_importance(m, X, y[:-1])

    def test_negative_seed_raises(self, one_signal_data):
        X, y = one_signal_data
        m = _fit("KNN", {"k": 5, "weights": "uniform"}, X, y)
        with pytest.raises(BadInterval, match="seed must be >= 0"):
            permutation_importance(m, X, y, seed=-1)


class TestTopK:
    def test_order_and_naming(self):
        imp = ImportanceResult(values=np.array([0.1, 0.5, 0.4]), method="mdi")
        assert imp.top_k(2) == (("f1", 0.5), ("f2", 0.4))
        named = imp.top_k(2, names=("alpha", "beta", "gamma"))
        assert named == (("beta", 0.5), ("gamma", 0.4))

    def test_tie_breaks_by_index(self):
        imp = ImportanceResult(values=np.array([0.3, 0.3, 0.4]), method="mdi")
        assert [n for n, _ in imp.top_k(3)] == ["f2", "f0", "f1"]
