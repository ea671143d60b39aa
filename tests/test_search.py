"""Cross-validation and grid-search behavior.

The brute-force comparisons below rebuild the candidate scores by hand
with the same folds, so the search result is checked against an
independent replay rather than trusted internals.
"""
import numpy as np
import pytest

from batteryauth.errors import ClassTooSmall, DimensionMismatch, EmptyCounts, GridExhausted
from batteryauth.models import (
    DEFAULT_GRIDS,
    KINDS,
    CandidateResult,
    enumerate_grid,
    grid_search,
    macro_f1,
    make_spec,
    model_to_json_dict,
    predict,
    stratified_kfold,
    train,
)
from batteryauth.models import boost, dtree, neighbors
from batteryauth.models.search import SCORES, class_scores
from batteryauth.seeding import child_seed


def _two_blob_data(n_per=25, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 1.0, (n_per, 2)), rng.normal(2.5, 1.0, (n_per, 2))])
    y = np.repeat([0, 1], n_per)
    return X, y


class TestMacroF1:
    def test_manual_binary_oracle(self):
        y_true = np.array([0, 0, 0, 1, 1, 1])
        y_pred = np.array([0, 0, 1, 1, 1, 0])
        # class 0: tp=2 fp=1 fn=1 -> f1 = 4/6; class 1: same by symmetry
        assert macro_f1(y_true, y_pred) == pytest.approx(2 / 3)

    def test_absent_predicted_class_scores_zero(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 0, 0, 0])
        # class 0: tp=2 fp=2 fn=0 -> 4/6; class 1: 0/0+0+2 -> 0
        assert macro_f1(y_true, y_pred) == pytest.approx((4 / 6) / 2)

    def test_perfect_prediction(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        assert macro_f1(y, y) == 1.0

    def test_classes_come_from_truth_only(self):
        # a stray predicted label outside y_true adds fp to no tracked class
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 5, 1, 1])
        # class 0: tp=1 fp=0 fn=1 -> 2/3; class 1: tp=2 fp=0 fn=0 -> 1
        assert macro_f1(y_true, y_pred) == pytest.approx((2 / 3 + 1.0) / 2)


    def test_empty_labels_raise(self):
        with pytest.raises(EmptyCounts):
            macro_f1(np.array([], dtype=int), np.array([], dtype=int))

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            macro_f1(np.array([0, 1, 1]), np.array([0, 1]))


def _class_scores_loop(cells):
    """Each class's scores as quotients of Python ints, one class at a time."""
    rows = [[int(v) for v in row] for row in cells]
    k = len(rows)
    scores, undefined = [[] for _ in SCORES], [[] for _ in SCORES]
    for c in range(k):
        tp, true, pred = rows[c][c], sum(rows[c]), sum(rows[i][c] for i in range(k))
        for s, (num, den) in enumerate([(tp, pred), (tp, true), (2 * tp, true + pred),
                                        (true - tp, true)]):
            scores[s].append(num / den if den else 0.0)
            undefined[s].append(den == 0)
    return scores, undefined


class TestClassScoresOracle:
    @pytest.mark.parametrize("extra_column", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_equal_to_loop(self, seed, extra_column):
        """Random tables with empty rows and columns, so some scores are 0/0."""
        rng = np.random.default_rng(seed)
        for _ in range(100):
            k = int(rng.integers(1, 10))
            cells = rng.integers(0, 6, (k, k + extra_column)) * (rng.random((k, k + extra_column)) < 0.6)
            cells[rng.random(k) < 0.25] = 0
            cells[:, rng.random(k + extra_column) < 0.25] = 0
            scores, undefined = class_scores(cells)
            want_scores, want_undefined = _class_scores_loop(cells)
            assert scores.tolist() == want_scores
            assert undefined.tolist() == want_undefined


def _macro_f1_loop(y_true, y_pred):
    """macro_f1 as a loop over classes, three counts each."""
    classes = np.unique(y_true)
    f1s = []
    for c in classes:
        tp = np.count_nonzero((y_pred == c) & (y_true == c))
        fp = np.count_nonzero((y_pred == c) & (y_true != c))
        fn = np.count_nonzero((y_pred != c) & (y_true == c))
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom > 0 else 0.0)
    return float(np.mean(f1s))


class TestMacroF1Oracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_to_loop(self, seed):
        """Random labels, with predictions outside y_true's classes and
        classes never predicted right (F1 0); sparse non-contiguous label
        values so the class index is not the label."""
        rng = np.random.default_rng(seed)
        for _ in range(200):
            n, k = int(rng.integers(1, 80)), int(rng.integers(1, 12))
            y_true = rng.integers(0, k, n) * 3 - 4
            y_pred = rng.integers(-2, k + 3, n) * 3 - 4
            assert macro_f1(y_true, y_pred) == _macro_f1_loop(y_true, y_pred)

    def test_label_dtypes_and_classes_never_predicted(self):
        y_true = np.array([7, 7, 2, 2, 9], dtype=np.int32)
        y_pred = np.array([7, 5, 5, 5, 5])
        assert macro_f1(y_true, y_pred) == _macro_f1_loop(y_true, y_pred) == (2 / 3) / 3
        text = np.array(["b", "a", "c", "a"])
        guess = np.array(["b", "z", "a", "a"])
        assert macro_f1(text, guess) == _macro_f1_loop(text, guess)


class TestStratifiedKfold:
    def test_partition_properties(self):
        y = np.repeat([0, 1, 2], 20)
        folds = stratified_kfold(y, k=5, seed=3)
        assert len(folds) == 5
        all_val = np.sort(np.concatenate([val for _, val in folds]))
        assert np.array_equal(all_val, np.arange(60))
        for trn, val in folds:
            assert len(np.intersect1d(trn, val)) == 0
            # per-class balance within one sample
            for c in (0, 1, 2):
                assert np.count_nonzero(y[val] == c) == 4

    def test_uneven_class_sizes_spread_within_one(self):
        y = np.array([0] * 7 + [1] * 11)
        folds = stratified_kfold(y, k=3, seed=0)
        for c, n_c in ((0, 7), (1, 11)):
            per_fold = [np.count_nonzero(y[val] == c) for _, val in folds]
            assert sum(per_fold) == n_c
            assert max(per_fold) - min(per_fold) <= 1

    def test_class_too_small(self):
        y = np.array([0, 0, 0, 1, 1])
        with pytest.raises(ClassTooSmall):
            stratified_kfold(y, k=3, seed=0)

    def test_seed_changes_assignment(self):
        y = np.repeat([0, 1], 20)
        a = stratified_kfold(y, k=4, seed=0)
        b = stratified_kfold(y, k=4, seed=1)
        assert not all(np.array_equal(x[1], y_[1]) for x, y_ in zip(a, b))

    def test_same_seed_reproduces(self):
        y = np.repeat([0, 1], 20)
        a = stratified_kfold(y, k=4, seed=5)
        b = stratified_kfold(y, k=4, seed=5)
        for (ta, va), (tb, vb) in zip(a, b):
            assert np.array_equal(ta, tb)
            assert np.array_equal(va, vb)


class TestGridSearch:
    def test_winner_matches_brute_force_replay(self):
        X, y = _two_blob_data()
        spec = make_spec("KNN", grid={"k": [1, 5], "weights": ["uniform", "distance"]}, seed=11)
        winner, results = grid_search(spec, X, y, k=5)

        candidates = enumerate_grid(spec)
        folds = stratified_kfold(y, k=5, seed=spec.seed)
        replay = []
        for ci, hp in enumerate(candidates):
            seeds = child_seed(spec.seed, "candidate", ci)
            scores = []
            for trn, val in folds:
                m = train(spec, hp, X[trn], y[trn], seed=seeds)
                scores.append(macro_f1(y[val], predict(m, X[val])))
            replay.append(float(np.mean(scores)))

        assert [r.mean_score for r in results] == pytest.approx(replay)
        best = int(np.argmax(replay))
        assert winner.hyperparams == candidates[best]
        assert winner.seed == child_seed(spec.seed, "candidate", best)

    def test_tie_breaks_to_earliest_candidate(self):
        # perfectly separated data: every candidate scores 1.0
        X = np.vstack([np.zeros((10, 1)), np.full((10, 1), 100.0)])
        X = X + np.random.default_rng(0).normal(0, 0.01, X.shape)
        y = np.repeat([0, 1], 10)
        spec = make_spec("KNN", grid={"k": [1, 3], "weights": ["uniform", "distance"]}, seed=2)
        winner, results = grid_search(spec, X, y, k=5)
        assert all(r.mean_score == 1.0 for r in results)
        assert winner.hyperparams == enumerate_grid(spec)[0]

    def test_failing_candidate_scores_minus_inf(self):
        # reg=0 on a class with an exactly singular covariance fails; reg=0.5
        # succeeds, so the search must survive and pick the working candidate
        base = np.arange(10.0)
        X = np.column_stack([base, 2 * base])          # collinear columns
        X = np.vstack([X, X + 100.0])
        y = np.repeat([0, 1], 10)
        spec = make_spec("QDA", grid={"reg": [0.0, 0.5]}, seed=0)
        winner, results = grid_search(spec, X, y, k=5)
        assert results[0].mean_score == float("-inf")
        assert "SingularCovariance" in results[0].error
        assert winner.hyperparams["reg"] == 0.5

    def test_all_candidates_fail(self):
        base = np.arange(10.0)
        X = np.column_stack([base, 2 * base])
        X = np.vstack([X, X + 100.0])
        y = np.repeat([0, 1], 10)
        spec = make_spec("QDA", grid={"reg": [0.0]}, seed=0)
        with pytest.raises(GridExhausted):
            grid_search(spec, X, y, k=5)

    def test_thread_count_does_not_change_result(self):
        X, y = _two_blob_data(seed=4)
        spec = make_spec("DecisionTree", grid={"max_depth": [2, None]}, seed=7)
        w1, r1 = grid_search(spec, X, y, k=5, threads=1)
        w4, r4 = grid_search(spec, X, y, k=5, threads=4)
        assert [r.mean_score for r in r1] == [r.mean_score for r in r4]
        assert w1.hyperparams == w4.hyperparams
        probe = np.random.default_rng(9).standard_normal((30, 2))
        assert np.array_equal(predict(w1, probe), predict(w4, probe))

    @pytest.mark.parametrize("kind", KINDS)
    def test_winner_equals_train_at_the_winning_point(self, kind):
        # two candidates on the first dimension, the default's first value elsewhere
        grid = {dim: values[:2] if i == 0 else values[:1]
                for i, (dim, values) in enumerate(DEFAULT_GRIDS[kind].items())}
        spec = make_spec(kind, grid=grid, seed=3)
        X, y = _two_blob_data(n_per=12, seed=4)
        winner, results = grid_search(spec, X, y, k=3)
        best = max(range(len(results)), key=lambda i: (results[i].mean_score, -i))
        alone = train(spec, results[best].hyperparams, X, y, seed=child_seed(spec.seed, "candidate", best))
        assert winner.hyperparams == alone.hyperparams
        assert winner.seed == alone.seed
        # every array of the state, the standardizer and the class table, byte for byte
        assert model_to_json_dict(winner) == model_to_json_dict(alone)


def _adaboost_data(name):
    """'early': one 3-fold training set stops boosting at 18 rounds, between
    the grid's 7 and 50; 'full': every fold runs all 50 rounds."""
    if name == "early":
        rng = np.random.default_rng(45)
        X = rng.integers(0, 3, (18, 2)).astype(float)
        return X, rng.integers(0, 2, 18)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 3))
    return X, (X[:, 0] + 0.3 * X[:, 1] > 0).astype(int)


class TestAdaBoostPrefixSharing:
    """AdaBoost candidates share one fit per fold at the largest n_estimators;
    each must score exactly as if it had been trained alone."""

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("grid", [[1, 2, 7, 50], [50, 7, 2, 1]])
    @pytest.mark.parametrize("data", ["early", "full"])
    def test_results_equal_candidates_trained_alone(self, data, grid, threads, monkeypatch):
        X, y = _adaboost_data(data)
        spec = make_spec("AdaBoost", grid={"n_estimators": grid}, seed=3)
        candidates = enumerate_grid(spec)
        folds = stratified_kfold(y, k=3, seed=spec.seed)
        reference, rounds = [], []
        for ci, hp in enumerate(candidates):
            scores = []
            for trn, val in folds:
                m = train(spec, hp, X[trn], y[trn], seed=child_seed(spec.seed, "candidate", ci))
                scores.append(macro_f1(y[val], predict(m, X[val])))
                if hp["n_estimators"] == 50:
                    rounds.append(len(m.params["alphas"]))
            reference.append(CandidateResult(index=ci, hyperparams=hp,
                                             mean_score=float(np.mean(scores)),
                                             fold_scores=tuple(scores)))
        if data == "early":
            assert 18 in rounds
        else:
            assert rounds == [50, 50, 50]
        best = max(range(len(reference)), key=lambda i: (reference[i].mean_score, -i))
        alone = train(spec, candidates[best], X, y, seed=child_seed(spec.seed, "candidate", best))

        fitted = []
        fit = boost.fit

        def counting_fit(Xs, y_enc, k, hp, seed):
            fitted.append((len(Xs), hp["n_estimators"]))
            return fit(Xs, y_enc, k, hp, seed)

        monkeypatch.setattr(boost, "fit", counting_fit)
        winner, results = grid_search(spec, X, y, k=3, threads=threads)
        assert results == reference
        # one fit per fold at the largest n_estimators, then the winner's refit
        assert sorted(fitted[:-1]) == sorted((len(trn), 50) for trn, _ in folds)
        assert fitted[-1] == (len(X), candidates[best]["n_estimators"])
        assert model_to_json_dict(winner) == model_to_json_dict(alone)


def _tree_data():
    """3 classes with label noise, so an unlimited tree grows past depth 4."""
    rng = np.random.default_rng(17)
    X = np.round(rng.standard_normal((60, 3)), 1)
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int) + (X[:, 2] > 0.8)
    flip = rng.random(60) < 0.2
    y[flip] = rng.integers(0, 3, flip.sum())
    return X, y


SHARED_CASES = [
    ("DecisionTree", {"criterion": ["gini", "entropy"], "max_depth": [1, 2, 4, None]}, 2),
    ("DecisionTree", {"criterion": ["gini", "entropy"], "max_depth": [None, 4, 2, 1]}, 2),
    ("DecisionTree", {"criterion": ["gini"], "max_depth": [16, None]}, 1),
    ("KNN", {"k": [1, 3, 5, 9], "weights": ["uniform", "distance"]}, 1),
    ("KNN", {"k": [200, 1], "weights": ["distance", "uniform"]}, 1),
]


class TestSharedFits:
    """DecisionTree candidates share one fit per criterion and fold (at the
    largest max_depth), KNN candidates one fit per fold; each candidate must
    score exactly as if it had been trained alone."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind,grid,groups", SHARED_CASES,
                             ids=[f"{k}-{'-'.join(map(str, g[list(g)[-1]]))}"
                                  for k, g, _ in SHARED_CASES])
    def test_results_equal_candidates_trained_alone(self, kind, grid, groups, threads,
                                                    monkeypatch):
        X, y = _tree_data()
        spec = make_spec(kind, grid=grid, seed=5)
        candidates = enumerate_grid(spec)
        folds = stratified_kfold(y, k=3, seed=spec.seed)
        reference = []
        for ci, hp in enumerate(candidates):
            models = [train(spec, hp, X[trn], y[trn], seed=child_seed(spec.seed, "candidate", ci))
                      for trn, _ in folds]
            scores = [macro_f1(y[val], predict(m, X[val])) for m, (_, val) in zip(models, folds)]
            reference.append(CandidateResult(index=ci, hyperparams=hp,
                                             mean_score=float(np.mean(scores)),
                                             fold_scores=tuple(scores)))
            if hp.get("max_depth") == 16:
                # the grid where 16 and None give the same tree
                deep = train(spec, {**hp, "max_depth": None}, X[folds[0][0]], y[folds[0][0]])
                assert model_to_json_dict(deep)["parameters"] == \
                    model_to_json_dict(models[0])["parameters"]
        if kind == "DecisionTree" and groups == 2:
            assert len({r.mean_score for r in reference}) > 2
        if kind == "KNN" and 200 in grid["k"]:
            assert len(folds[0][0]) < 200

        module = {"DecisionTree": dtree, "KNN": neighbors}[kind]
        fitted = []
        fit = module.fit

        def counting_fit(Xs, y_enc, k, hp, seed):
            fitted.append(len(Xs))
            return fit(Xs, y_enc, k, hp, seed)

        monkeypatch.setattr(module, "fit", counting_fit)
        winner, results = grid_search(spec, X, y, k=3, threads=threads)
        assert results == reference
        # one fit per group and fold, then the winner's refit
        assert len(fitted) == groups * len(folds) + 1
        best = max(range(len(reference)), key=lambda i: (reference[i].mean_score, -i))
        alone = train(spec, candidates[best], X, y, seed=child_seed(spec.seed, "candidate", best))
        assert model_to_json_dict(winner) == model_to_json_dict(alone)
