"""Splits, balance scenarios, metric algebra, and the task runners."""
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batteryauth.errors import (
    BadInterval,
    BatteryAuthError,
    ClassTooSmall,
    DimensionMismatch,
    EmptyCounts,
    InfeasibleBalance,
    LabelAbsent,
    SingleClass,
)
from batteryauth.evaluate import (
    BALANCE_LEVELS,
    AuthResult,
    ConfusionCounts,
    EvalConfig,
    EvalReport,
    MetricSet,
    auth_averages,
    balance_name,
    confusion_binary,
    confusion_matrix,
    make_auth_scenario,
    merge_reports,
    metrics,
    metrics_from_matrix,
    report_to_csv,
    report_to_json,
    run_authentication,
    run_identification,
    _labelled_sets,
    split_train_test,
    undersample,
)
from batteryauth.dca import DcaConfig
from batteryauth.features import FeatureMatrix, labels_for, matrix_from_cycles
from batteryauth.models import load_model, macro_f1, make_spec, save_model
from batteryauth.records import SampleMeta
from batteryauth.selection import select_features
from batteryauth.synth import demo_specs, gen_dataset


def _matrix(model_sizes, n_features=6, seed=0, arch_of=None):
    """Synthetic matrix: class c lives around c*10 so models separate easily.

    model_sizes maps model name -> row count; arch_of maps model -> arch
    name (default: one arch per model).
    """
    rng = np.random.default_rng(seed)
    names = list(model_sizes)
    arch_of = arch_of or {m: f"arch-{m}" for m in names}
    arch_names = sorted(dict.fromkeys(arch_of.values()))
    rows, model_id, arch_id, metas = [], [], [], []
    for mi, m in enumerate(names):
        for _ in range(model_sizes[m]):
            rows.append(rng.normal(mi * 10.0, 1.0, n_features))
            model_id.append(mi)
            arch_id.append(arch_names.index(arch_of[m]))
            metas.append(SampleMeta(battery_model=m, architecture=arch_of[m]))
    return FeatureMatrix(
        values=np.asarray(rows),
        model_id=np.asarray(model_id),
        arch_id=np.asarray(arch_id),
        metas=tuple(metas),
        catalog_version="v1:ch1",
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        model_names=tuple(names),
        arch_names=tuple(arch_names),
        imputed_counts=np.zeros(len(rows), dtype=int),
    )


class TestMetricAlgebra:
    def test_hand_computed_counts(self):
        m = metrics(ConfusionCounts(tp=8, tn=5, fp=2, fn=1))
        assert m.accuracy == pytest.approx(13 / 16)
        assert m.precision == pytest.approx(8 / 10)
        assert m.recall == pytest.approx(8 / 9)
        assert m.far == pytest.approx(2 / 7)
        assert m.frr == pytest.approx(1 / 9)
        assert m.degenerate == ()

    @given(
        st.tuples(
            st.integers(0, 200), st.integers(0, 200),
            st.integers(0, 200), st.integers(0, 200),
        ).filter(lambda t: sum(t) > 0)
    )
    @settings(max_examples=200, deadline=None)
    def test_metric_identities(self, quad):
        tp, tn, fp, fn = quad
        m = metrics(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
        # F1 is the harmonic mean of precision and recall
        assert m.f1 * (m.precision + m.recall) == pytest.approx(2 * m.precision * m.recall)
        # FRR is the recall complement whenever positives exist
        if tp + fn > 0:
            assert m.frr == pytest.approx(1.0 - m.recall)
        assert 0.0 <= m.accuracy <= 1.0

    def test_degenerate_flags(self):
        m = metrics(ConfusionCounts(tp=0, tn=4, fp=0, fn=0))
        assert "precision" in m.degenerate
        assert "recall" in m.degenerate
        assert "frr" in m.degenerate
        assert m.far == 0.0 and "far" not in m.degenerate

    def test_empty_counts(self):
        with pytest.raises(EmptyCounts):
            metrics(ConfusionCounts(0, 0, 0, 0))

    def test_confusion_binary_orientation(self):
        y_true = np.array([1, 1, 0, 0, 1])
        y_pred = np.array([1, 0, 0, 1, 1])
        c = confusion_binary(y_true, y_pred)
        assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 1, 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_confusion_matrix_counts_every_pair(self, seed):
        rng = np.random.default_rng(seed)
        k, n = int(rng.integers(1, 6)), int(rng.integers(0, 40))
        y_true, y_pred = rng.integers(0, k, n), rng.integers(0, k, n)
        want = [[sum(1 for t, p in zip(y_true, y_pred) if (t, p) == (a, b)) for b in range(k)]
                for a in range(k)]
        cm = confusion_matrix(y_true, y_pred, k)
        assert cm.dtype.kind == "i" and cm.tolist() == want

    @pytest.mark.parametrize("y_pred", [[0, 2], [-1, 1]])
    def test_labels_outside_the_classes_raise(self, y_pred):
        # a label 2 would otherwise count as class 1 in the k = 2 table
        with pytest.raises(LabelAbsent):
            confusion_binary(np.array([0, 1]), np.array(y_pred))

    def test_prediction_count_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            confusion_matrix(np.array([0, 1, 2]), np.array([0, 1]), 3)

    def test_multiclass_macro_against_manual(self):
        cm = np.array([[5, 1, 0], [0, 4, 2], [1, 0, 3]])
        m = metrics_from_matrix(cm)
        assert m.accuracy == pytest.approx(12 / 16)
        # class 0: p=5/6 r=5/6; class 1: p=4/5 r=4/6; class 2: p=3/5 r=3/4
        assert m.precision == pytest.approx((5 / 6 + 4 / 5 + 3 / 5) / 3)
        assert m.recall == pytest.approx((5 / 6 + 4 / 6 + 3 / 4) / 3)
        assert m.far is None and m.frr is None

    def test_multiclass_flags_name_the_class(self):
        cm = np.array([[3, 0], [2, 0]])   # nothing predicted as class 1
        m = metrics_from_matrix(cm)
        # class 1 still has true rows, so recall is a real 0 and F1 is
        # 0/(2 + 0); the one 0/0 is its precision
        assert m.degenerate == ("precision:1",)
        assert m.recall == pytest.approx(0.5)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
    def test_non_square_table_refused(self, shape):
        with pytest.raises(DimensionMismatch, match="square"):
            metrics_from_matrix(np.ones(shape, dtype=int))

    @pytest.mark.parametrize("seed", range(4))
    def test_report_f1_is_the_fold_score(self, seed):
        """Over labels covering 0..k-1 and predictions within them, the
        report's macro F1 equals the fold scorer's to the bit."""
        rng = np.random.default_rng(seed)
        for _ in range(200):
            k = int(rng.integers(1, 13))
            extra = rng.integers(0, k, int(rng.integers(0, 60)))
            y_true = rng.permutation(np.concatenate([np.arange(k), extra]))
            y_pred = np.where(rng.random(len(y_true)) < 0.6, y_true, rng.integers(0, k, len(y_true)))
            m = metrics_from_matrix(confusion_matrix(y_true, y_pred, k))
            assert m.f1 == macro_f1(y_true, y_pred)

    def test_balance_name_format(self):
        assert balance_name(50) == "50/50 (legit 50%)"
        assert balance_name(20) == "20/80 (legit 20%)"


class TestSplit:
    def test_disjoint_exhaustive_and_sorted(self):
        y = np.repeat([0, 1, 2], 30)
        trn, tst = split_train_test(y, ratio=0.8, seed=4)
        joined = np.sort(np.concatenate([trn, tst]))
        assert np.array_equal(joined, np.arange(90))
        assert np.array_equal(trn, np.sort(trn))
        assert np.array_equal(tst, np.sort(tst))
        for c in (0, 1, 2):
            assert np.count_nonzero(y[tst] == c) == 6

    def test_rounding_per_class(self):
        # 7 samples at ratio 0.8 -> round(1.4) = 1 test sample
        y = np.array([0] * 7 + [1] * 10)
        _, tst = split_train_test(y, ratio=0.8, seed=0)
        assert np.count_nonzero(y[tst] == 0) == 1
        assert np.count_nonzero(y[tst] == 1) == 2

    def test_class_too_small(self):
        with pytest.raises(ClassTooSmall):
            split_train_test(np.array([0, 1, 1, 1]), ratio=0.8, seed=0)

    def test_seeded_reproducibility(self):
        y = np.repeat([0, 1], 25)
        a = split_train_test(y, ratio=0.8, seed=9)
        b = split_train_test(y, ratio=0.8, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestUndersample:
    def test_all_classes_at_minority_count(self):
        mat = _matrix({"a": 30, "b": 12, "c": 20})
        out = undersample(mat, seed=0, target="model")
        y, _ = labels_for(out, "model")
        _, counts = np.unique(y, return_counts=True)
        assert list(counts) == [12, 12, 12]

    def test_single_class_rejected(self):
        mat = _matrix({"a": 10})
        with pytest.raises(SingleClass):
            undersample(mat, seed=0, target="model")

    def test_rows_come_from_original(self):
        mat = _matrix({"a": 8, "b": 5})
        out = undersample(mat, seed=3, target="model")
        for row in out.values:
            assert any(np.array_equal(row, orig) for orig in mat.values)


class TestAuthScenario:
    def test_even_balance_example(self):
        # 40 legit available, 3 counterfeit classes of 25 each: the 50/50
        # draw caps at 40+40 with counterfeits spread 14/13/13
        mat = _matrix({"L": 40, "x": 25, "y": 25, "z": 25})
        sub, y_bin = make_auth_scenario(mat, "L", 50, seed=0, target="model")
        assert np.count_nonzero(y_bin == 1) == 40
        assert np.count_nonzero(y_bin == 0) == 40
        y_model, _ = labels_for(sub, "model")
        counter_models = y_model[y_bin == 0]
        counts = sorted(np.bincount(counter_models, minlength=4)[1:], reverse=True)
        assert counts == [14, 13, 13]

    def test_spillover_when_one_class_is_short(self):
        # quota 27/27/26 is infeasible with a 10-row class; the deficit
        # moves onto the classes that still have rows
        mat = _matrix({"L": 200, "x": 10, "y": 60, "z": 60})
        sub, y_bin = make_auth_scenario(mat, "L", 20, seed=0, target="model")
        n_legit = int(np.count_nonzero(y_bin == 1))
        n_counter = int(np.count_nonzero(y_bin == 0))
        assert n_legit / (n_legit + n_counter) == pytest.approx(0.20, abs=0.01)
        y_model, _ = labels_for(sub, "model")
        per_class = np.bincount(y_model[y_bin == 0], minlength=4)[1:]
        assert per_class[0] == 10            # exhausted class contributes all rows
        assert per_class.sum() == n_counter

    @pytest.mark.parametrize("balance", BALANCE_LEVELS)
    def test_share_within_one_sample(self, balance):
        mat = _matrix({"L": 60, "x": 50, "y": 50})
        _, y_bin = make_auth_scenario(mat, "L", balance, seed=1, target="model")
        total = len(y_bin)
        share = np.count_nonzero(y_bin == 1) / total
        assert abs(share - balance / 100.0) <= 1.0 / total + 1e-12

    @staticmethod
    def _walk(n_legit_avail, n_counter_avail, balance):
        """The scenario size as a walk down from the cap: the first total
        whose rounded legit share and remainder both fit their pools."""
        p = balance / 100.0
        t_cap = min(int(np.floor(n_legit_avail / p)), int(np.floor(n_counter_avail / (1.0 - p))))
        for t_total in range(t_cap, 1, -1):
            n_legit = int(round(t_total * p))
            if 1 <= n_legit <= n_legit_avail and 1 <= t_total - n_legit <= n_counter_avail:
                return n_legit, t_total - n_legit
        return None

    def test_size_equals_the_walk_from_the_cap(self):
        for legit, x, y in itertools.product(range(1, 11), range(1, 7), range(1, 7)):
            mat = _matrix({"L": legit, "x": x, "y": y}, n_features=1)
            for balance in BALANCE_LEVELS:
                want = self._walk(legit, x + y, balance)
                if want is None:
                    with pytest.raises(InfeasibleBalance):
                        make_auth_scenario(mat, "L", balance, seed=0, target="model")
                    continue
                _, y_bin = make_auth_scenario(mat, "L", balance, seed=0, target="model")
                got = (int(np.count_nonzero(y_bin == 1)), int(np.count_nonzero(y_bin == 0)))
                assert got == want, (legit, x, y, balance)

    def test_invalid_balance(self):
        mat = _matrix({"L": 10, "x": 10})
        with pytest.raises(InfeasibleBalance):
            make_auth_scenario(mat, "L", 35, seed=0, target="model")

    def test_label_absent(self):
        mat = _matrix({"a": 10, "b": 10})
        with pytest.raises(LabelAbsent):
            make_auth_scenario(mat, "zz", 50, seed=0, target="model")
        with pytest.raises(LabelAbsent):
            make_auth_scenario(mat, 7, 50, seed=0, target="model")

    def test_single_class_rejected(self):
        mat = _matrix({"a": 10})
        with pytest.raises(SingleClass):
            make_auth_scenario(mat, "a", 50, seed=0, target="model")

    def test_accepts_label_by_id(self):
        mat = _matrix({"a": 20, "b": 20})
        sub_by_name, y_name = make_auth_scenario(mat, "b", 50, seed=5, target="model")
        sub_by_id, y_id = make_auth_scenario(mat, 1, 50, seed=5, target="model")
        assert np.array_equal(y_name, y_id)
        assert np.array_equal(sub_by_name.values, sub_by_id.values)

    @staticmethod
    def _fill(sizes, n):
        """Quota oracle: n rows added one at a time, each to the class with
        the fewest rows taken that still has rows; ties go to the lowest id."""
        taken = [0] * len(sizes)
        for _ in range(n):
            c = min((c for c in range(len(sizes)) if taken[c] < sizes[c]), key=lambda c: (taken[c], c))
            taken[c] += 1
        return taken

    @staticmethod
    def _quotas(mat, balance, seed):
        """Counterfeit rows drawn per class of a scenario for label "L"."""
        sub, y_bin = make_auth_scenario(mat, "L", balance, seed=seed, target="model")
        return np.bincount(sub.model_id[y_bin == 0], minlength=len(mat.model_names))[1:].tolist()

    def test_exhausted_class_leaves_the_others_even(self):
        # 7 counterfeit rows from classes of 10, 10 and 1
        mat = _matrix({"L": 7, "x": 10, "y": 10, "z": 1}, n_features=1)
        assert self._quotas(mat, 50, 0) == [3, 3, 1]

    def test_quotas_equal_the_one_row_at_a_time_oracle(self):
        rng = np.random.default_rng(2024)
        for case in range(80):
            sizes = rng.integers(1, 41, size=int(rng.integers(2, 7))).tolist()
            n_legit = int(rng.integers(2, 121))
            mat = _matrix({"L": n_legit, **{f"c{i}": s for i, s in enumerate(sizes)}}, n_features=1)
            for balance in BALANCE_LEVELS:
                want = self._walk(n_legit, sum(sizes), balance)
                if want is None:
                    continue
                n = want[1]
                got = self._quotas(mat, balance, case)
                assert got == self._fill(sizes, n), (sizes, n_legit, balance)
                # with no class short, the even split with the remainder on the lowest ids
                even = [n // len(sizes) + (i < n % len(sizes)) for i in range(len(sizes))]
                if all(q <= s for q, s in zip(even, sizes)):
                    assert got == even, (sizes, n_legit, balance)


def _auth_cell(task, kind, label, balance, counts):
    ms = metrics(counts)
    return AuthResult(
        task=task, target="model", kind=kind, legit_label=label, balance=balance,
        hyperparams={}, metric_set=ms, counts=counts, converged=True,
    )


class TestAuthAverages:
    def test_means_recompute_from_cells(self):
        cells = [
            _auth_cell("model_authentication", "KNN", "a", 50, ConfusionCounts(8, 7, 1, 0)),
            _auth_cell("model_authentication", "KNN", "a", 40, ConfusionCounts(5, 9, 2, 1)),
            _auth_cell("model_authentication", "KNN", "b", 50, ConfusionCounts(6, 6, 0, 4)),
            _auth_cell("model_authentication", "KNN", "b", 40, ConfusionCounts(7, 8, 1, 1)),
        ]
        out = auth_averages(cells)
        key = "model_authentication:KNN"
        a50 = out["by_balance"][f"{key}:50"]
        manual_far = np.mean([c.metric_set.far for c in cells if c.balance == 50])
        assert a50["far"] == pytest.approx(manual_far)
        assert a50["cells"] == 2
        by_a = out["by_label"][f"{key}:a"]
        assert by_a["f1"] == pytest.approx(
            np.mean([c.metric_set.f1 for c in cells if c.legit_label == "a"])
        )
        overall = out["overall"][key]
        assert overall["cells"] == 4
        assert overall["accuracy"] == pytest.approx(
            np.mean([c.metric_set.accuracy for c in cells])
        )

    def test_kinds_average_separately(self):
        cells = [
            _auth_cell("model_authentication", "KNN", "a", 50, ConfusionCounts(9, 9, 1, 1)),
            _auth_cell("model_authentication", "SVM", "a", 50, ConfusionCounts(5, 5, 5, 5)),
        ]
        out = auth_averages(cells)
        assert out["overall"]["model_authentication:KNN"]["accuracy"] == pytest.approx(0.9)
        assert out["overall"]["model_authentication:SVM"]["accuracy"] == pytest.approx(0.5)


@pytest.fixture(scope="module")
def small_matrix():
    return _matrix({"a": 30, "b": 30, "c": 30}, seed=2,
                   arch_of={"a": "type-x", "b": "type-x", "c": "type-y"})


@pytest.fixture(scope="module")
def knn_spec():
    return make_spec("KNN", grid={"k": [1], "weights": ["uniform"]}, seed=0)


class TestRunners:
    def test_identification_report(self, small_matrix, knn_spec):
        config = EvalConfig(seed=5, folds=3, targets=("model",), snapshot={"note": "t"})
        report = run_identification(small_matrix, [knn_spec], config)
        assert report.tasks == ("model_identification",)
        assert len(report.ident_results) == 1
        r = report.ident_results[0]
        assert r.kind == "KNN"
        assert r.class_names == ("a", "b", "c")
        # classes are 10 sigma apart; the winner must be perfect on held-out
        assert r.metric_set.accuracy == 1.0
        cm = np.asarray(r.confusion)
        assert cm.shape == (3, 3)
        assert cm.sum() == 18          # 90 rows balanced, 20% held out
        assert report.selection_kept["model_identification"] == -1

    def test_negative_seed_is_a_library_error(self, small_matrix, knn_spec):
        with pytest.raises(BadInterval, match="seed: must be >= 0"):
            run_identification(small_matrix, [knn_spec], EvalConfig(seed=-1))

    def test_identification_both_targets(self, small_matrix, knn_spec):
        config = EvalConfig(seed=5, folds=3)
        report = run_identification(small_matrix, [knn_spec], config)
        assert report.tasks == ("arch_identification", "model_identification")
        tasks = [r.task for r in report.ident_results]
        assert tasks == ["arch_identification", "model_identification"]

    def test_authentication_report(self, small_matrix, knn_spec):
        config = EvalConfig(seed=5, folds=3, targets=("model",), balances=(50, 30))
        report = run_authentication(small_matrix, [knn_spec], config)
        # 3 legit labels x 2 balances
        assert len(report.auth_results) == 6
        for r in report.auth_results:
            assert r.task == "model_authentication"
            assert r.balance in (50, 30)
            assert r.metric_set.far == 0.0
            assert r.metric_set.frr == 0.0
        labels = {r.legit_label for r in report.auth_results}
        assert labels == {"a", "b", "c"}

    def test_rows_carry_their_winners(self, small_matrix, knn_spec):
        config = EvalConfig(seed=5, folds=3, targets=("model",), balances=(50,))
        ident = run_identification(small_matrix, [knn_spec], config).ident_results
        auth = run_authentication(small_matrix, [knn_spec], config).auth_results
        assert [(r.task, r.kind) for r in ident] == [("model_identification", "KNN")]
        assert ident[0].model.task == "identification"
        row = next(r for r in auth if (r.legit_label, r.balance) == ("a", 50))
        assert row.kind == "KNN"
        model = row.model
        assert model.class_names == ("counterfeit", "a")
        assert model.task == "authentication"

    @pytest.mark.parametrize("mode", ["identification", "authentication"])
    def test_rows_carry_stamped_provenance(self, knn_spec, mode):
        """Each row's model carries its labelled set's mask and trained class
        names, the task, and the matrix's catalog version and processing,
        replayed here from the selection and the split of each set."""
        processing = DcaConfig(savgol_window=11, resample_n=256)
        data = gen_dataset(demo_specs(), cells_per_spec=2, cycles_per_cell=6, seed=4, n_points=128)
        matrix = matrix_from_cycles(data, processing)
        assert matrix.processing is processing
        config = EvalConfig(seed=5, folds=2, balances=(50,), selection_enabled=True)
        report = (run_identification if mode == "identification" else run_authentication)(
            matrix, [knn_spec], config)
        rows = report.ident_results + report.auth_results
        sets = [s for target in config.targets for s in _labelled_sets(matrix, config, target, mode)]
        assert len(rows) == len(sets) >= 2
        for row, (_, _, sub, y, class_names, split_seed) in zip(rows, sets):
            model = row.model
            keep = select_features(sub.values, y, fdr=config.selection_fdr).keep
            train_idx, _ = split_train_test(y, ratio=config.train_ratio, seed=split_seed)
            assert np.array_equal(model.mask, keep) and model.input_width == keep.sum()
            assert model.class_names == tuple(class_names[c] for c in np.unique(y[train_idx]))
            assert model.task == mode
            assert model.catalog_version == matrix.catalog_version == "v1:ch1"
            assert model.processing is processing

    def test_model_names_only_the_classes_it_was_trained_on(self, knn_spec, tmp_path):
        # legit "a" has 2 rows; at train_ratio 0.25 both fall into the test part
        mat = _matrix({"a": 2, "b": 30, "c": 30}, seed=2)
        config = EvalConfig(seed=5, folds=2, targets=("model",), balances=(20,), train_ratio=0.25)
        rows = {r.legit_label: r for r in run_authentication(mat, [knn_spec], config).auth_results}
        dropped = rows["a"].model
        assert dropped.classes.tolist() == [0]
        assert dropped.class_names == ("counterfeit",)
        path = str(tmp_path / "model.json")
        save_model(dropped, path)
        assert load_model(path).class_names == ("counterfeit",)
        assert rows["b"].model.class_names == ("counterfeit", "b")

    def test_empty_training_split_is_a_library_error(self, knn_spec):
        # with 2 rows per class at train_ratio 0.25, both go to the test part
        # and the training split is empty: training refuses it before a fit
        mat = _matrix({"a": 2, "b": 2, "c": 5})
        config = EvalConfig(seed=5, folds=2, targets=("model",), train_ratio=0.25)
        with pytest.raises(BatteryAuthError, match="empty"):
            run_identification(mat, [knn_spec], config)

    def test_selection_path_reports_kept_count(self, knn_spec):
        # only the first feature separates; selection must keep a strict subset
        rng = np.random.default_rng(0)
        n_per, F = 25, 30
        base = _matrix({"a": n_per, "b": n_per}, n_features=F, seed=1)
        noise = rng.standard_normal((2 * n_per, F))
        noise[n_per:, 0] += 8.0
        mat = FeatureMatrix(
            values=noise, model_id=base.model_id, arch_id=base.arch_id, metas=base.metas,
            catalog_version=base.catalog_version, feature_names=base.feature_names,
            model_names=base.model_names, arch_names=base.arch_names,
            imputed_counts=base.imputed_counts,
        )
        config = EvalConfig(seed=5, folds=3, targets=("model",), selection_enabled=True)
        report = run_identification(mat, [knn_spec], config)
        kept = report.selection_kept["model_identification"]
        assert 1 <= kept < F
        r = report.ident_results[0]
        assert r.metric_set.accuracy == 1.0

    def test_merge_and_serialization(self, small_matrix, knn_spec):
        config = EvalConfig(seed=5, folds=3, targets=("model",), balances=(50,))
        ident = run_identification(small_matrix, [knn_spec], config)
        auth = run_authentication(small_matrix, [knn_spec], config)
        merged = merge_reports(ident, auth)
        assert merged.tasks == ("model_identification", "model_authentication")
        payload = json.loads(report_to_json(merged))
        assert payload["schema_version"] == "1"
        assert len(payload["identification"]) == 1
        assert len(payload["authentication"]) == 3
        assert "authentication_averages" in payload
        avg = payload["authentication_averages"]["by_balance"]["model_authentication:KNN:50"]
        assert avg["cells"] == 3
        # byte-identical rerun
        ident2 = run_identification(small_matrix, [knn_spec], config)
        auth2 = run_authentication(small_matrix, [knn_spec], config)
        assert report_to_json(merge_reports(ident2, auth2)) == report_to_json(merged)

    def test_csv_shape(self, small_matrix, knn_spec):
        config = EvalConfig(seed=5, folds=3, targets=("model",), balances=(50,))
        merged = merge_reports(
            run_identification(small_matrix, [knn_spec], config),
            run_authentication(small_matrix, [knn_spec], config),
        )
        lines = report_to_csv(merged).strip().split("\n")
        assert lines[0] == "task,target,kind,legit_label,balance,accuracy,precision,recall,f1,far,frr"
        # 1 ident + 3 auth cells + 1 per-balance mean
        assert len(lines) == 1 + 1 + 3 + 1
        mean_rows = [l for l in lines if ",mean," in l]
        assert len(mean_rows) == 1
        assert mean_rows[0].startswith("model_authentication,model,KNN,mean,50")
        ident_row = lines[1].split(",")
        assert ident_row[3] == "" and ident_row[4] == ""      # no label/balance
        assert ident_row[10] == ""                            # multiclass has no frr

    def test_report_envelope_keys(self, small_matrix, knn_spec):
        config = EvalConfig(seed=5, folds=3, targets=("model",))
        payload = json.loads(report_to_json(run_identification(small_matrix, [knn_spec], config)))
        assert set(payload) == {
            "schema_version", "tasks", "identification", "authentication",
            "authentication_averages", "seed", "catalog_version",
            "selection_kept", "config",
        }
