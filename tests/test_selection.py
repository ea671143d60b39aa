"""Feature selection: rank-sum p-values and the step-up FDR procedure.

The step-up oracle is re-derived inside the tests with explicit loops so
the vectorized implementation is checked against independent code.
"""
import numpy as np
import pytest
import scipy.stats

from batteryauth.errors import BadInterval, SingleClass, TooFewSamples
from batteryauth.features import labels_for, matrix_from_cycles
from batteryauth.seeding import rng_from
from batteryauth.selection import benjamini_yekutieli, select_features
from batteryauth.synth import demo_specs, gen_dataset


def _by_oracle(p, fdr):
    """Independent step-up: harmonic-corrected thresholds, largest passing rank."""
    m = len(p)
    c_m = sum(1.0 / i for i in range(1, m + 1))
    order = np.argsort(p, kind="stable")
    sorted_p = np.asarray(p)[order]
    cut = -1
    for i in range(m, 0, -1):
        if sorted_p[i - 1] <= i * fdr / (m * c_m):
            cut = i
            break
    keep = np.zeros(m, dtype=bool)
    if cut > 0:
        keep[order[:cut]] = True
    return keep


class TestStepUp:
    def test_matches_loop_oracle_on_fixed_vector(self):
        p = np.array([0.001, 0.8, 0.004, 0.03, 0.5, 0.0002, 0.2, 0.01])
        got = benjamini_yekutieli(p, fdr=0.05)
        assert np.array_equal(got, _by_oracle(p, 0.05))

    def test_matches_loop_oracle_random(self):
        rng = rng_from(3, "by")
        for _ in range(50):
            p = rng.uniform(size=rng.integers(1, 40))
            fdr = float(rng.uniform(0.01, 0.3))
            assert np.array_equal(benjamini_yekutieli(p, fdr), _by_oracle(p, fdr))

    def test_rejections_are_downward_closed(self):
        # if p_i is rejected (kept) then every smaller p is kept too
        rng = rng_from(9, "by2")
        for _ in range(25):
            p = rng.uniform(size=30)
            keep = benjamini_yekutieli(p, fdr=0.1)
            if keep.any():
                threshold = p[keep].max()
                assert keep[p <= threshold].all()

    def test_all_tiny_p_kept(self):
        assert benjamini_yekutieli(np.full(10, 1e-12), 0.05).all()

    def test_all_one_p_rejected(self):
        assert not benjamini_yekutieli(np.ones(10), 0.05).any()

    def test_harmonic_correction_stricter_than_bh(self):
        # a p-vector accepted by plain Benjamini-Hochberg at the boundary is
        # rejected once the harmonic factor is applied
        m = 20
        c_m = sum(1.0 / i for i in range(1, m + 1))
        p = np.full(m, 0.9)
        p[0] = 1.2 * 0.05 / m       # passes i=1 BH cut, fails the corrected cut
        keep = benjamini_yekutieli(p, fdr=0.05)
        assert not keep.any()
        assert c_m > 1.2            # sanity on why it fails


class TestSelectFeatures:
    def _binary_data(self, n=60, d=12, informative=3, seed=0):
        rng = rng_from(seed, "sel")
        y = np.repeat([0, 1], n // 2)
        X = rng.standard_normal((n, d))
        X[y == 1, :informative] += 2.5
        return X, y

    def test_informative_kept_noise_mostly_dropped(self):
        X, y = self._binary_data()
        mask = select_features(X, y, fdr=0.05)
        assert mask.keep[:3].all()
        assert mask.fdr_level == 0.05

    def test_p_values_match_scipy_binary(self):
        X, y = self._binary_data(n=40, d=4, informative=1, seed=2)
        mask = select_features(X, y, fdr=0.05)
        for j in range(4):
            ref = scipy.stats.mannwhitneyu(X[y == 0, j], X[y == 1, j], alternative="two-sided").pvalue
            assert mask.p_values[j] == pytest.approx(ref, rel=1e-9)

    def test_multiclass_bonferroni_one_vs_rest(self):
        rng = rng_from(5, "sel3")
        y = np.repeat([0, 1, 2], 20)
        X = rng.standard_normal((60, 3))
        X[y == 2, 0] += 3.0
        mask = select_features(X, y, fdr=0.05)
        for j in range(3):
            per_class = [
                scipy.stats.mannwhitneyu(X[y == c, j], X[y != c, j], alternative="two-sided").pvalue
                for c in range(3)
            ]
            expected = min(1.0, 3 * min(per_class))
            assert mask.p_values[j] == pytest.approx(expected, rel=1e-9)
        assert mask.keep[0] and not mask.keep[1:].any()

    @staticmethod
    def _small_group_data(sizes, seed):
        """Columns 0-3 tied, 4-7 untied, 8 constant; the first group has <= 8."""
        rng = rng_from(seed, "small-group")
        y = np.repeat(np.arange(len(sizes)), sizes)
        X = rng.standard_normal((len(y), 9))
        X[:, :4] = np.round(X[:, :4] * 2.0)
        X[:, 2] += y
        X[:, 5] += 1.5 * (y == 0)
        X[:, 8] = 0.25
        return X, y

    def test_p_values_equal_per_column_calls_small_group_binary(self):
        # a group of <= 8 samples makes scipy choose the exact method for
        # untied columns and the asymptotic one for tied columns; a batched
        # screen must keep that choice per column, to the last bit
        X, y = self._small_group_data((7, 15), seed=1)
        mask = select_features(X, y, fdr=0.05)
        for j in range(8):
            ref = scipy.stats.mannwhitneyu(X[y == 0, j], X[y == 1, j], alternative="two-sided").pvalue
            assert mask.p_values[j] == ref, j
        assert mask.p_values[8] == 1.0

    def test_p_values_equal_per_column_calls_small_group_multiclass(self):
        X, y = self._small_group_data((6, 10, 12), seed=2)
        mask = select_features(X, y, fdr=0.05)
        for j in range(8):
            per_class = [
                scipy.stats.mannwhitneyu(X[y == c, j], X[y != c, j], alternative="two-sided").pvalue
                for c in range(3)
            ]
            assert mask.p_values[j] == min(1.0, 3 * min(per_class)), j
        assert mask.p_values[8] == 1.0

    def test_zero_variance_always_rejected(self):
        X, y = self._binary_data(n=40, d=5, informative=2, seed=7)
        X[:, 4] = 3.14
        mask = select_features(X, y, fdr=0.05)
        assert not mask.keep[4]
        assert mask.p_values[4] == 1.0

    def test_fallback_keeps_single_smallest_p(self):
        rng = rng_from(13, "noise")
        y = np.repeat([0, 1], 30)
        X = rng.standard_normal((60, 10))
        mask = select_features(X, y, fdr=1e-6)     # nothing should survive
        assert mask.keep.sum() == 1
        assert mask.keep[np.argmin(mask.p_values)]

    def test_single_class_rejected(self):
        X = np.ones((20, 3))
        with pytest.raises(SingleClass):
            select_features(X, np.zeros(20, dtype=int), fdr=0.05)

    def test_too_few_samples(self):
        X = np.ones((6, 3))
        y = np.array([0, 0, 0, 1, 1, 1])
        with pytest.raises(TooFewSamples):
            select_features(X, y, fdr=0.05)

    def test_bad_fdr(self):
        X, y = self._binary_data()
        with pytest.raises(BadInterval):
            select_features(X, y, fdr=0.0)
        with pytest.raises(BadInterval):
            select_features(X, y, fdr=1.0)

    def test_accepts_feature_matrix_with_target_name(self):
        data = gen_dataset(demo_specs(0.05)[:3], cells_per_spec=2, cycles_per_cell=3, seed=5, n_points=128)
        matrix = matrix_from_cycles(data)
        mask = select_features(matrix.values, labels_for(matrix, "model")[0], fdr=0.05)
        assert len(mask.keep) == 137
        assert mask.keep.sum() >= 1

    def test_power_single_seed(self):
        rng = rng_from(0, "power")
        n = 400
        y = np.repeat([0, 1], n // 2)
        X = rng.standard_normal((n, 220))
        X[y == 1, :20] += 1.0
        mask = select_features(X, y, fdr=0.05)
        assert mask.keep[:20].all()
        assert (~mask.keep[20:]).mean() >= 0.8
