"""Acceptance gate: eleven end-to-end checks over the whole pipeline.

Each check covers one shipping requirement, from the differential-capacity
oracle through synthetic identification/authentication experiments to
determinism and inference latency. Every test prints a single PASS/FAIL
line (reprinted in the terminal summary by conftest) with the measured
numbers, so the gate's outcome is readable without digging into asserts.

The heavy synthetic experiments share module-scoped fixtures; budgets are
enforced where a check states one.
"""
from time import perf_counter

import numpy as np
import pytest

from conftest import record_acceptance

from batteryauth.dca import (
    DcaSeries,
    clean_dca,
    raw_differential_capacity,
    savgol_smooth,
    savgol_weights,
)
from batteryauth.evaluate import (
    ConfusionCounts,
    EvalConfig,
    merge_reports,
    metrics,
    report_to_csv,
    report_to_json,
    run_authentication,
    run_identification,
)
from batteryauth.explain import mdi_importance, permutation_importance
from batteryauth.features import (
    feature_autocorrelation,
    feature_fft_coefficient,
    feature_number_peaks,
    feature_quantile,
    matrix_from_cycles,
    matrix_from_spectra,
)
from batteryauth.models import (
    enumerate_grid,
    grid_search,
    macro_f1,
    make_spec,
    predict,
    predict_scores,
    stratified_kfold,
    train,
)
from batteryauth.records import CycleRecord
from batteryauth.seeding import child_seed
from batteryauth.selection import select_features
from batteryauth.synth import (
    condition_factors,
    demo_specs,
    gen_dataset,
    gen_eis_dataset,
    randles_impedance,
)


def _verdict(number: int, ok: bool, text: str) -> None:
    record_acceptance(number, ok, text)
    assert ok, f"criterion {number} failed: {text}"


# === shared synthetic experiments ===


@pytest.fixture(scope="module")
def cycle_experiment():
    """Criterion 6/7/9/11 share one cycle corpus and its identification run."""
    t0 = perf_counter()
    specs = demo_specs(noise_std=0.02)
    data = gen_dataset(specs, cells_per_spec=10, cycles_per_cell=20, seed=29)
    matrix = matrix_from_cycles(data)
    config = EvalConfig(seed=13, targets=("architecture", "model"), threads=1)
    report = run_identification(matrix, [make_spec("RandomForest", seed=5)], config)
    elapsed = perf_counter() - t0
    # the model-identification RandomForest winner, read by criteria 9 and 11
    winner = next(r.model for r in report.ident_results if r.task == "model_identification")
    return {"matrix": matrix, "report": report, "winner": winner, "elapsed": elapsed}


@pytest.fixture(scope="module")
def auth_experiment(cycle_experiment):
    t0 = perf_counter()
    config = EvalConfig(seed=13, targets=("model",), threads=1)
    report = run_authentication(
        cycle_experiment["matrix"], [make_spec("RandomForest", seed=5)], config
    )
    elapsed = perf_counter() - t0
    return {"report": report, "elapsed": elapsed}


# === 1: differential-capacity oracle ===


def test_criterion_1_dqdv_oracle():
    """A sigmoid-sum capacity curve has a closed-form dQ/dV; the processing
    chain must recover it to within 5% relative L2 error in under a second."""
    peaks = ((3.35, 1.6, 0.040), (3.70, 1.0, 0.050), (3.95, 0.7, 0.035))
    v = np.linspace(3.0, 4.2, 2000)
    q = np.zeros_like(v)
    for center, amplitude, width in peaks:
        q += amplitude / (1.0 + np.exp(-(v - center) / width))
    record = CycleRecord(voltage=v, capacity=q)

    t0 = perf_counter()
    cleaned = clean_dca(record)
    series = raw_differential_capacity(cleaned)
    smoothed = savgol_smooth(series, window=51, polyorder=3)
    elapsed = perf_counter() - t0

    truth = np.zeros_like(smoothed.grid_voltage)
    for center, amplitude, width in peaks:
        s = 1.0 / (1.0 + np.exp(-(smoothed.grid_voltage - center) / width))
        truth += amplitude / width * s * (1.0 - s)
    rel_l2 = float(np.linalg.norm(smoothed.dqdv - truth) / np.linalg.norm(truth))

    _verdict(
        1,
        rel_l2 < 0.05 and elapsed < 1.0,
        f"dQ/dV chain vs analytic sigmoid derivative: rel L2 {rel_l2:.2e} "
        f"(< 5e-2) in {elapsed * 1000:.0f} ms (< 1000 ms)",
    )


# === 2: Savitzky-Golay exactness ===


def test_criterion_2_savgol_exactness():
    expected = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
    weights_ok = bool(np.allclose(savgol_weights(5, 2), expected, atol=1e-12, rtol=0))

    worst = 0.0
    coeffs = (0.7, -1.3, 0.9, 0.4, -0.2)
    for window, polyorder in ((5, 2), (7, 3), (9, 4)):
        x = np.linspace(0.0, 1.0, 81)
        for degree in range(polyorder + 1):
            y = sum(c * x**j for j, c in enumerate(coeffs[: degree + 1]))
            y = np.asarray(y, dtype=float)
            series = DcaSeries(grid_voltage=x, dqdv=y, stage="raw")
            out = savgol_smooth(series, window=window, polyorder=polyorder).dqdv
            half = window // 2
            worst = max(worst, float(np.abs(out[half:-half] - y[half:-half]).max()))
    poly_ok = worst < 1e-9

    _verdict(
        2,
        weights_ok and poly_ok,
        f"window-5/order-2 weights match [-3,12,17,12,-3]/35; polynomial "
        f"reproduction interior max error {worst:.1e} (< 1e-9)",
    )


# === 3: feature golden values ===


def test_criterion_3_feature_goldens():
    ac = feature_autocorrelation(np.array([1.0, 2.0, 1.0, 2.0]), 1)
    quant = feature_quantile(np.array([1.0, 2.0, 3.0]), 0.5)
    peaks = feature_number_peaks(np.array([0.0, 1.0, 0.0, 2.0, 0.0]), 1)
    constant = np.full(64, 5.0)
    fft_ok = all(feature_fft_coefficient(constant, k)[0] == 0.0 for k in range(1, 16))

    _verdict(
        3,
        ac == -1.0 and quant == 2.0 and peaks == 2 and fft_ok,
        f"autocorrelation={ac}, quantile={quant}, peaks={peaks}, "
        f"constant-signal fft zero beyond dc={fft_ok} (all exact)",
    )


# === 4: selection power ===


def test_criterion_4_selection_power():
    """20 shifted + 200 pure-noise features, n=400: the mask must keep every
    informative feature and drop at least 80% of the noise, in >= 9/10 seeds."""
    t0 = perf_counter()
    successes = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = 400
        y = np.repeat([0, 1], n // 2)
        informative = rng.normal(0.0, 1.0, (n, 20)) + y[:, None] * 1.0
        noise = rng.normal(0.0, 1.0, (n, 200))
        keep = select_features(np.hstack([informative, noise]), y, fdr=0.05).keep
        if bool(keep[:20].all()) and int(keep[20:].sum()) <= 40:
            successes += 1
    elapsed = perf_counter() - t0

    _verdict(
        4,
        successes >= 9 and elapsed < 30.0,
        f"informative kept + >=80% noise rejected in {successes}/10 seeds "
        f"(need >= 9) in {elapsed:.1f} s (< 30 s)",
    )


# === 5: classifier oracles ===


def test_criterion_5_classifier_oracles():
    # Gaussian naive Bayes against scalar closed-form posteriors.
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    nb = train(make_spec("GaussianNB"), {"var_smoothing": 1e-9}, X, y)
    mean, scale = X.mean(), X.std()
    Xs = (X - mean) / scale
    eps = 1e-9 * Xs.var()
    mus = [Xs[y == c].mean() for c in (0, 1)]
    sig2 = [Xs[y == c].var() + eps for c in (0, 1)]
    queries = np.array([[4.0], [5.5], [7.0]])
    dens = np.array(
        [
            [
                0.5 / np.sqrt(2 * np.pi * sig2[c]) * np.exp(-((qs - mus[c]) ** 2) / (2 * sig2[c]))
                for c in (0, 1)
            ]
            for qs in ((queries - mean) / scale).ravel()
        ]
    )
    expected = dens / dens.sum(axis=1, keepdims=True)
    nb_ok = bool(np.allclose(predict_scores(nb, queries), expected, atol=1e-12, rtol=0))

    # Nearest neighbour and unconstrained tree memorize their training data.
    rng = np.random.default_rng(3)
    Xm = rng.normal(size=(12, 3))
    ym = rng.integers(0, 3, 12)
    knn = train(make_spec("KNN"), {"k": 1, "weights": "uniform"}, Xm, ym)
    knn_ok = bool(np.array_equal(predict(knn, Xm), ym))
    dt = train(make_spec("DecisionTree"), {"criterion": "gini", "max_depth": None}, Xm, ym)
    dt_ok = bool(np.array_equal(predict(dt, Xm), ym))

    # Grid search equals a brute-force re-evaluation over a 2x2 grid.
    Xg = rng.normal(size=(40, 2))
    Xg[:20] += 2.5
    yg = np.repeat([0, 1], 20)
    spec = make_spec("KNN", grid={"k": [1, 3], "weights": ["uniform", "distance"]}, seed=11)
    winner, _ = grid_search(spec, Xg, yg, k=5)
    folds = stratified_kfold(yg, k=5, seed=spec.seed)
    means = []
    for ci, hp in enumerate(enumerate_grid(spec)):
        cand_seed = child_seed(spec.seed, "candidate", ci)
        scores = [
            macro_f1(yg[val], predict(train(spec, hp, Xg[trn], yg[trn], seed=cand_seed), Xg[val]))
            for trn, val in folds
        ]
        means.append(float(np.mean(scores)))
    best = max(range(len(means)), key=lambda i: (means[i], -i))
    grid_ok = winner.hyperparams == enumerate_grid(spec)[best]

    _verdict(
        5,
        nb_ok and knn_ok and dt_ok and grid_ok,
        f"GaussianNB closed-form posteriors={nb_ok}, 1-NN memorizes={knn_ok}, "
        f"unconstrained tree memorizes={dt_ok}, grid winner = brute-force argmax={grid_ok}",
    )


# === 6: synthetic cycle identification ===


@pytest.mark.slow
def test_criterion_6_synthetic_identification(cycle_experiment):
    report = cycle_experiment["report"]
    elapsed = cycle_experiment["elapsed"]
    by_task = {r.task: r.metric_set.f1 for r in report.ident_results}
    model_f1 = by_task["model_identification"]
    arch_f1 = by_task["arch_identification"]

    _verdict(
        6,
        model_f1 >= 0.95 and arch_f1 >= 0.97 and elapsed < 300.0,
        f"held-out macro-F1 model={model_f1:.3f} (>= 0.95) "
        f"arch={arch_f1:.3f} (>= 0.97) in {elapsed:.0f} s (< 300 s single-threaded)",
    )


# === 7: synthetic authentication ===


@pytest.mark.slow
def test_criterion_7_synthetic_authentication(auth_experiment):
    cells = auth_experiment["report"].auth_results
    assert len(cells) == 20  # 5 legitimate labels x 4 balance levels
    mean_f1 = float(np.mean([c.metric_set.f1 for c in cells]))
    far_50 = float(np.mean([c.metric_set.far for c in cells if c.balance == 50]))
    frr_50 = float(np.mean([c.metric_set.frr for c in cells if c.balance == 50]))
    far_20 = float(np.mean([c.metric_set.far for c in cells if c.balance == 20]))

    _verdict(
        7,
        mean_f1 >= 0.93
        and far_50 <= 0.05
        and frr_50 <= 0.07
        and far_20 >= far_50 - 0.02,
        f"one-vs-rest over 4 balances: mean F1 {mean_f1:.3f} (>= 0.93), "
        f"50/50 FAR {far_50:.3f} (<= 0.05) FRR {frr_50:.3f} (<= 0.07), "
        f"20/80 FAR {far_20:.3f} >= {far_50 - 0.02:.3f}",
    )


# === 8: impedance path ===


def test_criterion_8_impedance_path():
    specs = demo_specs(noise_std=0.02)
    data = gen_eis_dataset(specs, cells_per_spec=5, sweeps_per_cell=8, seed=41)
    per_spec = {s.name: 0 for s in specs}
    for rec in data.records:
        per_spec[rec.meta.battery_model] += 1
    assert set(per_spec.values()) == {40}

    matrix = matrix_from_spectra(data)
    config = EvalConfig(seed=17, targets=("architecture",), selection_enabled=True, threads=1)
    report = run_identification(matrix, [make_spec("RandomForest", seed=7)], config)
    arch_f1 = report.ident_results[0].metric_set.f1

    # Circuit algebra: the real part collapses to the series resistance at
    # high frequency, and at the characteristic frequency of the RC arc the
    # diffusion-free impedance is exactly r0 + rct*(1-1j)/2.
    r0, rct, cdl, sigma = 0.02, 0.05, 1.0, 0.004
    z_hf = randles_impedance(np.array([1e7]), r0, rct, cdl, sigma)[0]
    hf_ok = abs(z_hf.real - r0) / r0 < 0.01
    f_char = 1.0 / (2.0 * np.pi * rct * cdl)
    z_apex = randles_impedance(np.array([f_char]), r0, rct, cdl, 0.0)[0]
    apex = r0 + rct * (1.0 - 1.0j) / 2.0
    apex_ok = abs(z_apex - apex) <= 1e-12 * abs(apex)
    assert condition_factors(50.0, 25.0) == (1.0, 1.0, 1.0, 1.0)

    _verdict(
        8,
        arch_f1 >= 0.95 and hf_ok and apex_ok,
        f"EIS architecture macro-F1 {arch_f1:.3f} (>= 0.95) over 5x40 varied "
        f"sweeps; high-f real part -> r0 within 1%={hf_ok}, arc apex exact={apex_ok}",
    )


# === 9: explanation sanity ===


@pytest.mark.slow
def test_criterion_9_explanation_sanity(cycle_experiment):
    rng = np.random.default_rng(9)
    n = 240
    y = np.repeat([0, 1], n // 2)
    X = rng.normal(size=(n, 6))
    X[:, 3] += y * 6.0

    dt = train(make_spec("DecisionTree"), {"criterion": "gini", "max_depth": None}, X, y)
    mdi = mdi_importance(dt).values
    dt_ok = (
        bool((mdi >= 0.0).all())
        and abs(float(mdi.sum()) - 1.0) <= 1e-9
        and int(np.argmax(mdi)) == 3
        and float(mdi[3]) > 0.9
    )

    rf = cycle_experiment["winner"]
    rf_mdi = mdi_importance(rf).values
    rf_ok = bool((rf_mdi >= 0.0).all()) and abs(float(rf_mdi.sum()) - 1.0) <= 1e-9

    perm = permutation_importance(dt, X, y, repeats=5, seed=1).values
    perm_ok = int(np.argmax(perm)) == 3

    _verdict(
        9,
        dt_ok and rf_ok and perm_ok,
        f"MDI non-negative and sums to 1 on tree and forest; single informative "
        f"feature MDI {float(mdi[3]):.3f} (> 0.9) and max permutation drop={perm_ok}",
    )


# === 10: determinism and metric identities ===


def _small_report(data, threads: int) -> tuple:
    matrix = matrix_from_cycles(data, threads=threads)
    config = EvalConfig(seed=3, targets=("model",), balances=(50,), threads=threads)
    specs = [
        make_spec("KNN", grid={"k": [1, 3]}, seed=1),
        make_spec("DecisionTree", grid={"max_depth": [4]}, seed=2),
    ]
    report = merge_reports(
        run_identification(matrix, specs, config),
        run_authentication(matrix, specs, config),
    )
    return report_to_json(report), report_to_csv(report)


def test_criterion_10_determinism_and_identities():
    data = gen_dataset(demo_specs()[:2], cells_per_spec=3, cycles_per_cell=4, seed=7, n_points=128)
    first = _small_report(data, threads=1)
    rerun = _small_report(data, threads=1)
    threaded = _small_report(data, threads=8)
    bytes_ok = (
        first[0].encode() == rerun[0].encode() == threaded[0].encode()
        and first[1].encode() == rerun[1].encode() == threaded[1].encode()
    )

    rng = np.random.default_rng(0)
    worst_f1, worst_frr = 0.0, 0.0
    checked = 0
    while checked < 1000:
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 1000, 4))
        if tp + fn == 0 or tp + fp == 0:
            continue
        m = metrics(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
        worst_f1 = max(worst_f1, abs(m.f1 * (m.precision + m.recall) - 2 * m.precision * m.recall))
        worst_frr = max(worst_frr, abs(m.frr - (1.0 - m.recall)))
        checked += 1
    identities_ok = worst_f1 < 1e-12 and worst_frr < 1e-12

    _verdict(
        10,
        bytes_ok and identities_ok,
        f"reports byte-identical across rerun and threads 1 vs 8={bytes_ok}; "
        f"on 1000 random counts max |F1*(P+R)-2PR|={worst_f1:.1e}, "
        f"max |FRR-(1-recall)|={worst_frr:.1e}",
    )


# === 11: inference latency ===


@pytest.mark.slow
def test_criterion_11_inference_latency(cycle_experiment):
    model = cycle_experiment["winner"]
    X = cycle_experiment["matrix"].values
    predict(model, X[:1])  # warm-up
    times = []
    for i in range(50):
        row = X[i : i + 1]
        t0 = perf_counter()
        predict(model, row)
        times.append(perf_counter() - t0)
    per_sample_ms = float(np.median(times)) * 1000.0

    _verdict(
        11,
        per_sample_ms < 50.0,
        f"forest per-sample inference {per_sample_ms:.2f} ms (< 50 ms)",
    )
