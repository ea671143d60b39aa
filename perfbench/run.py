"""perfbench: end-to-end and per-layer benchmark of batteryauth.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout; without it the benchmark exits non-zero and prints no
result. ``--seed`` makes the scoring inputs; each workload's run config
is fixed. Every process the benchmark starts gets a hermetic environment:
one BLAS/OpenMP thread, no ``BATTERYAUTH_THREADS``, a fixed hash seed.

``--trace 0`` starts three fresh worker processes one after another, with
a cold ``batteryauth authenticate --json`` subprocess after each. A worker
times its set-up, then repeats the workload's full ``batteryauth run`` for
a third of ``--seconds``; after each run it scores a slice of held-out
samples one at a time and the whole pool in one batch, with the models
its first run saved. It prints every end-to-end metric, then one JSON
line.

``--trace 1`` starts one worker that measures one run plus a scoring
section untraced, then again with spans around the layers' public
functions, and prints every per-layer metric instead.

Results, spans and worker logs go to ``.perfbench-out/<workload>-seed<N>-trace<T>/``.
See README.md for the metrics, the checks and why they are read as they are.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
PRESET = "perfbench/presets/hard_cells.json"

WORKERS = 3                 # fresh processes per run; set-up is their median
COLD_CALLS = 3              # cold `authenticate` subprocesses per run
REQUESTS = 780              # per-sample requests per run
BLOCKS = 10                 # request blocks per worker; runs and batch passes go between
TRACE_REQUESTS = 200        # per-sample requests in a traced scoring section
COLD_SAMPLES = 10
DEADLINE_S = 170.0          # whole run, so that it exits within 180 s
# Seed kept out of tuning, for validating a later claim (choosing-metrics 6.3).
HELD_OUT_SEED = 90210
# Training data and evaluation draws are fixed per workload; --seed makes the
# scoring inputs. Seed-driven training data moved the quality metrics (FAR,
# FRR) by 30-60% between seeds at any size a run can afford.
TRAIN_SEED = 7


def _eval(**extra) -> dict:
    return {"seed": TRAIN_SEED, "balances": [50], "folds": 3, "train_ratio": 0.5, **extra}


def _dca_synth(cells: int, records: int) -> dict:
    return {"specs": PRESET, "cells_per_spec": cells, "records_per_cell": records,
            "n_points": 256, "seed": TRAIN_SEED}


def _auth_winners(*kinds: str, target: str = "model", label: str = "alpha") -> list:
    """File names `run` gives the 50/50 authentication winners for one label."""
    return [f"model_auth_{target}_authentication_{label}_50_{k}.json" for k in kinds]


WORKLOADS = {
    "dca-trees": {
        "why": "DCA on the harder preset with RandomForest, DecisionTree, KNN and GaussianNB, "
               "threads 1: CART split search dominates; selection, EIS and the pool are bypassed",
        "config": {
            "pipeline": "dca", "threads": 1, "synth": _dca_synth(2, 6),
            "selection": {"enabled": False},
            "models": [{"kind": "RandomForest", "grid": {"n_estimators": [50]}},
                       {"kind": "DecisionTree"}, {"kind": "KNN"}, {"kind": "GaussianNB"}],
            "eval": _eval(),
        },
        "scoring_models": _auth_winners("RandomForest", "KNN"),
        "zero_layers": ("selection.calls", "eis.records"),
    },
    "eis-screen": {
        "why": "EIS on the harder preset with RandomForest and KNN, selection on, threads 2: "
               "Mann-Whitney screening, 2-channel extraction and the worker pool; DCA is bypassed",
        "config": {
            "pipeline": "eis", "threads": 2,
            "synth": {"specs": PRESET, "cells_per_spec": 2, "records_per_cell": 5,
                      "seed": TRAIN_SEED},
            "selection": {"enabled": True},
            "models": [{"kind": "RandomForest", "grid": {"n_estimators": [50]}}, {"kind": "KNN"}],
            "eval": _eval(targets=["architecture"]),
        },
        "scoring_models": _auth_winners(
            "RandomForest", "KNN", target="arch", label="layered-oxide"),
        "zero_layers": ("dca.records",),
    },
    "dca-solvers": {
        "why": "DCA on the harder preset with SVM, AdaBoost, QDA and NeuralNet on target model: "
               "the only user of the SMO solver, QDA, NeuralNet and AdaBoost's grid",
        "config": {
            "pipeline": "dca", "threads": 1, "synth": _dca_synth(2, 4),
            "selection": {"enabled": False},
            "models": [
                {"kind": "SVM", "grid": {"kernel": ["linear", "rbf"], "C": [0.1, 1.0],
                                         "gamma": ["scale"]}},
                {"kind": "AdaBoost"},
                {"kind": "QDA", "grid": {"reg": [0.1, 0.5]}},
                {"kind": "NeuralNet", "grid": {"hidden": [50], "activation": ["relu"],
                                               "solver": ["adam"]}},
            ],
            "eval": _eval(targets=["model"]),
        },
        "scoring_models": _auth_winners("SVM", "AdaBoost", "QDA", "NeuralNet"),
        "zero_layers": ("selection.calls", "eis.records"),
    },
}

END_TO_END = {
    "setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "ident_macro_f1": "1", "auth_f1": "1", "auth_far": "1", "auth_frr": "1",
    "score_mean_ms": "ms", "score_p95_ms": "ms", "score_samples_per_s": "1/s",
    "score_cold_s": "s",
}


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def hermetic_env(run_dir: Path) -> dict:
    tmp = run_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": str(run_dir),
        "TMPDIR": str(tmp),
        "LC_ALL": "C.UTF-8",
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def machine_info() -> dict:
    def cache_kb(name: str):
        try:
            return os.sysconf(name) // 1024 or None
        except (ValueError, OSError):
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={"PATH": os.environ.get("PATH", ""), "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_kb": cache_kb("SC_LEVEL2_CACHE_SIZE"),
        "l3_kb": cache_kb("SC_LEVEL3_CACHE_SIZE"),
        "git_commit": commit,
    }


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.name, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.spec = WORKLOADS[workload]
        self.t0 = time.monotonic()
        self.dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "inputs").mkdir(parents=True)
        (self.dir / "out").mkdir()
        self.env = hermetic_env(self.dir)
        self.config_path = self.dir / "inputs" / "config.json"
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.spec["config"], fh, indent=2, sort_keys=True)
        self.scoring_data = {"seed": 1_000_000 + seed, "cells_per_spec": 2, "records_per_cell": 4}

    def remaining(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.t0)
        if left <= 1:
            raise BenchError(f"deadline of {DEADLINE_S:.0f} s reached")
        return left

    def worker(self, role: int, **job) -> dict:
        job.update(
            role=role, trace=self.trace, root=str(ROOT), dir=str(self.dir),
            config=str(self.config_path), inputs=str(self.dir / "inputs"),
            out=str(self.dir / "out"), result=str(self.dir / f"worker{role}.json"),
            scoring_models=self.spec["scoring_models"], scoring_data=self.scoring_data,
            cold_samples=COLD_SAMPLES,
        )
        job_path = self.dir / f"job{role}.json"
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh, indent=2)
        with open(self.dir / f"worker{role}.log", "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(job_path)],
                    cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=self.remaining(),
                )
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"worker {role} timed out") from exc
        try:
            with open(job["result"], "r", encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError) as exc:
            raise BenchError(f"worker {role} exited {proc.returncode} without a result") from exc
        if not result.get("finished"):
            raise BenchError(f"worker {role} failed: {result['unexpected'][-1:]}")
        return result

    def cold_call(self, model_file: str) -> dict:
        args = [sys.executable, "-m", "batteryauth.cli", "authenticate", "--model", model_file,
                "--sample", str(self.dir / "inputs" / "cold.csv"), "--json"]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(args, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:
            raise BenchError("cold authenticate call timed out") from exc
        wall = time.perf_counter() - t0
        try:
            labels = [r["label"] for r in json.loads(proc.stdout)["results"]]
        except (ValueError, KeyError, TypeError):
            labels = None
        return {"wall_s": wall, "exit": proc.returncode, "labels": labels,
                "stderr": proc.stderr.strip()[-500:]}

    # --- modes ---

    def measure(self) -> dict:
        share, requests = self.seconds / WORKERS, REQUESTS // WORKERS
        model_file = str(self.dir / "out" / "r0-0" / self.spec["scoring_models"][0])
        workers, cold = [], []
        for role in range(WORKERS):
            workers.append(self.worker(
                role, run_budget_s=share, requests=[role * requests, requests], blocks=BLOCKS))
            cold.append(self.cold_call(model_file))

        runs = [r for w in workers for r in w["runs"]]
        blocks = [b for w in workers for b in w["latency_blocks_ms"]]
        latencies = [v for b in blocks for v in b]
        p95 = statistics.quantiles(latencies, n=20, method="inclusive")[18]
        quality = report_quality(self.dir / "out" / "r0-0" / "report.json")
        # The machine's speed drifts by up to 1.6x for stretches of seconds to
        # minutes. Samples are spread evenly over the run and averaged: a
        # median or a minimum jumps between the slow and the fast level as
        # their mix crosses its quantile, a mean moves with the mix.
        metrics = {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "run_s": statistics.fmean(r["wall_s"] for r in runs),
            "cpu_s": statistics.fmean(r["cpu_s"] for r in runs),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
            **quality,
            "score_mean_ms": statistics.fmean(latencies),
            "score_p95_ms": p95,
            "score_samples_per_s": statistics.harmonic_mean(
                [v for w in workers for v in w["samples_per_s"]]),
            "score_cold_s": statistics.fmean(c["wall_s"] for c in cold),
        }
        model_hashes = {
            file_sha256(self.dir / "out" / f"r{w['role']}-0" / name)
            for w in workers for name in self.spec["scoring_models"]
        }
        checks = {
            "report_json_identical": len({r["report_sha256"] for r in runs}) == 1,
            "scoring_models_identical": len(model_hashes) == len(self.spec["scoring_models"]),
            "per_sample_matches_batch": all(
                w["checks"].get("per_sample_matches_batch") for w in workers),
            "authenticate_labels_match": all(
                c["exit"] == 0 and c["labels"] == workers[0]["cold_labels"] for c in cold),
            "no_unexpected_exceptions": not any(w["unexpected"] for w in workers),
            "p95_has_10_beyond": sum(v > p95 for v in latencies) >= 10,
            "metrics_positive_finite": all(
                math.isfinite(v) and v > 0 for v in metrics.values()),
        }
        return {
            "metrics": metrics, "checks": checks,
            "attempted": sum(w["attempted"] for w in workers) + COLD_CALLS,
            "failed": sum(w["failed"] for w in workers) + sum(c["exit"] != 0 for c in cold),
            "detail": {
                "runs": runs, "run_count": len(runs), "score_requests": len(latencies),
                "latency_blocks_ms": blocks,
                "setup_s": [w["setup_s"] for w in workers],
                "import_s": [w["import_s"] for w in workers],
                "samples_per_s": [v for w in workers for v in w["samples_per_s"]],
                "cold": cold, "versions": workers[0].get("versions"),
                "unexpected": [u for w in workers for u in w["unexpected"]],
            },
        }

    def measure_traced(self) -> dict:
        w = self.worker(0, requests=[0, TRACE_REQUESTS])
        layer = w["layer"]
        checks = {
            "report_json_identical": len({r["report_sha256"] for r in w["runs"]}) == 1,
            "no_unexpected_exceptions": not w["unexpected"],
            "bypassed_layers_zero": all(layer[k] == 0 for k in self.spec["zero_layers"]),
            "per_sample_matches_batch": bool(w["checks"].get("per_sample_matches_batch")),
        }
        return {
            "metrics": layer, "checks": checks,
            "attempted": w["attempted"], "failed": w["failed"],
            "detail": {"section_s": w["section_s"], "versions": w.get("versions"),
                       "spans": str(self.dir / "spans.json"), "unexpected": w["unexpected"]},
        }


def report_quality(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    ident = [r["metrics"]["f1"] for r in report["identification"]]
    auth = [r["metrics"] for r in report["authentication"]]
    if not ident or not auth:
        raise BenchError("the run's report lacks identification or authentication results")
    return {
        "ident_macro_f1": statistics.fmean(ident),
        "auth_f1": statistics.fmean(m["f1"] for m in auth),
        "auth_far": statistics.fmean(m["far"] for m in auth),
        "auth_frr": statistics.fmean(m["frr"] for m in auth),
    }


def file_sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    for needed in (ROOT / "src" / "batteryauth" / "__init__.py", ROOT / PRESET):
        if not needed.is_file():
            print(f"perfbench: {needed} not found; run from the root of a batteryauth checkout",
                  file=sys.stderr)
            return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        measured = run.measure_traced() if run.trace else run.measure()
    except BenchError as exc:
        print(f"perfbench: {exc}; logs in {run.dir}", file=sys.stderr)
        return 1

    if run.trace:
        from tracing import LAYER_METRICS

        units = {k: v[0] for k, v in LAYER_METRICS.items()}
        mapping = {k: {"moves": v[2], "workloads": v[3]} for k, v in LAYER_METRICS.items()}
    else:
        units, mapping = END_TO_END, None
    correct = all(measured["checks"].values())
    result = {
        "workload": run.name, "why": run.spec["why"], "seed": run.seed,
        "held_out_seed": HELD_OUT_SEED, "seconds": run.seconds, "trace": run.trace,
        "correct": correct, "checks": measured["checks"],
        "attempted": measured["attempted"], "failed": measured["failed"],
        "metrics": {k: {"value": measured["metrics"][k], "unit": units[k]} for k in units},
        "per_layer_map": mapping, "machine": machine_info(), "env": run.env,
        "config": str(run.config_path), "detail": measured["detail"],
    }
    with open(run.dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)

    for name, entry in result["metrics"].items():
        print(f"{run.name} {name} = {entry['value']:.6g} {entry['unit']}")
    for name, ok in measured["checks"].items():
        print(f"{run.name} check {name}: {'ok' if ok else 'FAILED'}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
