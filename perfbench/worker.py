"""One measured process of a perfbench run.

Started by ``run.py`` in a fresh interpreter with a hermetic environment,
so the first thing it times is ``import batteryauth`` plus config load.
Then it repeats the workload's full ``batteryauth run`` for its share of
the run time, between blocks of per-sample scoring requests and batch
passes. In trace mode it measures one run plus a scoring section of fixed
size untraced, then again with spans on.

Usage: python3 perfbench/worker.py JOB_JSON   (JOB_JSON is written by run.py)
"""
import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


BATCHES = 4                 # the scoring pool is cut into this many batch CSVs


def cpu_now() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Worker:
    def __init__(self, job: dict) -> None:
        self.job = job
        self.failed = 0
        self.attempted = 0
        self.unexpected = []
        self.request_labels = {}
        self.batch_labels = {}
        self.result = {"role": job["role"]}

    # --- set-up ---

    def setup_program(self) -> None:
        import batteryauth  # noqa: F401  (the import is what set-up measures)
        from batteryauth import config

        self.result["import_s"] = time.perf_counter() - T_START
        self.cfg = config.load_config(self.job["config"])
        self.result["setup_s"] = time.perf_counter() - T_START
        from batteryauth import errors, models

        # Module objects, not functions: each call looks the function up on
        # its module, so the tracer's wrappers see it.
        self.api = models
        self.expected_error = errors.BatteryAuthError
        src = os.path.realpath(os.path.join(self.job["root"], "src"))
        if not os.path.realpath(batteryauth.__file__).startswith(src + os.sep):
            raise RuntimeError(f"imported batteryauth from {batteryauth.__file__}, not from {src}")

    def load_models(self) -> None:
        """Load the scoring models and warm each one up."""
        self.models = [self.api.load_model(p) for p in self.model_paths()]
        self.score_one(self.requests[0])

    def model_paths(self):
        out = os.path.join(self.job["out"], f"r{self.job['role']}-0")
        return [os.path.join(out, name) for name in self.job["scoring_models"]]

    # --- inputs ---

    def write_inputs(self) -> None:
        """Held-out scoring samples from their own synth seed (run 0 only)."""
        from batteryauth import io_csv, synth

        gen = self.job["scoring_data"]
        with open(self.cfg.synth.specs_path, "r", encoding="utf-8") as fh:
            specs = synth.specs_from_json(fh.read())
        if self.cfg.pipeline == "dca":
            data = synth.gen_dataset(
                specs, cells_per_spec=gen["cells_per_spec"], cycles_per_cell=gen["records_per_cell"],
                seed=gen["seed"], n_points=self.cfg.synth.n_points,
            )
            write = io_csv.write_cycle_csv
        else:
            data = synth.gen_eis_dataset(
                specs, cells_per_spec=gen["cells_per_spec"], sweeps_per_cell=gen["records_per_cell"],
                seed=gen["seed"], n_freq=self.cfg.synth.n_freq,
            )
            write = io_csv.write_eis_csv
        records = list(data.records)
        inputs = self.job["inputs"]
        size = len(records) // BATCHES
        for h in range(BATCHES):
            with open(os.path.join(inputs, f"batch{h}.csv"), "w", encoding="utf-8") as fh:
                fh.write(write(records[h * size:(h + 1) * size]))
        with open(os.path.join(inputs, "cold.csv"), "w", encoding="utf-8") as fh:
            fh.write(write(records[: self.job["cold_samples"]]))
        with open(os.path.join(inputs, "requests.json"), "w", encoding="utf-8") as fh:
            json.dump([write([r]) for r in records], fh)

    def read_inputs(self) -> None:
        from batteryauth import dca, eis, features, io_csv

        with open(os.path.join(self.job["inputs"], "requests.json"), "r", encoding="utf-8") as fh:
            self.requests = json.load(fh)
        self.batch_texts = []
        for h in range(BATCHES):
            with open(os.path.join(self.job["inputs"], f"batch{h}.csv"), "r", encoding="utf-8") as fh:
                self.batch_texts.append(fh.read())
        # Functions are looked up on their modules at call time, so the
        # tracer's wrappers see the scoring path's calls.
        if self.cfg.pipeline == "dca":
            catalog = features.catalog_default(1)
            self.parse = lambda text: io_csv.parse_cycle_csv(text)
            self.featurize = lambda rec: features.extract_features(
                [dca.process_cycle(rec).dqdv], catalog).values
        else:
            catalog = features.catalog_default(2)
            self.parse = lambda text: io_csv.parse_eis_csv(text)

            def featurize(rec):
                ch = eis.process_spectrum(rec)
                return features.extract_features([ch.re_z, ch.neg_im_z], catalog).values

            self.featurize = featurize

    # --- the full run ---

    def one_run(self, tag: str) -> dict:
        from batteryauth import cli

        out = os.path.join(self.job["out"], tag)
        err = io.StringIO()
        c0, t0 = cpu_now(), time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["run", "--config", self.job["config"], "--output-dir", out])
        wall, cpu = time.perf_counter() - t0, cpu_now() - c0
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            message = err.getvalue().strip()
            if message.startswith("unexpected"):
                self.unexpected.append(f"run {tag}: {message}")
            raise RuntimeError(f"run {tag} exited {rc}: {message}")
        with open(os.path.join(out, "report.json"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return {"tag": tag, "wall_s": wall, "cpu_s": cpu, "report_sha256": digest}

    # --- scoring ---

    def score_one(self, text: str) -> tuple:
        """One suspect sample through the full path, scored by every model."""
        self.attempted += 1
        try:
            row = self.featurize(self.parse(text)[0]).reshape(1, -1)
            labels = []
            for model in self.models:
                labels.append(int(self.api.predict(model, row)[0]))
                self.api.predict_scores(model, row)
        except self.expected_error as exc:
            self.failed += 1
            return (f"error: {type(exc).__name__}",)
        return tuple(labels)

    def score_loop(self, start: int, count: int) -> list:
        """Closed loop, one caller: each request waits for the previous one."""
        latencies = []
        for j in range(start, start + count):
            i = j % len(self.requests)
            t0 = time.perf_counter()
            try:
                self.request_labels[i] = self.score_one(self.requests[i])
            except Exception:  # noqa: BLE001 - reported as a failed check
                self.unexpected.append(traceback.format_exc(limit=3))
                continue
            latencies.append(1e3 * (time.perf_counter() - t0))
        return latencies

    def score_batch(self, part: int) -> float:
        """One part of the pool as a CSV, parsed and scored in one pass per
        model, as ``authenticate`` does; returns samples scored per second."""
        import numpy as np

        labels = []
        t0 = time.perf_counter()
        for model in self.models:
            X = np.stack([self.featurize(rec) for rec in self.parse(self.batch_texts[part])])
            labels.append([int(v) for v in self.api.predict(model, X)])
            self.api.predict_scores(model, X)
        elapsed = time.perf_counter() - t0
        self.attempted += len(self.models) * len(X)
        first = part * (len(self.requests) // BATCHES)
        for j, per_sample in enumerate(zip(*labels)):
            self.batch_labels[first + j] = per_sample
        return len(self.models) * len(X) / elapsed

    def check_scoring(self) -> None:
        self.result["checks"]["per_sample_matches_batch"] = (
            set(self.batch_labels) == set(range(len(self.requests)))
            and all(self.batch_labels[i] == labels for i, labels in self.request_labels.items())
        )
        model = self.models[0]
        cold = [self.batch_labels[i][0] for i in range(self.job["cold_samples"])]
        if model.task == "authentication":
            self.result["cold_labels"] = [
                "authenticated" if v == 1 else "not_authenticated" for v in cold
            ]
        else:
            self.result["cold_labels"] = [model.class_names[v] for v in cold]

    # --- modes ---

    def measure(self) -> None:
        """Full runs for this worker's share of --seconds, spread among short
        blocks of per-sample requests, every other block followed by one
        batch pass, so that every metric samples the whole process lifetime
        rather than one stretch of a machine whose speed drifts."""
        job = self.job
        self.result["checks"] = {}
        if job["role"] == 0:
            self.write_inputs()
        self.read_inputs()
        runs = self.result["runs"] = [self.one_run(f"r{job['role']}-0")]
        n_runs = max(1, round(job["run_budget_s"] / runs[0]["wall_s"]))
        self.load_models()
        start, count = job["requests"]
        n_blocks = job["blocks"]
        blocks = self.result["latency_blocks_ms"] = []
        throughput = self.result["samples_per_s"] = []
        for b in range(n_blocks):
            if b * n_runs // n_blocks == len(runs):
                runs.append(self.one_run(f"r{job['role']}-{len(runs)}"))
            lo, hi = start + count * b // n_blocks, start + count * (b + 1) // n_blocks
            blocks.append(self.score_loop(lo, hi - lo))
            if b % 2 == 0:
                throughput.append(self.score_batch(b // 2 % BATCHES))
        self.check_scoring()

    def measure_traced(self) -> None:
        """One run plus a scoring section, once untraced and once traced."""
        from tracing import Tracer, layer_metrics

        job = self.job
        self.result["checks"] = {}
        self.write_inputs()
        self.read_inputs()
        runs = self.result["runs"] = [self.one_run("r0-0")]

        def section(tag: str) -> float:
            t0 = time.perf_counter()
            runs.append(self.one_run(tag))
            self.load_models()
            self.score_loop(0, job["requests"][1])
            for part in range(BATCHES):
                self.score_batch(part)
            return time.perf_counter() - t0

        untraced_s = section("r0-1")
        tracer = Tracer()
        tracer.install()
        try:
            traced_s = section("r0-2")
        finally:
            tracer.uninstall()
        self.check_scoring()
        tracer.write(os.path.join(job["dir"], "spans.json"))
        self.result["layer"] = layer_metrics(tracer, {
            "run_wall_s": runs[-1]["wall_s"], "run_cpu_s": runs[-1]["cpu_s"],
            "threads": self.cfg.threads, "import_s": self.result["import_s"],
            "overhead_s": traced_s - untraced_s,
        })
        self.result["section_s"] = {"untraced": untraced_s, "traced": traced_s}

    def versions(self) -> None:
        import numpy
        import scipy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        self.result["versions"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        }


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        job = json.load(fh)
    worker = Worker(job)
    try:
        worker.setup_program()
        if job["trace"]:
            worker.measure_traced()
        else:
            worker.measure()
        worker.versions()
        worker.result["finished"] = True
    except Exception:  # noqa: BLE001 - the parent reports it and fails the run
        worker.unexpected.append(traceback.format_exc(limit=6))
    worker.result.update(
        attempted=worker.attempted,
        failed=worker.failed,
        unexpected=worker.unexpected,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(worker.result, fh)
    return 0 if not worker.unexpected else 1


if __name__ == "__main__":
    sys.exit(main())
