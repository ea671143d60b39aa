"""End-to-end command-line checks, all in-process through main()."""
import fcntl
import json
import os
import subprocess
import sys

import pytest

import batteryauth
from batteryauth.cli import main
from batteryauth.io_csv import write_cycle_csv, write_eis_csv
from batteryauth.synth import (
    SohDrift,
    SyntheticCellSpec,
    gen_cycle,
    gen_eis,
    specs_to_json,
)

_DRIFT = SohDrift(peak_shift_v_per_percent=0.001, amplitude_fade_per_percent=0.004)

SPECS = (
    SyntheticCellSpec(
        name="red",
        architecture="arch-a",
        dca_peaks=((3.4, 2.0, 0.05), (3.9, 1.0, 0.04)),
        voltage_window=(3.0, 4.2),
        randles=(0.02, 0.05, 1.0, 0.004),
        noise_std=0.02,
        soh_drift=_DRIFT,
    ),
    SyntheticCellSpec(
        name="blue",
        architecture="arch-b",
        dca_peaks=((3.6, 1.5, 0.06),),
        voltage_window=(3.0, 4.2),
        randles=(0.03, 0.08, 0.7, 0.008),
        noise_std=0.02,
        soh_drift=_DRIFT,
    ),
)


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "cells.json"
    path.write_text(specs_to_json(SPECS), encoding="utf-8")
    return str(path)


def _config(spec_file, **overrides):
    # sample scoring in `authenticate` processes with the default chain, so
    # the run sticks to default dca processing too; output_dir is always
    # overridden on the command line to keep the snapshot fixed
    cfg = {
        "pipeline": "dca",
        "output_dir": "unused-out",
        "synth": {
            "specs": spec_file,
            "cells_per_spec": 4,
            "records_per_cell": 6,
            "n_points": 128,
            "seed": 3,
        },
        "models": [{"kind": "KNN", "grid": {"k": [1], "weights": ["uniform"]}}],
        "eval": {"seed": 1, "folds": 3, "targets": ["model"], "balances": [50]},
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def run_artifacts(spec_file, tmp_path_factory):
    """One full `run` shared by the read-only assertions below."""
    tmp_path = tmp_path_factory.mktemp("run")
    out_dir = str(tmp_path / "out")
    cfg_path = _write(tmp_path, "cfg.json", _config(spec_file))
    code = main(["run", "--config", cfg_path, "--output-dir", out_dir])
    assert code == 0
    return out_dir, cfg_path, tmp_path


class TestRun:
    def test_artifacts_and_summary(self, run_artifacts, capsys):
        out_dir, cfg_path, _ = run_artifacts
        files = sorted(os.listdir(out_dir))
        assert "report.json" in files
        assert "report.csv" in files
        assert "model_ident_model_identification_KNN.json" in files
        assert "model_auth_model_authentication_red_50_KNN.json" in files
        assert "model_auth_model_authentication_blue_50_KNN.json" in files

        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["schema_version"] == "1"
        assert payload["provenance"]["synth_seed"] == 3
        assert payload["provenance"]["eval_seed"] == 1
        assert len(payload["provenance"]["config_sha256"]) == 64
        ident = payload["identification"]
        assert len(ident) == 1 and ident[0]["kind"] == "KNN"
        # two well-separated synthetic cell types: the task is easy
        assert ident[0]["metrics"]["f1"] == 1.0
        assert len(payload["authentication"]) == 2

        with open(os.path.join(out_dir, "report.csv"), encoding="utf-8") as fh:
            header = fh.readline().strip()
        assert header == "task,target,kind,legit_label,balance,accuracy,precision,recall,f1,far,frr"

    def test_rerun_is_byte_identical(self, run_artifacts, tmp_path):
        out_dir, cfg_path, _ = run_artifacts
        out2 = str(tmp_path / "out2")
        assert main(["run", "--config", cfg_path, "--output-dir", out2]) == 0
        for name in ("report.json", "report.csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                first = fh.read()
            with open(os.path.join(out2, name), "rb") as fh:
                second = fh.read()
            assert first == second, name

    def test_thread_env_override_keeps_bytes(self, run_artifacts, tmp_path, monkeypatch):
        out_dir, cfg_path, _ = run_artifacts
        out3 = str(tmp_path / "out3")
        monkeypatch.setenv("BATTERYAUTH_THREADS", "4")
        assert main(["run", "--config", cfg_path, "--output-dir", out3]) == 0
        with open(os.path.join(out_dir, "report.json"), "rb") as fh:
            first = fh.read()
        with open(os.path.join(out3, "report.json"), "rb") as fh:
            third = fh.read()
        assert first == third

    def test_config_output_dir_used_without_flag(self, spec_file, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = _write(tmp_path, "cfg.json", _config(spec_file, output_dir="from-config"))
        assert main(["run", "--config", cfg_path]) == 0
        assert os.path.exists(os.path.join(str(tmp_path), "from-config", "report.json"))

    def test_summary_lines_printed(self, spec_file, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        cfg_path = _write(tmp_path, "cfg.json", _config(spec_file))
        assert main(["run", "--config", cfg_path, "--output-dir", out_dir]) == 0
        out = capsys.readouterr().out
        assert "model_identification KNN: macro_f1=" in out
        assert "model_authentication:KNN: mean_f1=" in out
        assert "report: " in out

    def test_invalid_config_exits_2(self, spec_file, tmp_path, capsys):
        bad = _config(spec_file, dca={"savgol_window": 20})
        cfg_path = _write(tmp_path, "cfg.json", bad)
        assert main(["run", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err
        assert "dca.savgol_window" in err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err


@pytest.fixture(scope="module")
def cycle_sample(tmp_path_factory):
    """Unseen cycles from both cell types (fresh seeds, mid SOH)."""
    tmp_path = tmp_path_factory.mktemp("samples")
    recs = [
        gen_cycle(SPECS[0], soh_percent=93.0, n_points=128, seed=901, cell_id="probe-red"),
        gen_cycle(SPECS[1], soh_percent=93.0, n_points=128, seed=902, cell_id="probe-blue"),
    ]
    path = tmp_path / "cycles.csv"
    path.write_text(write_cycle_csv(recs), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def eis_sample(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("samples-eis")
    recs = [gen_eis(SPECS[0], n_freq=32, seed=903, cell_id="probe-eis")]
    path = tmp_path / "sweeps.csv"
    path.write_text(write_eis_csv(recs), encoding="utf-8")
    return str(path)


class TestAuthenticate:
    def test_identification_model_names_classes(self, run_artifacts, cycle_sample, capsys):
        out_dir, _, _ = run_artifacts
        model = os.path.join(out_dir, "model_ident_model_identification_KNN.json")
        assert main(["authenticate", "--model", model, "--sample", cycle_sample]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 2
        assert out[0].startswith("probe-red/0: red")
        assert out[1].startswith("probe-blue/0: blue")

    def test_auth_model_says_authenticated(self, run_artifacts, cycle_sample, capsys):
        out_dir, _, _ = run_artifacts
        model = os.path.join(out_dir, "model_auth_model_authentication_red_50_KNN.json")
        assert main(["authenticate", "--model", model, "--sample", cycle_sample]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert "probe-red/0: authenticated" in out[0]
        assert "probe-blue/0: not_authenticated" in out[1]

    def test_json_mode(self, run_artifacts, cycle_sample, capsys):
        out_dir, _, _ = run_artifacts
        model = os.path.join(out_dir, "model_ident_model_identification_KNN.json")
        assert main(["authenticate", "--model", model, "--sample", cycle_sample, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model_kind"] == "KNN"
        assert payload["task"] == "identification"
        labels = [r["label"] for r in payload["results"]]
        assert labels == ["red", "blue"]
        for r in payload["results"]:
            assert r["score"] is None or 0.0 <= r["score"] <= 1.0

    def test_wrong_record_kind_exits_1(self, run_artifacts, eis_sample, capsys):
        out_dir, _, _ = run_artifacts
        model = os.path.join(out_dir, "model_ident_model_identification_KNN.json")
        assert main(["authenticate", "--model", model, "--sample", eis_sample]) == 1
        err = capsys.readouterr().err
        assert "DimensionMismatch" in err
        assert "v1:ch1" in err and "v1:ch2" in err

    def test_corrupt_model_exits_1(self, cycle_sample, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not a model", encoding="utf-8")
        assert main(["authenticate", "--model", str(bad), "--sample", cycle_sample]) == 1
        assert "FormatVersionMismatch" in capsys.readouterr().err

    def test_closed_pipe_exits_141_quietly(self, run_artifacts, tmp_path):
        # `authenticate ... | head -1`: the reader takes the first line and
        # closes its end while the command still has lines to write
        out_dir, _, _ = run_artifacts
        model = os.path.join(out_dir, "model_ident_model_identification_KNN.json")
        recs = [gen_cycle(SPECS[i % 2], soh_percent=93.0, n_points=128, seed=2000 + i,
                          cell_id=f"probe-{i}") for i in range(400)]
        sample = tmp_path / "many.csv"
        sample.write_text(write_cycle_csv(recs), encoding="utf-8")
        src = os.path.dirname(os.path.dirname(os.path.abspath(batteryauth.__file__)))
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        read_fd, write_fd = os.pipe()
        # a one-page pipe: the 400 lines cannot all be written before the close
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        proc = subprocess.Popen(
            [sys.executable, "-m", "batteryauth.cli", "authenticate", "--model", model,
             "--sample", str(sample)],
            stdout=write_fd, stderr=subprocess.PIPE, env=env,
        )
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as reader:
            first = reader.readline()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
        assert first.startswith(b"probe-0/0: ")
        assert err == b""

    def test_missing_sample_exits_2(self, run_artifacts, tmp_path, capsys):
        out_dir, _, _ = run_artifacts
        model = os.path.join(out_dir, "model_ident_model_identification_KNN.json")
        assert main(["authenticate", "--model", model, "--sample", str(tmp_path / "nope.csv")]) == 2
        assert "cannot read sample file" in capsys.readouterr().err


class TestBench:
    def test_csv_output(self, run_artifacts, cycle_sample, capsys):
        out_dir, _, _ = run_artifacts
        model = os.path.join(out_dir, "model_ident_model_identification_KNN.json")
        assert main(["bench", "--model", model, "--sample", cycle_sample, "--repeats", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "kind,task,samples,repeats,median_ms_per_sample,model_size_kb,load_ms"
        kind, task, samples, repeats, median_ms, size_kb, load_ms = lines[1].split(",")
        assert kind == "KNN" and task == "identification"
        assert samples == "2" and repeats == "2"
        assert float(median_ms) > 0 and float(size_kb) > 0
        assert float(load_ms) > 0

    def test_multiple_models_one_row_each(self, run_artifacts, cycle_sample, capsys):
        out_dir, _, _ = run_artifacts
        m1 = os.path.join(out_dir, "model_ident_model_identification_KNN.json")
        m2 = os.path.join(out_dir, "model_auth_model_authentication_red_50_KNN.json")
        assert main(["bench", "--model", m1, m2, "--sample", cycle_sample]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        assert lines[2].split(",")[1] == "authentication"

    def test_zero_repeats_exits_2(self, run_artifacts, cycle_sample, capsys):
        out_dir, _, _ = run_artifacts
        model = os.path.join(out_dir, "model_ident_model_identification_KNN.json")
        assert main(["bench", "--model", model, "--sample", cycle_sample, "--repeats", "0"]) == 2
        assert "--repeats" in capsys.readouterr().err
