"""End-to-end command-line checks, all in-process through main()."""
import csv
import fcntl
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from conftest import deadline
from reference import specs_to_json

import batteryauth
from batteryauth import cli
from batteryauth.cli import main
from batteryauth.dca import DcaConfig
from batteryauth.eis import EisConfig
from batteryauth.errors import ConfigError, DimensionMismatch, FormatVersionMismatch
from batteryauth.features import matrix_from_cycles, matrix_from_spectra
from batteryauth.io_csv import write_cycle_csv, write_eis_csv
from batteryauth.models import (
    FORMAT_VERSION,
    KINDS,
    classify,
    load_model,
    make_spec,
    model_to_json_dict,
    predict,
    save_model,
    train,
)
from batteryauth.models.base import _MODULES
from batteryauth.models.persist import _decode, _encode
from batteryauth.records import build_catalog
from batteryauth.synth import (
    SohDrift,
    SyntheticCellSpec,
    gen_cycle,
    gen_dataset,
    gen_eis,
    gen_eis_dataset,
    specs_from_json,
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
    # output_dir is always overridden on the command line to keep the
    # snapshot fixed
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


def _without_config(report: dict) -> dict:
    del report["config"], report["provenance"]["config_sha256"]
    return report


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

    def test_config_threads_keep_bytes(self, run_artifacts, spec_file, tmp_path):
        out_dir, _, _ = run_artifacts
        out3 = str(tmp_path / "out3")
        cfg_path = _write(tmp_path, "cfg4.json", _config(spec_file, threads=4))
        assert main(["run", "--config", cfg_path, "--output-dir", out3]) == 0
        names = sorted(os.listdir(out_dir))
        assert sorted(os.listdir(out3)) == names
        for name in names:
            with open(os.path.join(out_dir, name), "rb") as fh:
                first = fh.read()
            with open(os.path.join(out3, name), "rb") as fh:
                third = fh.read()
            if name == "report.json":
                # the config snapshot and its hash carry the thread count itself
                first, third = (_without_config(json.loads(b)) for b in (first, third))
            assert first == third, name

    def test_failed_report_move_keeps_old_report_and_no_temporary(self, spec_file, tmp_path,
                                                                   monkeypatch, capsys):
        out_dir = tmp_path / "out"
        assert main(["run", "--config", _write(tmp_path, "cfg.json", _config(spec_file)),
                     "--output-dir", str(out_dir)]) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        move = os.replace

        def refuse_report(src, dst):
            if os.path.basename(dst) == "report.json":
                raise OSError("disk went away")
            move(src, dst)

        monkeypatch.setattr("batteryauth.models.persist.os.replace", refuse_report)
        cfg = _config(spec_file, eval={"seed": 2, "folds": 3, "targets": ["model"], "balances": [50]})
        assert main(["run", "--config", _write(tmp_path, "cfg2.json", cfg),
                     "--output-dir", str(out_dir)]) == 1
        assert "disk went away" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_label_with_colon_keeps_its_balanced_auth_model(self, tmp_path):
        # ":" is not a file name character; the label keeps its place in the name
        specs = (replace(SPECS[0], name="alpha:v2"), replace(SPECS[1], name="bravo"))
        spec_path = tmp_path / "cells.json"
        spec_path.write_text(specs_to_json(specs), encoding="utf-8")
        cfg = _config(str(spec_path))
        cfg["eval"]["balances"] = [20, 50]
        out_dir = str(tmp_path / "out")
        assert main(["run", "--config", _write(tmp_path, "cfg.json", cfg), "--output-dir", out_dir]) == 0
        assert sorted(f for f in os.listdir(out_dir) if f.startswith("model_auth")) == [
            "model_auth_model_authentication_alpha_v2_50_KNN.json",
            "model_auth_model_authentication_bravo_50_KNN.json",
        ]

    def test_labels_sharing_a_model_file_name_exit_2_before_any_fit(self, tmp_path, capsys,
                                                                    monkeypatch):
        # "cell a" and "cell_a" both save as ..._cell_a_50_KNN.json; one
        # winner would overwrite the other
        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted")

        monkeypatch.setattr(cli, "run_identification", no_fit)
        monkeypatch.setattr(cli, "run_authentication", no_fit)
        specs = (replace(SPECS[0], name="cell a"), replace(SPECS[1], name="cell_a"))
        spec_path = tmp_path / "cells.json"
        spec_path.write_text(specs_to_json(specs), encoding="utf-8")
        cfg_path = _write(tmp_path, "cfg.json", _config(str(spec_path)))
        assert main(["run", "--config", cfg_path, "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "batteryauth.errors.ConfigError: model labels 'cell a' and 'cell_a' both save their "
            "models as model_auth_model_authentication_cell_a_50_KNN.json; rename one"]
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize("key,value,message", [
        ("voltage_window", [3.0, math.inf], "red: voltage_window must be finite, got (3.0, inf)"),
        ("dca_peaks", [[3.4, math.inf, 0.05]], "red: dca_peaks must be finite, got ((3.4, inf, 0.05),)"),
        ("randles", {"r0": math.inf}, "red: randles must be finite, got (inf, 0.0, 0.0, 0.0)"),
        ("noise_std", math.inf, "red: noise_std must be finite, got inf"),
        ("dca_baseline", math.inf, "red: dca_baseline must be finite, got inf"),
        ("soh_drift", {"amplitude_fade_per_percent": math.inf},
         "soh_drift.amplitude_fade_per_percent must be finite, got inf"),
        ("soh_drift", {"peak_shift_v_per_percent": -math.inf},
         "soh_drift.peak_shift_v_per_percent must be finite, got -inf"),
    ], ids=["window", "peak", "randles", "noise", "baseline", "fade", "shift"])
    def test_non_finite_spec_number_exits_2(self, tmp_path, capsys, key, value, message):
        # an infinite window end failed later as a data error (exit 1); an
        # infinite fade flattened every peak without a word
        cells = json.loads(specs_to_json(SPECS))
        cells[0][key] = value
        spec_path = tmp_path / "cells.json"
        spec_path.write_text(json.dumps(cells), encoding="utf-8")
        cfg_path = _write(tmp_path, "cfg.json", _config(str(spec_path)))
        assert main(["run", "--config", cfg_path, "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"batteryauth.errors.BadSpec: {message}"]

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

    @pytest.mark.parametrize("model", [
        {"kind": "SVM", "grid": {"C": ["x"]}},
        {"kind": "KNN", "grid": {"k": ["x"]}},
        {"kind": "KNN", "grid": {"k": [1e400]}},
    ])
    def test_grid_value_that_does_not_convert_exits_2(self, spec_file, tmp_path, capsys, model):
        cfg_path = _write(tmp_path, "cfg.json", _config(spec_file, models=[model]))
        assert main(["run", "--config", cfg_path, "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"batteryauth.errors.ConfigError: models[0]: {model['kind']} grid point")

    def test_repeated_kind_exits_2_before_any_fit(self, spec_file, tmp_path, capsys):
        models = [{"kind": "KNN", "grid": {"k": [1]}}, {"kind": "KNN", "grid": {"k": [5]}}]
        cfg_path = _write(tmp_path, "cfg.json", _config(spec_file, models=models))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--output-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["batteryauth.errors.ConfigError: models[1]: kind 'KNN' repeats models[0]"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("where", ["eval", "synth", "models"])
    def test_negative_seed_exits_2(self, spec_file, tmp_path, capsys, where):
        cfg = _config(spec_file)
        if where == "models":
            cfg["models"] = [dict(cfg["models"][0], seed=-1)]
            field = "models[0].seed"
        else:
            cfg[where] = dict(cfg[where], seed=-1)
            field = f"{where}.seed"
        cfg_path = _write(tmp_path, "cfg.json", cfg)
        assert main(["run", "--config", cfg_path, "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"batteryauth.errors.ConfigError: {field}: must be >= 0, got -1"]

    def test_unusable_output_dir_exits_2_before_any_work(self, spec_file, tmp_path, capsys,
                                                         monkeypatch):
        def no_dataset(cfg):
            raise AssertionError("the dataset was built")

        monkeypatch.setattr(cli, "_build_dataset", no_dataset)
        occupied = tmp_path / "a-file"
        occupied.write_text("", encoding="utf-8")
        cfg_path = _write(tmp_path, "cfg.json", _config(spec_file))
        for out_dir in (occupied, occupied / "below"):
            assert main(["run", "--config", cfg_path, "--output-dir", str(out_dir)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith("batteryauth.errors.ConfigError: cannot create output directory")

    @pytest.mark.parametrize("kind,grid,message", [
        ("SVM", {"gamma": ["auto"]}, "SVM.gamma must be one of ['scale'], got 'auto'"),
        ("NeuralNet", {"activation": ["sigmoid"]},
         "NeuralNet.activation must be one of ['relu', 'tanh'], got 'sigmoid'"),
        ("KNN", {"weights": ["bogus"]}, "KNN.weights must be one of ['uniform', 'distance'], got 'bogus'"),
    ], ids=["svm-gamma", "nn-activation", "knn-weights"])
    def test_hyperparameter_outside_the_grid_exits_2_before_any_work(self, spec_file, tmp_path,
                                                                     capsys, monkeypatch, kind,
                                                                     grid, message):
        # gamma "auto" used to fail after feature extraction; the other two
        # ran with tanh and with distance weighting
        def no_dataset(cfg):
            raise AssertionError("the dataset was built")

        monkeypatch.setattr(cli, "_build_dataset", no_dataset)
        cfg_path = _write(tmp_path, "cfg.json", _config(spec_file, models=[{"kind": kind, "grid": grid}]))
        assert main(["run", "--config", cfg_path, "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"batteryauth.errors.ConfigError: models[0]: {message}"]

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
            assert 0.0 <= r["score"] <= 1.0

    def test_quoted_header_reads_like_plain(self, run_artifacts, cycle_sample, tmp_path, capsys):
        out_dir, _, _ = run_artifacts
        model = os.path.join(out_dir, "model_ident_model_identification_KNN.json")
        with open(cycle_sample, encoding="utf-8") as fh:
            header, body = fh.read().split("\n", 1)
        quoted = io.StringIO()
        csv.writer(quoted, quoting=csv.QUOTE_ALL, lineterminator="\n").writerow(header.split(","))
        assert quoted.getvalue().startswith('"dataset_id","cell_id",')
        quoted_sample = tmp_path / "quoted.csv"
        quoted_sample.write_text(quoted.getvalue() + body, encoding="utf-8")
        outputs = []
        for sample in (cycle_sample, str(quoted_sample)):
            assert main(["authenticate", "--model", model, "--sample", sample, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("header_only", [False, True])
    def test_wrong_record_kind_exits_1(self, run_artifacts, eis_sample, header_only, tmp_path,
                                       capsys, monkeypatch):
        out_dir, _, _ = run_artifacts
        model = os.path.join(out_dir, "model_ident_model_identification_KNN.json")
        if header_only:
            with open(eis_sample, encoding="utf-8") as fh:
                header = fh.readline()
            eis_sample = str(tmp_path / "header_only.csv")
            with open(eis_sample, "w", encoding="utf-8") as fh:
                fh.write(header)

        def refused(*args, **kwargs):
            raise AssertionError("a sample of the wrong record kind is refused from its header")

        # the header names the record kind, so nothing is parsed or processed
        monkeypatch.setattr("batteryauth.cli.parse_eis_csv", refused)
        monkeypatch.setattr("batteryauth.features.process_spectrum", refused)
        assert main(["authenticate", "--model", model, "--sample", eis_sample]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("batteryauth.errors.DimensionMismatch: ")
        assert "v1:ch1" in err[0] and "v1:ch2" in err[0]

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


NOT_UTF8 = b"\xff\xfe not utf-8\n"


class TestUnreadableFiles:
    """Each file a command reads: a missing or non-UTF-8 file is a library error."""

    @pytest.mark.parametrize("what", ["config", "cell-spec file", "input"])
    def test_run_input_not_utf8_exits_2(self, spec_file, what, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(NOT_UTF8)
        cfg_path = str(bad)
        if what == "cell-spec file":
            cfg = _config(spec_file)
            cfg["synth"] = dict(cfg["synth"], specs=str(bad))
            cfg_path = _write(tmp_path, "cfg.json", cfg)
        elif what == "input":
            cfg = {k: v for k, v in _config(spec_file).items() if k != "synth"}
            cfg_path = _write(tmp_path, "cfg.json", dict(cfg, input={"csv": str(bad)}))
        assert main(["run", "--config", cfg_path, "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"batteryauth.errors.ConfigError: cannot read {what} {bad}: ")

    def test_sample_not_utf8_exits_2(self, run_artifacts, tmp_path, capsys):
        out_dir, _, _ = run_artifacts
        model = os.path.join(out_dir, "model_ident_model_identification_KNN.json")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(NOT_UTF8)
        assert main(["authenticate", "--model", model, "--sample", str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"batteryauth.errors.ConfigError: cannot read sample file {bad}: ")

    @pytest.mark.parametrize("command", ["authenticate", "bench"])
    @pytest.mark.parametrize("content,expected", [
        (None, "cannot read model file"),
        (NOT_UTF8, "is not valid UTF-8 JSON"),
    ], ids=["missing", "not-utf8"])
    def test_model_exits_1_naming_the_path(self, cycle_sample, command, content, expected,
                                           tmp_path, capsys):
        path = tmp_path / "model.json"
        if content is not None:
            path.write_bytes(content)
        assert main([command, "--model", str(path), "--sample", cycle_sample]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("batteryauth.errors.FormatVersionMismatch: ")
        assert str(path) in err[0] and expected in err[0]


@pytest.fixture(scope="module")
def eis_run(spec_file, tmp_path_factory):
    """An EIS `run` (selection on by default) that saves authentication models."""
    tmp_path = tmp_path_factory.mktemp("eis-run")
    cfg = _config(spec_file, pipeline="eis")
    cfg["synth"] = dict(cfg["synth"], n_freq=32)
    cfg["eval"] = dict(cfg["eval"], tasks=["authentication"])
    out_dir = str(tmp_path / "out")
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    assert main(["run", "--config", cfg_path, "--output-dir", out_dir]) == 0
    return out_dir, cfg["synth"]


class TestAuthenticateReplaysRun:
    """`authenticate` on records of a run's dataset, written to CSV, gives the
    labels the saved model predicts on that run's own feature rows."""

    @staticmethod
    def _authenticate(model_path, records_csv, tmp_path, capsys):
        sample = tmp_path / "records.csv"
        sample.write_text(records_csv, encoding="utf-8")
        assert main(["authenticate", "--model", model_path, "--sample", str(sample), "--json"]) == 0
        return [r["label"] for r in json.loads(capsys.readouterr().out)["results"]]

    def test_dca_identification_model(self, run_artifacts, spec_file, tmp_path, capsys):
        out_dir, _, _ = run_artifacts
        synth = _config(spec_file)["synth"]
        with open(spec_file, encoding="utf-8") as fh:
            specs = specs_from_json(fh.read())
        data = gen_dataset(specs, cells_per_spec=synth["cells_per_spec"],
                           cycles_per_cell=synth["records_per_cell"], seed=synth["seed"],
                           n_points=synth["n_points"])
        path = os.path.join(out_dir, "model_ident_model_identification_KNN.json")
        model = load_model(path)
        expected = [model.class_names[int(v)] for v in predict(model, matrix_from_cycles(data).values)]
        assert set(expected) == {"red", "blue"}
        assert self._authenticate(path, write_cycle_csv(data.records), tmp_path, capsys) == expected

    def test_eis_authentication_model(self, eis_run, spec_file, tmp_path, capsys):
        out_dir, synth = eis_run
        with open(spec_file, encoding="utf-8") as fh:
            specs = specs_from_json(fh.read())
        data = gen_eis_dataset(specs, cells_per_spec=synth["cells_per_spec"],
                               sweeps_per_cell=synth["records_per_cell"], seed=synth["seed"],
                               n_freq=synth["n_freq"])
        path = os.path.join(out_dir, "model_auth_model_authentication_red_50_KNN.json")
        model = load_model(path)
        assert model.mask is not None and not model.mask.all()
        expected = [
            "authenticated" if int(v) == 1 else "not_authenticated"
            for v in predict(model, matrix_from_spectra(data).values)
        ]
        assert set(expected) == {"authenticated", "not_authenticated"}
        assert self._authenticate(path, write_eis_csv(data.records), tmp_path, capsys) == expected

    @pytest.mark.parametrize("pipeline,section,processing", [
        ("dca", {"savgol_window": 21, "savgol_polyorder": 2}, DcaConfig(savgol_window=21, savgol_polyorder=2)),
        ("eis", {"resample_m": 16}, EisConfig(resample_m=16)),
    ], ids=["dca-savgol-21-2", "eis-resample-16"])
    def test_non_default_processing_is_replayed(self, pipeline, section, processing, spec_file,
                                                tmp_path, capsys):
        """A model trained with non-default processing scores a sample with
        that processing: labels and scores (SVM margins, which move with
        every feature value) equal the model's own on the run's feature
        rows, which the default processing would not give."""
        cfg = _config(spec_file, pipeline=pipeline, **{pipeline: section},
                      models=[{"kind": "SVM", "grid": {"kernel": ["linear"], "C": [1.0], "gamma": ["scale"]}}])
        cfg["synth"] = dict(cfg["synth"], n_freq=32)
        out_dir = str(tmp_path / "out")
        assert main(["run", "--config", _write(tmp_path, "cfg.json", cfg), "--output-dir", out_dir]) == 0
        capsys.readouterr()
        with open(spec_file, encoding="utf-8") as fh:
            specs = specs_from_json(fh.read())
        synth = cfg["synth"]
        if pipeline == "dca":
            data = gen_dataset(specs, cells_per_spec=synth["cells_per_spec"],
                               cycles_per_cell=synth["records_per_cell"], seed=synth["seed"],
                               n_points=synth["n_points"])
            rows, default_rows, csv_text = (matrix_from_cycles(data, processing).values,
                                            matrix_from_cycles(data).values, write_cycle_csv(data.records))
        else:
            data = gen_eis_dataset(specs, cells_per_spec=synth["cells_per_spec"],
                                   sweeps_per_cell=synth["records_per_cell"], seed=synth["seed"],
                                   n_freq=synth["n_freq"])
            rows, default_rows, csv_text = (matrix_from_spectra(data, processing).values,
                                            matrix_from_spectra(data).values, write_eis_csv(data.records))
        path = os.path.join(out_dir, "model_ident_model_identification_SVM.json")
        model = load_model(path)
        assert model.processing == processing

        def outputs(X):
            labels, scores = classify(model, X)
            return [(model.class_names[int(v)], float(scores[i, int(v)])) for i, v in enumerate(labels)]

        expected = outputs(rows)
        assert expected != outputs(default_rows)
        sample = tmp_path / "records.csv"
        sample.write_text(csv_text, encoding="utf-8")
        assert main(["authenticate", "--model", path, "--sample", str(sample), "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert [(r["label"], r["score"]) for r in results] == expected


class TestApiModelClassIds:
    """A model trained through the API on class ids that are not positions
    (3 and 5): `authenticate` names each class by its position in
    ``model.classes``, or prints the id when the model carries no names."""

    @pytest.mark.parametrize("names,expected", [
        (("three", "five"), ["three", "five"]),
        ((), ["3", "5"]),
    ], ids=["named", "unnamed"])
    def test_labels(self, names, expected, cycle_sample, tmp_path, capsys):
        data = gen_dataset(SPECS, cells_per_spec=2, cycles_per_cell=3, seed=5, n_points=128)
        matrix = matrix_from_cycles(data)
        y = np.array([3 if m.cell_id.startswith("red") else 5 for m in matrix.metas])
        assert set(y) == {3, 5}
        model = replace(train(make_spec("KNN"), {"k": 1, "weights": "uniform"}, matrix.values, y),
                        catalog_version=matrix.catalog_version, class_names=names)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        assert main(["authenticate", "--model", str(path), "--sample", cycle_sample, "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert [r["label"] for r in results] == expected
        assert [r["score"] for r in results] == [1.0, 1.0]
        assert main(["authenticate", "--model", str(path), "--sample", cycle_sample]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"probe-red/0: {expected[0]} (score=1.0000)",
                         f"probe-blue/0: {expected[1]} (score=1.0000)"]

    def test_one_name_for_two_classes_is_refused(self):
        # saved, such a model used to end `authenticate` with an IndexError
        data = gen_dataset(SPECS, cells_per_spec=2, cycles_per_cell=3, seed=5, n_points=128)
        matrix = matrix_from_cycles(data)
        y = np.array([0 if m.cell_id.startswith("red") else 1 for m in matrix.metas])
        with pytest.raises(DimensionMismatch, match="1 class names for 2 classes"):
            replace(train(make_spec("KNN"), {"k": 1, "weights": "uniform"}, matrix.values, y),
                    catalog_version=matrix.catalog_version, class_names=("only",))

    def test_hand_edited_name_count_is_refused(self, cycle_sample, tmp_path, capsys):
        env = _knn_envelope()
        env["parameters"]["class_names"] = ["only"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(env), encoding="utf-8")
        with pytest.raises(FormatVersionMismatch, match="1 class names for 2 classes"):
            load_model(str(path))
        assert main(["authenticate", "--model", str(path), "--sample", cycle_sample]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["batteryauth.errors.FormatVersionMismatch: "
                       "model file has 1 class names for 2 classes"]


# one grid point per kind, so that a small run saves a model of every kind
_ONE_POINT = {
    "AdaBoost": {"n_estimators": [20]},
    "DecisionTree": {"criterion": ["gini"], "max_depth": [4]},
    "GaussianNB": {"var_smoothing": [1e-9]},
    "KNN": {"k": [3], "weights": ["distance"]},
    "NeuralNet": {"hidden": [8], "activation": ["relu"], "solver": ["adam"]},
    "QDA": {"reg": [0.5]},
    "RandomForest": {"criterion": ["gini"], "n_estimators": [10]},
    "SVM": {"kernel": ["rbf"], "C": [1.0], "gamma": ["scale"]},
}


@pytest.fixture(scope="module")
def every_kind_run(spec_file, tmp_path_factory):
    """A run that saves an identification and a 50/50 authentication model
    of every kind, and unseen cycles of both cell types to score."""
    assert set(_ONE_POINT) == set(KINDS)
    tmp_path = tmp_path_factory.mktemp("every-kind")
    cfg = _config(spec_file, models=[{"kind": k, "grid": g} for k, g in _ONE_POINT.items()])
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", _write(tmp_path, "cfg.json", cfg), "--output-dir", out_dir]) == 0
    records = [gen_cycle(SPECS[i % 2], soh_percent=88.0 + i, n_points=128, seed=920 + i,
                         cell_id=f"probe-{i}") for i in range(6)]
    sample = tmp_path / "probe.csv"
    sample.write_text(write_cycle_csv(records), encoding="utf-8")
    return out_dir, str(sample), build_catalog(records)


_SAVED = ["model_ident_model_identification_{}.json", "model_auth_model_authentication_red_50_{}.json"]


class TestAuthenticateMatchesClassify:
    """For every kind, `authenticate --json` gives the label ``classify``
    gives and the score at the predicted class's position, from one call
    of the kind's predict."""

    @pytest.mark.parametrize("saved", _SAVED, ids=["ident", "auth-50"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_labels_and_scores(self, every_kind_run, kind, saved, capsys):
        out_dir, sample, data = every_kind_run
        path = os.path.join(out_dir, saved.format(kind))
        model = load_model(path)
        labels, scores = classify(model, matrix_from_cycles(data, model.processing).values)
        expected = []
        for i, label in enumerate(labels):
            pos = list(model.classes).index(label)
            if model.task == "authentication":
                text = "authenticated" if label == 1 else "not_authenticated"
            else:
                text = model.class_names[pos]
            expected.append((text, float(scores[i, pos])))
        assert main(["authenticate", "--model", path, "--sample", sample, "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert [(r["label"], r["score"]) for r in results] == expected

    @pytest.mark.parametrize("saved", _SAVED, ids=["ident", "auth-50"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_one_kind_predict_call(self, every_kind_run, kind, saved, monkeypatch, capsys):
        out_dir, sample, _ = every_kind_run
        module = _MODULES[kind]
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return original(*args)

        original = module.predict
        monkeypatch.setattr(module, "predict", counted)
        path = os.path.join(out_dir, saved.format(kind))
        assert main(["authenticate", "--model", path, "--sample", sample, "--json"]) == 0
        capsys.readouterr()
        # loading scores one all-zero row to check the state's width; the
        # six samples are then scored in one call
        assert calls == [1, 6]


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


class TestEmptySample:
    @pytest.mark.parametrize("command", ["authenticate", "bench"])
    def test_header_only_sample_exits_1(self, run_artifacts, cycle_sample, command,
                                        tmp_path, capsys):
        out_dir, _, _ = run_artifacts
        model = os.path.join(out_dir, "model_ident_model_identification_KNN.json")
        with open(cycle_sample, encoding="utf-8") as fh:
            header = fh.readline()
        empty = tmp_path / "header_only.csv"
        empty.write_text(header, encoding="utf-8")
        assert main([command, "--model", model, "--sample", str(empty)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("batteryauth.errors.EmptyDataset: ")


class TestBadSampleRows:
    """Rows that used to end `authenticate` with a stray builtins exception."""

    CASES = [
        ("cycle-short-row", "cycles", lambda rows: rows[:-1] + [",".join(rows[-1].split(",")[:3])],
         "MissingColumn: row"),
        ("cycle-nan-index", "cycles", lambda rows: rows[:-1] + [_set_field(rows, "cycle_index", "nan")],
         "NonFiniteValue: row"),
        ("cycle-huge-index", "cycles", lambda rows: rows[:-1] + [_set_field(rows, "cycle_index", "1e400")],
         "NonFiniteValue: row"),
        ("eis-short-row", "sweeps", lambda rows: rows[:-1] + [",".join(rows[-1].split(",")[:3])],
         "MissingColumn: row"),
        ("eis-inf-index", "sweeps", lambda rows: rows[:-1] + [_set_field(rows, "cycle_index", "inf")],
         "NonFiniteValue: row"),
        # longer than csv.field_size_limit(), which the csv module refuses
        ("cycle-huge-field", "cycles",
         lambda rows: rows[:-1] + [_set_field(rows, "voltage", "0." + "1" * 200000)],
         "MalformedCsv: line"),
    ]

    @pytest.mark.parametrize("which,edit,expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_exits_1_with_one_error_line(self, run_artifacts, eis_run, cycle_sample, eis_sample,
                                         tmp_path, capsys, which, edit, expected):
        # a model of the sample's own record kind, so that the rows are parsed
        if which == "cycles":
            model = os.path.join(run_artifacts[0], "model_ident_model_identification_KNN.json")
            source = cycle_sample
        else:
            model = os.path.join(eis_run[0], "model_auth_model_authentication_red_50_KNN.json")
            source = eis_sample
        with open(source, encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(edit(rows)) + "\n", encoding="utf-8")
        assert main(["authenticate", "--model", model, "--sample", str(bad)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"batteryauth.errors.{expected} {len(rows)}:")


def _set_field(rows, column, value):
    """The last row with one field replaced."""
    fields = rows[-1].split(",")
    fields[rows[0].split(",").index(column)] = value
    return ",".join(fields)


def _tiny_model(kind, hp):
    X = np.array([[0.0, 1.0], [0.2, 0.9], [3.0, 0.1], [3.1, 0.0]])
    return replace(train(make_spec(kind), hp, X, np.array([0, 0, 1, 1])), catalog_version="v1:ch1",
                   class_names=("a", "b"))


def _knn_envelope():
    return model_to_json_dict(_tiny_model("KNN", {"k": 1, "weights": "uniform"}))


def _svm_with_text_c():
    env = model_to_json_dict(_tiny_model("SVM", {"kernel": "linear", "C": 1.0, "gamma": "scale"}))
    env["hyperparams"]["C"] = "x"
    return env


def _state_removed():
    env = _knn_envelope()
    del env["parameters"]["state"]
    return env


def _train_x_removed():
    env = _knn_envelope()
    del env["parameters"]["state"]["train_x"]
    return env


def _split_feature_past_width(kind, hp, table):
    """A tree-kind envelope whose split feature ids are 2, one past the two
    columns the tiny model was trained on."""
    env = model_to_json_dict(_tiny_model(kind, hp))
    saved = env["parameters"]["state"][table]
    feature = _decode(saved["feature"]).copy()
    feature[feature >= 0] = 2
    saved["feature"] = _encode(feature)
    return env


class TestMalformedModel:
    CASES = [
        ("kind-only", lambda: {"format_version": FORMAT_VERSION, "kind": "KNN"}, "'hyperparams'"),
        ("svm-text-C", _svm_with_text_c, "'hyperparams'"),
        ("no-state", _state_removed, "'parameters.state'"),
        ("no-train-x", _train_x_removed, "'parameters.state.train_x'"),
        ("forest-feature-id", lambda: _split_feature_past_width(
            "RandomForest", {"criterion": "gini", "n_estimators": 3}, "trees"), "'parameters.state'"),
        ("adaboost-feature-id", lambda: _split_feature_past_width(
            "AdaBoost", {"n_estimators": 3}, "stumps"), "'parameters.state'"),
    ]

    @pytest.mark.parametrize("make,field", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_names_the_field_and_exits_1(self, make, field, cycle_sample, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(make()), encoding="utf-8")
        with pytest.raises(FormatVersionMismatch, match=field):
            load_model(str(path))
        assert main(["authenticate", "--model", str(path), "--sample", cycle_sample]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"batteryauth.errors.FormatVersionMismatch: model field {field}")

    def test_library_errors_pass_through(self, tmp_path):
        env = _knn_envelope()
        env["hyperparams"]["k"] = 0
        path = tmp_path / "model.json"
        path.write_text(json.dumps(env), encoding="utf-8")
        with pytest.raises(ConfigError, match="KNN.k must be >= 1"):
            load_model(str(path))

    @pytest.mark.parametrize("edit,message", [
        (lambda env: env["hyperparams"].update(k=0), "KNN.k must be >= 1"),
        (lambda env: env["hyperparams"].pop("weights"), "KNN hyperparameters must be ['k', 'weights']"),
        (lambda env: env["hyperparams"].update(weights="bogus"), "KNN.weights must be one of"),
    ], ids=["k-zero", "no-weights", "bogus-weights"])
    def test_bad_hyperparameters_in_a_model_file_exit_1(self, edit, message, cycle_sample,
                                                        tmp_path, capsys):
        # a model file is data: its faults exit 1, like any other malformed field
        env = _knn_envelope()
        edit(env)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(env), encoding="utf-8")
        assert main(["authenticate", "--model", str(path), "--sample", cycle_sample]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"batteryauth.errors.FormatVersionMismatch: model file {path}: {message}")

    @pytest.mark.parametrize("change", [{"savgol_polyorder": -1}, {"savgol_window": 4},
                                        {"eps_volts": float("nan")}], ids=repr)
    def test_processing_out_of_bounds_exits_1(self, run_artifacts, cycle_sample, change,
                                              tmp_path, capsys):
        # a negative polyorder ended with "unexpected builtins.IndexError"
        saved = os.path.join(run_artifacts[0], "model_ident_model_identification_KNN.json")
        with open(saved, encoding="utf-8") as fh:
            env = json.load(fh)
        env["processing"]["config"].update(change)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(env), encoding="utf-8")
        assert main(["authenticate", "--model", str(path), "--sample", cycle_sample]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("batteryauth.errors.FormatVersionMismatch: model field 'processing'")


def _array_sites(tree, out):
    """(holder, key) of every saved array under the dict ``tree``, nested
    dicts included."""
    for key, value in tree.items():
        if isinstance(value, dict) and value.keys() == {"dtype", "shape", "data"}:
            out.append((tree, key))
        elif isinstance(value, dict):
            _array_sites(value, out)
    return out


def _corrupt(env, rng):
    """One seeded corruption of a model envelope, made in place, and its
    name: an array cut short, a state field or hyperparameter dropped or
    altered, or a tree node's child pointed elsewhere."""
    state = env["parameters"]["state"]
    tables = [t for t in state.values() if isinstance(t, dict) and "roots" in t]
    how = ["truncate", "drop", "alter", "hyperparameter", "repoint" if tables else "alter"][rng.integers(5)]
    if how == "truncate":
        sites = _array_sites(env, [])
        holder, key = sites[rng.integers(len(sites))]
        array = _decode(holder[key])
        axis = int(rng.integers(max(array.ndim, 1)))
        if array.ndim == 0 or array.shape[axis] == 0:
            return "nothing to truncate"
        holder[key] = _encode(np.ascontiguousarray(np.delete(array, -1, axis=axis)))
        return f"truncate {key} on axis {axis}"
    if how == "drop":
        holder = ([state] + tables)[rng.integers(1 + len(tables))]
        key = sorted(holder)[rng.integers(len(holder))]
        del holder[key]
        return f"drop {key}"
    if how == "alter":
        sites = _array_sites(state, []) + [(state, k) for k, v in state.items() if not isinstance(v, dict)]
        holder, key = sites[rng.integers(len(sites))]
        if not isinstance(holder[key], dict):
            holder[key] = [None, "bogus", -1.0, float("nan")][rng.integers(4)]
            return f"alter {key} to {holder[key]!r}"
        array = _decode(holder[key]).copy()
        if array.size == 0:
            return "nothing to alter"
        flat = array.reshape(-1)
        at = int(rng.integers(flat.size))
        if array.dtype.kind in "iu":
            flat[at] = [-1, 0, flat.size, int(rng.integers(-2, flat.size + 2))][rng.integers(4)]
        elif array.dtype.kind == "b":
            flat[at] = not flat[at]
        else:
            flat[at] = [float("nan"), -1.0, 0.0, -flat[at]][rng.integers(4)]
        holder[key] = _encode(array)
        return f"alter {key}[{at}] to {flat[at]}"
    if how == "hyperparameter":
        hp = env["hyperparams"]
        key = sorted(hp)[rng.integers(len(hp))]
        if rng.integers(2):
            del hp[key]
            return f"drop hyperparameter {key}"
        hp[key] = [None, "bogus", -1, 0, float("nan")][rng.integers(5)]
        return f"hyperparameter {key} = {hp[key]!r}"
    table = tables[rng.integers(len(tables))]
    split = np.flatnonzero(_decode(table["feature"]) >= 0)
    if len(split) == 0:
        return "no split node to repoint"
    side = ["left", "right"][rng.integers(2)]
    ids = _decode(table[side]).copy()
    at = int(split[rng.integers(len(split))])
    # off the table, onto the node itself, or onto a node before it (a cycle)
    ids[at] = [-1, len(ids), at, int(rng.integers(at + 1))][rng.integers(4)]
    table[side] = _encode(ids)
    return f"repoint {side}[{at}] to {ids[at]}"


class TestCorruptModelFuzz:
    """Seeded corruptions of the saved models of every kind: `authenticate`
    scores the file (exit 0) or refuses it with one library error line
    (exit 1); it never ends with an unexpected exception or runs on."""

    CASES = 30

    @pytest.mark.parametrize("saved", _SAVED, ids=["ident", "auth-50"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_exit_0_or_one_library_error(self, every_kind_run, kind, saved, tmp_path, capsys):
        out_dir, sample, _ = every_kind_run
        with open(os.path.join(out_dir, saved.format(kind)), encoding="utf-8") as fh:
            original = fh.read()
        path = str(tmp_path / "corrupt.json")
        bad = []
        for case in range(self.CASES):
            env = json.loads(original)
            what = _corrupt(env, np.random.default_rng([case, KINDS.index(kind), _SAVED.index(saved)]))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(env, fh)
            with deadline(3):
                code = main(["authenticate", "--model", path, "--sample", sample])
            err = capsys.readouterr().err.splitlines()
            if not (code == 0 or code == 1 and len(err) == 1 and err[0].startswith("batteryauth.errors.")):
                bad.append(f"{what}: exit {code}, {err}")
        assert not bad, "\n".join(bad)

    @staticmethod
    def _refused(env, path, sample, capsys, field, message):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(env, fh)
        assert main(["authenticate", "--model", path, "--sample", sample]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"batteryauth.errors.FormatVersionMismatch: model field '{field}'")
        assert message in err[0]

    @pytest.mark.parametrize("saved", _SAVED, ids=["ident", "auth-50"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_non_finite_float_array_exits_1(self, every_kind_run, kind, saved, tmp_path, capsys):
        # a NaN or an infinity in any float array, one array at a time; a NaN
        # in KNN's train_x or the standardizer's mean used to load and score
        out_dir, sample, _ = every_kind_run
        with open(os.path.join(out_dir, saved.format(kind)), encoding="utf-8") as fh:
            original = fh.read()
        rng = np.random.default_rng([KINDS.index(kind), _SAVED.index(saved)])
        floats = 0
        for site in range(len(_array_sites(json.loads(original), []))):
            env = json.loads(original)
            holder, key = _array_sites(env, [])[site]
            array = _decode(holder[key]).copy()
            if array.dtype.kind != "f" or array.size == 0:
                continue
            floats += 1
            array.reshape(-1)[rng.integers(array.size)] = [math.nan, math.inf, -math.inf][rng.integers(3)]
            holder[key] = _encode(array)
            field = f"standardizer.{key}" if holder is env["standardizer"] else "parameters.state"
            self._refused(env, str(tmp_path / "bad.json"), sample, capsys, field, "finite")
        assert floats >= 3          # the standardizer's mean and scale, and the state's

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_non_positive_scale_exits_1(self, every_kind_run, kind, value, tmp_path, capsys):
        # with a scale of 0, `authenticate` warned and authenticated every sample
        out_dir, sample, _ = every_kind_run
        with open(os.path.join(out_dir, _SAVED[1].format(kind)), encoding="utf-8") as fh:
            env = json.load(fh)
        scale = _decode(env["standardizer"]["scale"]).copy()
        scale[np.random.default_rng(KINDS.index(kind)).integers(len(scale))] = value
        env["standardizer"]["scale"] = _encode(scale)
        self._refused(env, str(tmp_path / "bad.json"), sample, capsys, "standardizer.scale",
                      f"expected entries > 0, got {value}")
