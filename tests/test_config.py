"""Config parsing: strict keys, dotted error paths, defaults."""
from dataclasses import replace

import pytest

from batteryauth.config import (
    DEFAULT_MODEL_KINDS,
    SynthConfig,
    config_from_json_dict,
    load_config,
)
from batteryauth.dca import DcaConfig
from batteryauth.eis import EisConfig
from batteryauth.errors import ConfigError
from batteryauth.evaluate import EvalConfig


def _base(**overrides):
    data = {"pipeline": "dca", "synth": {}}
    data.update(overrides)
    return data


class TestTopLevel:
    def test_minimal_config_fills_defaults(self):
        cfg = config_from_json_dict(_base())
        assert cfg.pipeline == "dca"
        assert cfg.output_dir == "out"
        assert cfg.threads == 1
        assert cfg.input_path is None
        assert cfg.synth.specs_path == "demo"
        assert cfg.dca.savgol_window == 51
        assert cfg.eis.resample_m == 128
        assert [m.kind for m in cfg.models] == list(DEFAULT_MODEL_KINDS)
        assert cfg.eval.train_ratio == 0.8
        assert cfg.eval.balances == (50, 40, 30, 20)
        assert cfg.snapshot == _base()

    @pytest.mark.parametrize("pipeline", ["dca", "eis"])
    def test_minimal_config_is_every_dataclass_default(self, pipeline):
        data = {"pipeline": pipeline, "synth": {}}
        cfg = config_from_json_dict(data)
        assert cfg.dca == DcaConfig()
        assert cfg.eis == EisConfig()
        assert cfg.synth == SynthConfig()
        # selection defaults by pipeline; the snapshot is the document itself
        assert cfg.eval.selection_enabled is (pipeline == "eis")
        assert cfg.snapshot is data
        assert replace(cfg.eval, selection_enabled=False) == EvalConfig()
        assert cfg.tasks == ("identification", "authentication")

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(pipline="dca"))
        assert "pipline" in str(err.value)

    def test_pipeline_required(self):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict({"synth": {}})
        assert "pipeline" in str(err.value)

    def test_bad_pipeline_value(self):
        with pytest.raises(ConfigError):
            config_from_json_dict(_base(pipeline="nmr"))

    def test_input_and_synth_are_exclusive(self):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(
                {"pipeline": "dca", "synth": {}, "input": {"csv": "x.csv"}}
            )
        assert "mutually exclusive" in str(err.value)

    def test_one_of_input_or_synth_required(self):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict({"pipeline": "dca"})
        assert "'input' or a 'synth'" in str(err.value)

    def test_input_path_carried(self):
        cfg = config_from_json_dict({"pipeline": "eis", "input": {"csv": "sweeps.csv"}})
        assert cfg.input_path == "sweeps.csv"
        assert cfg.synth is None

    def test_threads_validated(self):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(threads=0))
        assert "threads" in str(err.value)

    def test_bool_is_not_int(self):
        with pytest.raises(ConfigError):
            config_from_json_dict(_base(threads=True))

    @pytest.mark.parametrize("key", [
        "models", "dca", "eis", "eval", "selection", "synth", "input", "output_dir", "threads",
    ])
    def test_explicit_null_is_refused(self, key):
        # only an absent key means the default; null would silently run it
        with pytest.raises(ConfigError, match=f"^{key}: "):
            config_from_json_dict(_base(**{key: None}))


class TestSelectionDefaults:
    def test_eis_enables_selection(self):
        cfg = config_from_json_dict({"pipeline": "eis", "synth": {}})
        assert cfg.eval.selection_enabled is True

    def test_dca_disables_selection(self):
        cfg = config_from_json_dict({"pipeline": "dca", "synth": {}})
        assert cfg.eval.selection_enabled is False

    def test_explicit_override_wins(self):
        cfg = config_from_json_dict(_base(selection={"enabled": True, "fdr": 0.1}))
        assert cfg.eval.selection_enabled is True
        assert cfg.eval.selection_fdr == 0.1

    def test_fdr_range(self):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(selection={"fdr": 1.0}))
        assert "selection.fdr" in str(err.value)


class TestSectionValidation:
    def test_unknown_nested_key_names_dotted_path(self):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(eval={"ballances": [50]}))
        assert "eval" in str(err.value) and "ballances" in str(err.value)

    def test_even_savgol_window(self):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(dca={"savgol_window": 50}))
        assert "dca.savgol_window" in str(err.value)

    def test_polyorder_must_fit_window(self):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(dca={"savgol_window": 5, "savgol_polyorder": 5}))
        assert "dca.savgol_polyorder" in str(err.value)

    @pytest.mark.parametrize("section,values,message", [
        ("dca", {"eps_volts": float("nan")}, "dca.eps_volts: must be > 0, got nan"),
        ("dca", {"eps_volts": 0}, "dca.eps_volts: must be > 0, got 0.0"),
        ("dca", {"savgol_polyorder": -1}, "dca.savgol_polyorder: must be in [0, savgol_window), got -1"),
        ("eis", {"resample_m": 7}, "eis.resample_m: must be >= 8, got 7"),
        ("dca", {"resample_n": 10**10}, "dca.resample_n: must be <= 4096, got 10000000000"),
        ("eis", {"resample_m": 4097}, "eis.resample_m: must be <= 4096, got 4097"),
        ("dca", {"savgol_window": 1003}, "dca.savgol_window: must be <= 1001, got 1003"),
    ], ids=["eps-nan", "eps-zero", "polyorder", "resample-m", "resample-n-max", "resample-m-max",
            "window-max"])
    def test_processing_bounds_name_the_field(self, section, values, message):
        # NaN passed the old "value <= 0" test; with no upper bound, resample_n
        # 10**10 asked numpy for 74.5 GiB when a sample was scored
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(**{section: values}))
        assert str(err.value) == message

    def test_resample_minimums(self):
        with pytest.raises(ConfigError):
            config_from_json_dict(_base(dca={"resample_n": 4}))
        with pytest.raises(ConfigError):
            config_from_json_dict(_base(eis={"resample_m": 4}))

    def test_train_ratio_bounds(self):
        for bad in (0.3, 1.0):
            with pytest.raises(ConfigError):
                config_from_json_dict(_base(eval={"train_ratio": bad}))
        cfg = config_from_json_dict(_base(eval={"train_ratio": 0.5}))
        assert cfg.eval.train_ratio == 0.5

    def test_folds_minimum(self):
        with pytest.raises(ConfigError):
            config_from_json_dict(_base(eval={"folds": 1}))

    def test_balance_values_restricted(self):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(eval={"balances": [50, 35]}))
        assert "35" in str(err.value)

    def test_empty_enum_lists(self):
        for key in ("balances", "tasks", "targets"):
            with pytest.raises(ConfigError):
                config_from_json_dict(_base(eval={key: []}))

    @pytest.mark.parametrize("key,values", [
        ("balances", [50, 50]), ("targets", ["architecture", "architecture"]),
        ("tasks", ["identification", "identification"]),
    ])
    def test_duplicate_entries_rejected(self, key, values):
        with pytest.raises(ConfigError, match=f"^eval.{key}: duplicate entries"):
            config_from_json_dict(_base(eval={key: values}))

    def test_undersample_is_not_an_option(self):
        with pytest.raises(ConfigError, match="undersample"):
            config_from_json_dict(_base(eval={"undersample": False}))

    def test_bad_task_name(self):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(eval={"tasks": ["identify"]}))
        assert "identify" in str(err.value)

    def test_synth_counts_positive(self):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(synth={"cells_per_spec": 0}))
        assert "synth.cells_per_spec" in str(err.value)

    @pytest.mark.parametrize("make,message", [
        (lambda: SynthConfig(cells_per_spec=0), "cells_per_spec: must be > 0, got 0"),
        (lambda: SynthConfig(n_freq=-4), "n_freq: must be > 0, got -4"),
        (lambda: SynthConfig(seed=-1), "seed: must be >= 0, got -1"),
    ], ids=["cells", "n-freq", "seed"])
    def test_synth_settings_check_their_bounds_when_made(self, make, message):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message

    @pytest.mark.parametrize("overrides,field", [
        ({"eval": {"seed": -1}}, "eval.seed"),
        ({"synth": {"seed": -3}}, "synth.seed"),
        ({"models": [{"kind": "KNN"}, {"kind": "SVM", "seed": -1}]}, "models[1].seed"),
    ], ids=["eval", "synth", "models"])
    def test_negative_seed_names_the_field(self, overrides, field):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(**overrides))
        assert str(err.value).startswith(f"{field}: must be >= 0")

    def test_zero_seeds_are_accepted(self):
        cfg = config_from_json_dict(_base(synth={"seed": 0}, eval={"seed": 0}))
        assert cfg.synth.seed == cfg.eval.seed == cfg.models[0].seed == 0

    def test_wrong_type_reports_expected(self):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(eval={"folds": "five"}))
        assert "expected int" in str(err.value)


class TestModels:
    def test_model_list_parsed(self):
        cfg = config_from_json_dict(_base(models=[
            {"kind": "KNN", "grid": {"k": [1, 3]}},
            {"kind": "SVM", "seed": 5},
        ]))
        assert [m.kind for m in cfg.models] == ["KNN", "SVM"]
        assert cfg.models[0].resolved_grid()["k"] == [1, 3]
        assert cfg.models[1].seed == 5

    def test_model_seed_defaults_to_eval_seed(self):
        cfg = config_from_json_dict(_base(models=[{"kind": "KNN"}], eval={"seed": 11}))
        assert cfg.models[0].seed == 11

    def test_empty_model_list(self):
        with pytest.raises(ConfigError):
            config_from_json_dict(_base(models=[]))

    def test_unknown_kind_reports_index(self):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(models=[{"kind": "KNN"}, {"kind": "XGBoost"}]))
        assert "models[1]" in str(err.value)

    def test_bad_grid_dimension_reports_index(self):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(models=[{"kind": "KNN", "grid": {"neighbors": [3]}}]))
        assert "models[0]" in str(err.value)

    @pytest.mark.parametrize("kind,grid", [
        ("SVM", {"C": ["x"]}), ("KNN", {"k": ["x"]}), ("KNN", {"k": [1e400]}),
    ])
    def test_grid_value_that_does_not_convert(self, kind, grid):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(models=[{"kind": "KNN"}, {"kind": kind, "grid": grid}]))
        assert str(err.value).startswith(f"models[1]: {kind} grid point")

    def test_repeated_kind_names_both_positions(self):
        # one model file per kind: a second KNN would overwrite the first's
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(models=[
                {"kind": "KNN", "grid": {"k": [1]}}, {"kind": "SVM"},
                {"kind": "KNN", "grid": {"k": [5]}},
            ]))
        assert str(err.value) == "models[2]: kind 'KNN' repeats models[0]"

    def test_unknown_model_key(self):
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(_base(models=[{"kind": "KNN", "seeed": 3}]))
        assert "seeed" in str(err.value)


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(str(tmp_path / "absent.json"))
        assert "cannot read" in str(err.value)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{pipeline:", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(str(p))
        assert "not valid JSON" in str(err.value)

    def test_round_trip_from_file(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text('{"pipeline": "eis", "synth": {"seed": 3}}', encoding="utf-8")
        cfg = load_config(str(p))
        assert cfg.pipeline == "eis"
        assert cfg.synth.seed == 3
