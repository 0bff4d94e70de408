import dataclasses
import json
import re

import numpy as np
import pytest

from scatterqml import cli
from scatterqml.cli import main
from scatterqml.config import (
    KNOWN_KEYS,
    ConfigError,
    dataset_config,
    load_config,
    parse_assignments,
    sweep_config,
    train_config,
)
from scatterqml.dataset import (
    DatasetConfig,
    SweepConfig,
    build_dataset,
    desk_sweep_config,
)
from scatterqml.serialize import (
    SerializeError,
    load_events,
    read_runs_csv,
    save_dataset,
    save_events,
)
from scatterqml.train import MODEL_NAMES, TrainConfig, input_width, train

from conftest import tiny_sweep_config
from oracles import format_config, load_model

TINY_CFG = """
# smoke-scale sweep
masses = 0.2, 0.5, 0.8
couplings = 0.4, 0.6, 0.8
sites = 8
time_horizon = 16.0
momentum_width = 0.7
epochs = 3
runs = 2
batch_size = 2
"""


@pytest.fixture
def tiny_cfg_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


def test_load_config_types(tiny_cfg_file):
    values = load_config(tiny_cfg_file)
    assert values["masses"] == (0.2, 0.5, 0.8)
    assert values["sites"] == 8
    assert values["time_horizon"] == 16.0
    assert values["runs"] == 2


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("massess = 0.5\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("masses", ["0.2,,0.5", "0.2, 0.5,", ",0.2", ""])
def test_a_list_with_an_empty_element_is_refused_naming_the_key(tmp_path, masses):
    path = tmp_path / "bad.cfg"
    path.write_text(f"sites = 8\nmasses = {masses}\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: masses must be"):
        load_config(path)
    with pytest.raises(ConfigError, match="^masses must be"):
        parse_assignments([f"masses={masses}"])


def test_parse_assignments():
    values = parse_assignments(["sites=10", "threshold=median", "masses=0.1,0.2"])
    assert values == {"sites": 10, "threshold": None, "masses": (0.1, 0.2)}
    with pytest.raises(ConfigError):
        parse_assignments(["sites"])
    with pytest.raises(ConfigError):
        parse_assignments(["model=resnet"])
    with pytest.raises(ConfigError):
        parse_assignments(["sites=ten"])


def test_sweep_config_defaults_and_overrides():
    assert sweep_config({}) == desk_sweep_config()
    cfg = sweep_config({"sites": 8, "masses": (0.3,)})
    assert cfg.sites == 8 and cfg.masses == (0.3,)


def test_train_config_and_model_dims():
    tc = train_config({"epochs": 5}, model="cnn113")
    assert tc.model == "cnn113" and tc.epochs == 5 and tc.runs == 50
    assert input_width("qcnn16-tpe") == 16
    assert input_width("cnn51") == 4
    assert dataset_config({"threshold": 0.7, "split_seed": 3}) == DatasetConfig(
        threshold=0.7, split_seed=3
    )


def test_format_config_round_trips(tmp_path):
    values = {"masses": (0.2, 0.5), "sites": 8, "threshold": None}
    path = tmp_path / "out.cfg"
    path.write_text(format_config(values))
    assert load_config(path) == values


def test_cli_full_pipeline(tiny_cfg_file, tmp_path, capsys):
    run_dir = tmp_path / "run"

    assert main(["gen-data", "--config", str(tiny_cfg_file),
                 "--out", str(run_dir), "--workers", "2"]) == 0
    _, events = load_events(run_dir / "events.jsonl")
    assert len(events) == 9
    assert (run_dir / "dataset.json").exists()

    assert main(["train", "--config", str(tiny_cfg_file),
                 "--in", str(run_dir), "--model", "cnn51"]) == 0
    name, params, meta = load_model(run_dir / "model-cnn51-seed0.json")
    assert name == "cnn51" and params.size == 51 and meta["epochs"] == 3

    assert main(["experiment", "--config", str(tiny_cfg_file),
                 "--in", str(run_dir),
                 "--models", "qcnn4-tpe", "cnn51",
                 "--workers", "2"]) == 0
    rows = read_runs_csv(run_dir / "runs.csv")
    assert [(r.model, r.seed, r.epoch) for r in rows] == [
        (model, seed, epoch)
        for model in ("qcnn4-tpe", "cnn51")
        for seed in (0, 1)
        for epoch in (1, 2, 3)
    ]

    assert main(["report", "--in", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "best:" in out


def test_cli_missing_file_fails_cleanly(tmp_path, capsys):
    code = main(["train", "--in", str(tmp_path / "nope")])
    assert code == 1
    assert f"no such file: {tmp_path / 'nope' / 'events.jsonl'}" in capsys.readouterr().err


def test_cli_train_seeds_its_run_with_base_seed(tiny_cfg_file, tiny_events, tmp_path):
    path, _ = _events_file(tmp_path, tiny_events)
    assert main(["train", "--config", str(tiny_cfg_file), "--in", str(tmp_path),
                 "--model", "cnn51", "--set", "base_seed=3"]) == 0
    name, params, meta = load_model(tmp_path / "model-cnn51-seed3.json")
    assert name == "cnn51" and meta["seed"] == 3
    assert not (tmp_path / "model-cnn51-seed0.json").exists()

    values = load_config(tiny_cfg_file)
    tc = train_config(values, model="cnn51")
    dataset = build_dataset(load_events(path)[1], input_width("cnn51"), dataset_config(values))
    np.testing.assert_array_equal(params, train(dataset, tc, seed=3).final_params)


def test_cli_bad_override_fails_cleanly(tiny_cfg_file, tmp_path, capsys):
    code = main(["gen-data", "--config", str(tiny_cfg_file),
                 "--set", "sites=seven", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "sites" in capsys.readouterr().err


def test_cli_rejects_a_fixed_setting_as_an_unknown_key(tiny_cfg_file, tmp_path, capsys):
    run_dir = tmp_path / "run"
    code = main(["gen-data", "--config", str(tiny_cfg_file),
                 "--set", "time_step=0.25", "--out", str(run_dir)])
    assert code == 1
    assert "unknown key 'time_step'" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("setting", ["n_components=-2", "n_components=0"])
def test_cli_rejects_the_retired_width_key_as_unknown(tiny_cfg_file, tmp_path, capsys, setting):
    # the dataset width is the model's input width, not a key: neither an
    # override nor a config file line may set it
    old_cfg = tmp_path / "old.cfg"
    old_cfg.write_text(TINY_CFG + setting.replace("=", " = ") + "\n")
    run_dir = tmp_path / "run"
    for argv in (["--config", str(tiny_cfg_file), "--set", setting], ["--config", str(old_cfg)]):
        assert main(["gen-data", *argv, "--out", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert "unknown key 'n_components'; known keys: " in err and "split_seed" in err
        assert not run_dir.exists()


# 4 masses x 4 couplings at N=8: 12 training rows, enough for 8 components
WIDE_GRID = ["--set", "masses=0.2,0.4,0.6,0.8", "--set", "couplings=0.4,0.5,0.6,0.8"]


@pytest.mark.parametrize("overrides,width", [
    ([], 4),
    (WIDE_GRID + ["--set", "model=qcnn8-tpe"], 8),
], ids=["default", "qcnn8-tpe"])
def test_gen_data_writes_the_dataset_train_builds(
    tiny_cfg_file, tmp_path, monkeypatch, overrides, width
):
    argv = ["--config", str(tiny_cfg_file), "--set", "epochs=1", *overrides]
    run_dir = tmp_path / "run"
    assert main(["gen-data", *argv, "--out", str(run_dir), "--workers", "2"]) == 0
    built = []

    def recording(*args):
        built.append(build_dataset(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_dataset", recording)
    assert main(["train", *argv, "--in", str(run_dir)]) == 0
    assert built[0].features.shape[1] == width
    save_dataset(tmp_path / "train.json", built[0])
    assert (run_dir / "dataset.json").read_bytes() == (tmp_path / "train.json").read_bytes()


def _fail_if_called(*args, **kwargs):
    raise AssertionError("called before the options were checked")


def test_gen_data_fails_as_train_does_on_a_model_too_wide_for_its_data(
    tiny_cfg_file, tmp_path, capsys, monkeypatch
):
    """Nine grid points keep at most 3 training events per class, so the
    training rows have rank at most 5: gen-data refuses qcnn8-tpe before any
    trajectory runs and makes no run directory, and train refuses it on the
    finished sweep at the PCA."""
    argv = ["--config", str(tiny_cfg_file)]
    run_dir = tmp_path / "run"
    assert main(["gen-data", *argv, "--out", str(run_dir)]) == 0
    capsys.readouterr()
    argv += ["--set", "model=qcnn8-tpe"]
    monkeypatch.setattr(cli, "run_sweep", _fail_if_called)
    assert main(["gen-data", *argv, "--out", str(tmp_path / "wide")]) == 1
    assert (
        "error: requested 8 components but 9 grid points give training data of rank at most 5"
        in capsys.readouterr().err
    )
    assert not (tmp_path / "wide").exists()
    assert main(["train", *argv, "--in", str(run_dir)]) == 1
    rank_error = "error: requested 8 components but the training data has rank 5"
    assert rank_error in capsys.readouterr().err


def test_experiment_refuses_a_repeated_model_before_training(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_events", _fail_if_called)
    monkeypatch.setattr(cli, "run_experiment", _fail_if_called)
    code = main(["experiment", "--in", str(tmp_path),
                 "--models", "cnn51", "qcnn4-hee", "cnn51"])
    assert code == 1
    assert "error: --models names a model twice: cnn51 qcnn4-hee cnn51" in capsys.readouterr().err
    assert not (tmp_path / "runs.csv").exists()


def test_pooled_and_serial_experiments_write_the_same_runs_and_report(
    tiny_cfg_file, tiny_events, tmp_path, capsys
):
    _events_file(tmp_path, tiny_events)
    argv = ["experiment", "--config", str(tiny_cfg_file), "--in", str(tmp_path),
            "--models", "qcnn4-tpe", "cnn51"]
    written, reports = [], []
    for workers in ("2", "1"):
        assert main([*argv, "--workers", workers]) == 0
        written.append((tmp_path / "runs.csv").read_bytes())
        capsys.readouterr()
        assert main(["report", "--in", str(tmp_path)]) == 0
        reports.append(capsys.readouterr().out)
    assert written[0] == written[1]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command,option,reason", [
    ("gen-data", "--out", "File exists"),
    ("train", "--in", "Not a directory"),
    ("report", "--in", "Not a directory"),
])
def test_cli_run_directory_that_is_a_file_fails_cleanly(
    tiny_cfg_file, tmp_path, capsys, command, option, reason
):
    path = tmp_path / "notes.txt"
    path.write_text("not a run directory\n")
    config = [] if command == "report" else ["--config", str(tiny_cfg_file)]
    assert main([command, *config, option, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and reason in err


def test_cli_gen_data_override_changes_grid(tiny_cfg_file, tmp_path):
    # 12 events: 6 (two masses) are too few for the default model's 4 components
    run_dir = tmp_path / "run"
    assert main(["gen-data", "--config", str(tiny_cfg_file),
                 "--set", "masses=0.3,0.45,0.6,0.8",
                 "--out", str(run_dir), "--workers", "2"]) == 0
    _, events = load_events(run_dir / "events.jsonl")
    assert len(events) == 12


@pytest.mark.parametrize("last_row", [
    "2,cnn51,0.5",  # short rows
    "2,cnn51,abc,0.75,0.01",
    "cnn51,0.5,0,0,2,0.125,0.5,0.75,0.01",  # a long row
    "cnn51,abc,0,0,2,0.125,0.5,0.75",  # a bad number
    "cnn51,0.5,0,0,2.5,0.125,0.5,0.75",  # a bad integer
    "cnn51,0.5,0,0,2,nan,0.5,0.75",  # a non-finite number
])
def test_cli_report_with_a_bad_row_names_the_file_and_line(tmp_path, capsys, last_row):
    path = tmp_path / "runs.csv"
    path.write_text(
        "model,threshold,split_seed,seed,epoch,train_loss,train_accuracy,test_accuracy\n"
        "cnn51,0.5,0,0,1,0.25,0.5,0.75\n" + last_row + "\n"
    )
    code = main(["report", "--in", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert str(path) in err and "line 3" in err


def test_cli_report_refuses_runs_cut_at_a_line_break(tmp_path, capsys):
    """A runs.csv cut after a whole line reads, but its last run stops short."""
    path = tmp_path / "runs.csv"
    path.write_text(
        "model,threshold,split_seed,seed,epoch,train_loss,train_accuracy,test_accuracy\n"
        "cnn51,0.5,0,0,1,0.25,0.5,0.75\ncnn51,0.5,0,0,2,0.25,0.5,0.75\n"
        "cnn51,0.5,0,1,1,0.25,0.5,0.75\n"
    )
    assert main(["report", "--in", str(tmp_path)]) == 1
    assert "error: the runs of cnn51 do not all end at the same epoch" in capsys.readouterr().err


def test_cli_report_refuses_a_model_recorded_at_two_thresholds(tmp_path, capsys):
    """Two runs.csv files of one model at thresholds 0.1 and 0.9, concatenated."""
    path = tmp_path / "runs.csv"
    path.write_text(
        "model,threshold,split_seed,seed,epoch,train_loss,train_accuracy,test_accuracy\n"
        "cnn51,0.1,0,0,1,0.25,0.5,0.75\ncnn51,0.9,0,1,1,0.25,0.5,0.75\n"
    )
    assert main(["report", "--in", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error: the runs of cnn51 were recorded at more than one threshold or split seed" in err


def _events_file(tmp_path, tiny_events):
    """A run directory's events file, written at tmp_path, and its lines."""
    path = tmp_path / "events.jsonl"
    save_events(path, tiny_sweep_config(), tiny_events)
    return path, path.read_text().splitlines()


def _train_fails_naming(path, capsys, detail):
    code = main(["train", "--in", str(path.parent), "--model", "cnn51"])
    err = capsys.readouterr().err
    assert code == 1
    assert str(path) in err and detail in err


def test_cli_truncated_events_file_fails_cleanly(tiny_events, tmp_path, capsys):
    path, lines = _events_file(tmp_path, tiny_events)
    path.write_text("\n".join(lines[:3] + [lines[3][:200]]) + "\n")
    _train_fails_naming(path, capsys, "line 4: invalid JSON")


def test_cli_events_header_without_count_fails_cleanly(tiny_events, tmp_path, capsys):
    path, lines = _events_file(tmp_path, tiny_events)
    header = json.loads(lines[0])
    del header["count"]
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    _train_fails_naming(path, capsys, "line 1: missing key 'count'")


@pytest.mark.parametrize("key,value,detail", [
    ("time_horizon", -1.0, "line 1: time_horizon must be at least time_step (0.5), got -1.0"),
    ("time_horizon", "abc", "line 1: time_horizon must be a number, got 'abc'"),
    ("count", "1", "line 1: count must be an integer, got '1'"),
    ("count", True, "line 1: count must be an integer, got True"),
    ("sites", 8.9, "line 1: sites must be an integer, got 8.9"),
    ("sites", "8", "line 1: sites must be an integer, got '8'"),
    ("time_horizon", "16", "line 1: time_horizon must be a number, got '16'"),
    ("momentum_width", True, "line 1: momentum_width must be a number, got True"),
    ("masses", [True, 0.5, 0.8], "line 1: masses must be a number, got True"),
], ids=["time_horizon=-1.0", "time_horizon=abc", "count=str", "count=bool", "sites=float",
        "sites=str", "time_horizon=str", "momentum_width=bool", "masses=bool"])
def test_cli_events_header_with_a_bad_value_fails_cleanly(
    tiny_events, tmp_path, capsys, key, value, detail
):
    path, lines = _events_file(tmp_path, tiny_events)
    header = json.loads(lines[0])
    (header["config"] if key in header["config"] else header)[key] = value
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    _train_fails_naming(path, capsys, detail)


def test_cli_event_without_density_image_fails_cleanly(tiny_events, tmp_path, capsys):
    path, lines = _events_file(tmp_path, tiny_events)
    event = json.loads(lines[2])
    del event["density_image"]
    lines[2] = json.dumps(event)
    path.write_text("\n".join(lines) + "\n")
    _train_fails_naming(path, capsys, "line 3: missing key 'density_image'")


def test_cli_non_finite_sweep_value_fails_before_any_work(tiny_cfg_file, tmp_path, capsys):
    run_dir = tmp_path / "run"
    code = main(["gen-data", "--config", str(tiny_cfg_file),
                 "--set", "masses=nan,0.6", "--out", str(run_dir)])
    assert code == 1
    assert "masses must be finite" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("setting,key", [
    ("time_horizon=0.2", "time_horizon"),
    ("time_horizon=-3", "time_horizon"),
    ("momentum_width=0", "momentum_width"),
    ("test_fraction=1.5", "test_fraction"),
    ("test_fraction=-0.5", "test_fraction"),
    ("threshold=nan", "threshold"),
    ("split_seed=-1", "split_seed"),
    ("sites=7", "sites"),
    ("sites=16", "sites"),
    ("masses=0.0,0.6", "masses"),
    ("fermion_momenta=0.9,-0.9", "fermion_momenta"),
    ("fermion_momenta=4.0", "fermion_momenta"),
    ("antifermion_momenta=0.9", "antifermion_momenta"),
    ("antifermion_momenta=-3.2", "antifermion_momenta"),
    ("learning_rate=nan", "learning_rate"),
    ("epochs=0", "epochs and runs"),
    ("base_seed=-1", "base_seed"),
    ("masses=0.2,,0.5", "masses"),
])
def test_cli_bad_time_grid_or_width_fails_before_any_work(
    tiny_cfg_file, tmp_path, capsys, setting, key
):
    run_dir = tmp_path / "run"
    code = main(["gen-data", "--config", str(tiny_cfg_file),
                 "--set", setting, "--out", str(run_dir)])
    assert code == 1
    assert f"error: {key} must be" in capsys.readouterr().err
    assert not run_dir.exists()


def _other_value(field, default):
    """A valid value of the field's annotated type that differs from default."""
    if field.type == "tuple":
        return tuple(v / 2 for v in default)
    if field.type == "str":
        return next(name for name in MODEL_NAMES if name != default)
    if default is None:
        return 2.0
    return default + 2 if field.type == "int" else default / 2


SWEEP_FIELDS = dataclasses.fields(SweepConfig)
DATASET_FIELDS = dataclasses.fields(DatasetConfig)
TRAIN_FIELDS = dataclasses.fields(TrainConfig)


def test_known_keys_are_the_config_fields_plus_the_dataset_keys():
    names = {f.name for f in SWEEP_FIELDS + DATASET_FIELDS + TRAIN_FIELDS}
    assert KNOWN_KEYS == names and len(KNOWN_KEYS) == 16


@pytest.mark.parametrize("field", SWEEP_FIELDS, ids=lambda f: f.name)
def test_every_sweep_field_is_settable(field):
    default = getattr(desk_sweep_config(), field.name)
    value = _other_value(field, default)
    assert value != default
    values = parse_assignments([format_config({field.name: value}).strip()])
    assert getattr(sweep_config(values), field.name) == value


@pytest.mark.parametrize("field", DATASET_FIELDS, ids=lambda f: f.name)
def test_every_dataset_field_is_settable(field):
    value = _other_value(field, field.default)
    assert value != field.default
    values = parse_assignments([format_config({field.name: value}).strip()])
    assert getattr(dataset_config(values), field.name) == value


@pytest.mark.parametrize("field", TRAIN_FIELDS, ids=lambda f: f.name)
def test_every_train_field_is_settable(field):
    value = _other_value(field, field.default)
    assert value != field.default
    values = parse_assignments([format_config({field.name: value}).strip()])
    assert getattr(train_config(values), field.name) == value


@pytest.mark.parametrize("field", SWEEP_FIELDS, ids=lambda f: f.name)
def test_every_sweep_field_round_trips_through_the_events_header(field, tmp_path):
    base = tiny_sweep_config()
    value = _other_value(field, getattr(base, field.name))
    config = dataclasses.replace(base, **{field.name: value})
    path = tmp_path / "events.jsonl"
    save_events(path, config, [])
    loaded, events = load_events(path)
    assert loaded == config and getattr(loaded, field.name) == value
    assert events == []


def test_events_header_without_a_config_field_names_the_file(tmp_path):
    path = tmp_path / "events.jsonl"
    save_events(path, desk_sweep_config(), [])
    header = json.loads(path.read_text())
    del header["config"]["momentum_width"]
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(SerializeError, match=f"{path} line 1: missing key 'momentum_width'"):
        load_events(path)


@pytest.mark.parametrize("command", [
    ["gen-data", "--out", "unused"],
    ["experiment", "--in", "unused"],
])
@pytest.mark.parametrize("workers", ["-3", "0", "two"])
def test_cli_rejects_non_positive_workers(command, workers, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
