import csv
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scatterqml.dataset import DatasetError, build_dataset, desk_sweep_config
from scatterqml.serialize import (
    SCHEMA_VERSION,
    SerializeError,
    load_dataset,
    load_events,
    read_runs_csv,
    save_dataset,
    save_events,
    save_model,
    write_runs_csv,
)
from scatterqml.train import RunRow, TrainConfig, run_experiment

from conftest import tiny_sweep_config
from oracles import load_model
from test_train import synthetic_dataset

RUN_COLUMNS = [f.name for f in dataclasses.fields(RunRow)]


def test_events_round_trip(tiny_events, tmp_path):
    cfg = tiny_sweep_config()
    path = tmp_path / "events.jsonl"
    save_events(path, cfg, tiny_events)
    cfg2, events2 = load_events(path)
    assert cfg2 == cfg
    assert len(events2) == len(tiny_events)
    for a, b in zip(tiny_events, events2):
        assert a.parameters == b.parameters
        assert np.array_equal(a.density_image, b.density_image)
        assert np.array_equal(a.entropy_traces, b.entropy_traces)
        assert a.t_star == b.t_star and a.delta_s_mid == b.delta_s_mid


@pytest.mark.parametrize("sweep", ["tiny", "desk"])
def test_events_file_loads_and_saves_back_unchanged(request, tmp_path, sweep):
    cfg = tiny_sweep_config() if sweep == "tiny" else desk_sweep_config()
    events = request.getfixturevalue(f"{sweep}_events")
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_events(p1, cfg, events)
    cfg2, events2 = load_events(p1)
    assert cfg2 == cfg
    for a, b in zip(events, events2, strict=True):
        assert type(a.t_star) is type(b.t_star) and a.t_star == b.t_star
        assert type(a.delta_s_mid) is type(b.delta_s_mid) and a.delta_s_mid == b.delta_s_mid
        assert a.error == b.error
    save_events(p2, cfg2, events2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "key,value",
    [(key, value) for key in ("t_star", "delta_s_mid") for value in (True, "x", "0.5", [0.5])]
    + [("error", value) for value in (1, True, 0.5, ["x"])],
)
def test_event_with_a_wrongly_typed_optional_field_is_rejected(tiny_events, tmp_path, key, value):
    path = tmp_path / "events.jsonl"
    save_events(path, tiny_sweep_config(), tiny_events)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record[key] = value
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SerializeError, match=f"{path} line 3: {key} must be a "):
        load_events(path)


def _row_short(record):
    record["density_image"].pop()


def _row_ragged(record):
    record["density_image"][4].append(0.0)


def _column_narrow(record):
    for row in record["entropy_traces"]:
        row.pop()


def _not_numbers(record):
    record["density_image"] = "abc"


def _nan_entropy(record):
    record["entropy_traces"][3][2] = float("nan")


def _density_entry_true(record):
    record["density_image"][3][2] = True


def _entropy_entry_false(record):
    record["entropy_traces"][5][0] = False


def _t_star_off_the_grid(record):
    record["t_star"] = record["t_star"] + 0.25


def _parameters_a_number(record):
    record["parameters"] = 0.5


def _parameters_missing_a_key(record):
    del record["parameters"]["coupling"]


def _parameters_with_an_extra_key(record):
    record["parameters"]["time_step"] = 0.5


def _parameter_a_bool(record):
    record["parameters"]["mass"] = True


def _parameter_a_string(record):
    record["parameters"]["fermion_momentum"] = "0.9"


def _parameter_infinite(record):
    record["parameters"]["coupling"] = float("inf")


def _delta_s_mid_nan(record):
    record["delta_s_mid"] = float("nan")


# build_dataset labels an event by delta_s_mid alone: label fields that
# disagree with each other or with an error must not load
def _delta_s_mid_without_t_star(record):
    record["t_star"] = None


def _t_star_without_delta_s_mid(record):
    record["delta_s_mid"] = None


def _error_with_labels(record):
    record["error"] = "LatticeError: x"


def _error_with_t_star(record):
    record.update(error="LatticeError: x", delta_s_mid=None)


@pytest.mark.parametrize(
    "corrupt,detail",
    [
        (_row_short, r"density_image has shape \(31, 8\), expected \(32, 8\)"),
        (_row_ragged, "density_image must be a rectangular array, not ragged"),
        (_column_narrow, r"entropy_traces has shape \(32, 6\), expected \(32, 7\)"),
        (_not_numbers, r"density_image has shape \(\), expected \(32, 8\)"),
        (_nan_entropy, "entropy_traces must hold real, finite numbers"),
        (_density_entry_true, "density_image must hold numbers, not true or false"),
        (_entropy_entry_false, "entropy_traces must hold numbers, not true or false"),
        (_t_star_off_the_grid, r"t_star \d+\.\d+ is not a recorded time of the sweep"),
        (_parameters_a_number, "parameters must hold the keys"),
        (_parameters_missing_a_key, "parameters must hold the keys"),
        (_parameters_with_an_extra_key, "parameters must hold the keys"),
        (_parameter_a_bool, r"parameters\['mass'\] must be a number, got True"),
        (_parameter_a_string, r"parameters\['fermion_momentum'\] must be a number, got '0.9'"),
        (_parameter_infinite, r"parameters\['coupling'\] must be finite, got inf"),
        (_delta_s_mid_nan, "delta_s_mid must be finite, got nan"),
        (_delta_s_mid_without_t_star, "t_star and delta_s_mid must be both null or both set"),
        (_t_star_without_delta_s_mid, "t_star and delta_s_mid must be both null or both set"),
        (_error_with_labels, "an event with an error must have null t_star and delta_s_mid"),
        (_error_with_t_star, "t_star and delta_s_mid must be both null or both set"),
    ],
    ids=[
        "density-row-short", "density-row-ragged", "entropy-column-narrow", "density-string", "entropy-nan",
        "density-true", "entropy-false",
        "t-star-off-grid", "parameters-number", "parameters-missing-key",
        "parameters-extra-key", "parameter-bool", "parameter-string", "parameter-infinite",
        "delta-s-mid-nan", "delta-s-mid-without-t-star", "t-star-without-delta-s-mid",
        "error-with-labels", "error-with-t-star",
    ],
)
def test_event_with_misshapen_or_non_finite_arrays_is_rejected(
    tiny_events, tmp_path, corrupt, detail
):
    path = tmp_path / "events.jsonl"
    save_events(path, tiny_sweep_config(), tiny_events)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    corrupt(record)
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SerializeError, match=f"{path} line 3: {detail}"):
        load_events(path)


# any JSON value: what a hand-edited or damaged events line could hold
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
_EVENT_FIELDS = (
    "parameters", "density_image", "entropy_traces", "t_star", "delta_s_mid", "error"
)


def _mutate_one_field(data, record):
    """Change one field of an event record: drop it, replace it by any JSON
    value, or change one entry, row or key inside it."""
    key = data.draw(st.sampled_from(_EVENT_FIELDS), label="field")
    value = record[key]
    how = data.draw(st.sampled_from(["drop", "replace", "inside"]), label="how")
    if how == "drop":
        del record[key]
    elif how == "replace" or not isinstance(value, (list, dict)):
        record[key] = data.draw(_JSON | st.floats(), label="value")
    elif isinstance(value, dict):
        name = data.draw(st.sampled_from(sorted(value) + ["extra"]), label="key")
        if data.draw(st.booleans(), label="drop key"):
            value.pop(name, None)
        else:
            value[name] = data.draw(_JSON | st.floats(), label="value")
    else:
        row = data.draw(st.integers(0, len(value) - 1), label="row")
        change = data.draw(st.sampled_from(["entry", "row", "drop row", "add row"]))
        if change == "entry":
            column = data.draw(st.integers(0, len(value[row]) - 1), label="column")
            value[row][column] = data.draw(_JSON | st.floats(), label="value")
        elif change == "row":
            value[row] = data.draw(_JSON, label="value")
        elif change == "drop row":
            del value[row]
        else:
            value.append(list(value[row]))


@pytest.fixture(scope="module")
def tiny_events_file(tiny_events, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "events.jsonl"
    save_events(path, tiny_sweep_config(), tiny_events)
    return path, path.read_text().splitlines()


@settings(
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_an_events_file_with_one_field_changed_loads_or_fails_naming_the_file(
    tiny_events_file, data
):
    """A changed field either still makes a dataset (or a DatasetError, such
    as too few labelled events), or load_events refuses the file with a
    SerializeError that names it.  Any other exception is a reader gap."""
    valid, lines = tiny_events_file
    line = data.draw(st.integers(2, len(lines)), label="line")
    record = json.loads(lines[line - 1])
    _mutate_one_field(data, record)
    path = valid.with_name("changed.jsonl")
    changed = list(lines)
    changed[line - 1] = json.dumps(record)
    path.write_text("\n".join(changed) + "\n")
    try:
        _, events = load_events(path)
    except SerializeError as exc:
        assert f"{path} line {line}: " in str(exc)
        return
    try:
        build_dataset(events, 4)
    except DatasetError:
        pass


def test_events_write_is_byte_identical(tiny_events, tmp_path):
    cfg = tiny_sweep_config()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_events(p1, cfg, tiny_events)
    save_events(p2, cfg, tiny_events)
    assert p1.read_bytes() == p2.read_bytes()


def _assert_same_fields(a, b):
    """Every dataclass field equal, arrays in dtype too, nested dataclasses alike."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(x):
            _assert_same_fields(x, y)
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert type(x) is type(y) and x == y, f.name


def test_dataset_round_trip(tiny_events, tmp_path):
    ds = build_dataset(tiny_events, 4)
    path = tmp_path / "dataset.json"
    save_dataset(path, ds)
    _assert_same_fields(ds, load_dataset(path))


def test_dataset_with_flat_pca_keys_is_rejected(tiny_events, tmp_path):
    path = tmp_path / "dataset.json"
    save_dataset(path, build_dataset(tiny_events, 4))
    record = json.loads(path.read_text())
    for key, value in record.pop("pca").items():
        record[f"pca_{key}"] = value  # the layout before the PCA model was nested
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(SerializeError, match=f"{path}: missing key 'pca'"):
        load_dataset(path)


def test_model_round_trip(tmp_path):
    path = tmp_path / "model.json"
    params = np.linspace(-1, 1, 48)
    save_model(path, "qcnn4-hee", params, metadata={"seed": 3})
    name, loaded, meta = load_model(path)
    assert name == "qcnn4-hee"
    assert np.array_equal(loaded, params)
    assert meta == {"seed": 3}


def test_checkpoint_with_numpy_scalars_writes_the_bytes_of_python_scalars(tmp_path):
    params = np.linspace(-1, 1, 51)
    python_meta = {"threshold": 0.1, "accuracy": float(np.float32(0.75)), "seed": 3,
                   "curve": [0.5, 0.25]}
    numpy_meta = {"threshold": np.float64(0.1), "accuracy": np.float32(0.75),
                  "seed": np.int64(3), "curve": np.array([0.5, 0.25])}
    paths = tmp_path / "python.json", tmp_path / "numpy.json"
    save_model(paths[0], "cnn51", params, metadata=python_meta)
    save_model(paths[1], "cnn51", params, metadata=numpy_meta)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_report_csv_round_trip(tmp_path):
    """runs.csv, the file the report command reads, gives back every RunRow."""
    ds = synthetic_dataset(seed=0)
    reports = [
        run_experiment(ds, TrainConfig(model="cnn51", epochs=3, runs=2), workers=1),
        run_experiment(ds, TrainConfig(model="cnn113", epochs=3, runs=1), workers=1),
    ]
    rows = [row for rep in reports for row in rep.rows()]
    path = tmp_path / "runs.csv"
    write_runs_csv(path, rows)
    assert read_runs_csv(path) == rows
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "model,threshold,split_seed,seed,epoch,train_loss,train_accuracy,test_accuracy"
    )
    assert len(lines) == 1 + 9
    assert lines[1].startswith(f"cnn51,{ds.threshold!r},0,0,1,")


@pytest.fixture(scope="module")
def valid_report(tmp_path_factory):
    """A two-model runs.csv: two seeds of one model and a single run of another."""
    rows = [
        RunRow("cnn51", 0.25, 0, seed, epoch, 0.3 / epoch, 0.5 + 0.1 * epoch, acc)
        for seed, accs in ((0, (0.5, 0.75)), (1, (0.5, 0.625)))
        for epoch, acc in enumerate(accs, 1)
    ] + [
        RunRow("qcnn4-hee", 0.25, 0, 0, epoch, 0.2, 0.5, acc)
        for epoch, acc in enumerate((0.5, 0.625), 1)
    ]
    path = tmp_path_factory.mktemp("report") / "runs.csv"
    write_runs_csv(path, rows)
    with open(path, newline="") as fh:
        return path, list(csv.reader(fh))


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize(
    "key", ["threshold", "train_loss", "train_accuracy", "test_accuracy"]
)
@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
def test_report_csv_refuses_non_finite_numbers(valid_report, tmp_path, key, cell):
    _, rows = valid_report
    rows = [list(row) for row in rows]
    rows[2][RUN_COLUMNS.index(key)] = cell
    path = tmp_path / "runs.csv"
    _write_rows(path, rows)
    with pytest.raises(SerializeError, match=f"{path} line 3: {key} must be finite"):
        read_runs_csv(path)


# any cell text: what a hand-edited or damaged report could hold
_CELL = (
    st.sampled_from(["", "nan", "-inf", "Infinity", "1e999", "True", "0x10", "1_0", " 2 "])
    | st.floats().map(repr)
    | st.integers(-(10**20), 10**20).map(str)
    | st.text(max_size=6)
)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_a_report_with_one_cell_changed_reads_or_fails_naming_the_line(valid_report, data):
    """A changed cell of runs.csv either reads back as integers and finite
    numbers, or read_runs_csv refuses the file with a SerializeError naming it
    and the record's line.  Any other exception is a reader gap."""
    valid, rows = valid_report
    line = data.draw(st.integers(2, len(rows)), label="line")
    column = data.draw(st.integers(0, len(RUN_COLUMNS) - 1), label="column")
    cell = data.draw(_CELL, label="cell")
    changed = [list(row) for row in rows]
    changed[line - 1][column] = cell
    path = valid.with_name("changed.csv")
    _write_rows(path, changed)
    try:
        read = read_runs_csv(path)
    except SerializeError as exc:
        # a quoted line break inside the cell moves the record's last line
        last_line = line + len(re.findall(r"\r\n|\r|\n", cell))
        assert f"{path} line {last_line}: " in str(exc)
        return
    assert len(read) == len(rows) - 1
    for row in read:
        assert all(isinstance(v, int) for v in (row.split_seed, row.seed, row.epoch))
        assert np.isfinite(
            [row.threshold, row.train_loss, row.train_accuracy, row.test_accuracy]
        ).all()


def test_schema_mismatch_raises(tmp_path):
    path = tmp_path / "bad.jsonl"
    for schema in (99, 1):  # 1: events that repeated the time grid in every line
        path.write_text(f'{{"schema": {schema}, "kind": "events", "config": {{}}, "count": 0}}\n')
        with pytest.raises(SerializeError, match=f"expected schema {SCHEMA_VERSION}, got {schema}"):
            load_events(path)
    path2 = tmp_path / "bad.csv"
    path2.write_text("a,b\n1,2\n")
    with pytest.raises(SerializeError, match=f"{path2} does not look like a runs CSV"):
        read_runs_csv(path2)


def test_wrong_kind_raises(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, "cnn51", np.zeros(51), metadata={})
    with pytest.raises(SerializeError):
        load_dataset(path)


def test_dataset_and_model_loaders_name_the_file(tmp_path):
    truncated = tmp_path / "dataset.json"
    truncated.write_text(f'{{"schema": {SCHEMA_VERSION}, "kind": "dataset", "features": [[0.1, ')
    with pytest.raises(SerializeError, match=f"{truncated}: invalid JSON"):
        load_dataset(truncated)
    incomplete = tmp_path / "dataset2.json"
    incomplete.write_text(f'{{"schema": {SCHEMA_VERSION}, "kind": "dataset"}}\n')
    with pytest.raises(SerializeError, match=f"{incomplete}: missing key 'features'"):
        load_dataset(incomplete)
    model = tmp_path / "model.json"
    model.write_text(f'{{"schema": {SCHEMA_VERSION}, "kind": "model", "model": "cnn51"}}\n')
    with pytest.raises(SerializeError, match=f"{model}: missing key 'params'"):
        load_model(model)
    not_object = tmp_path / "model2.json"
    not_object.write_text("[1, 2]\n")
    with pytest.raises(SerializeError, match=f"{not_object}: expected a JSON object"):
        load_model(not_object)
