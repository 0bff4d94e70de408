"""Deterministic JSON / CSV persistence for events, datasets, models, reports.

All writers sort keys and rely on shortest round-trip float repr, so a given
object always serializes to byte-identical output.  Every file carries a
schema version so stale files fail loudly instead of being misread.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import itertools
import json

import numpy as np

from .dataset import PARAMETER_KEYS, PcaModel, ProcessedDataset, ScatteringEvent, SweepConfig
from .train import ExperimentReport

SCHEMA_VERSION = 2


class SerializeError(ValueError):
    pass


def _to_plain(value):
    """Recursively convert numpy containers/scalars to JSON-safe types."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _to_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_plain(v) for v in value]
    return value


def _dumps(obj) -> str:
    return json.dumps(_to_plain(obj), sort_keys=True, separators=(",", ":"))


def _parse(text: str, where: str):
    """One JSON value; `where` names the file (and line) in the error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializeError(f"{where}: invalid JSON ({exc})") from None


@contextlib.contextmanager
def _fields(where: str):
    """Turn a missing key, a wrongly typed value or a value its field rejects
    into a SerializeError."""
    try:
        yield
    except KeyError as exc:
        raise SerializeError(f"{where}: missing key {exc}") from None
    except TypeError as exc:
        raise SerializeError(f"{where}: malformed record ({exc})") from None
    except ValueError as exc:
        raise SerializeError(f"{where}: {exc}") from None


def _check_schema(record, kind, where):
    if not isinstance(record, dict):
        raise SerializeError(f"{where}: expected a JSON object")
    if record.get("schema") != SCHEMA_VERSION:
        raise SerializeError(
            f"{where}: expected schema {SCHEMA_VERSION}, got {record.get('schema')!r}"
        )
    if record.get("kind") != kind:
        raise SerializeError(f"{where}: expected a {kind!r} file, got {record.get('kind')!r}")


def _load_record(path, kind):
    """The single JSON record of a dataset or model file, schema-checked."""
    with open(path) as fh:
        record = _parse(fh.read(), str(path))
    _check_schema(record, kind, str(path))
    return record


def _decode_int(key, value):
    """A JSON integer; bools and strings are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _decode_float(key, value):
    """A JSON integer or float, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _decode_finite(key, value):
    """A JSON number that is neither NaN nor infinite, as a float."""
    value = _decode_float(key, value)
    if not np.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


def _decode_tuple(key, value):
    """A JSON list of numbers, as a tuple of floats."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    return tuple(_decode_float(key, v) for v in value)


def _optional(decode):
    """`decode`, with JSON null passed through as None."""
    return lambda key, value: None if value is None else decode(key, value)


def _decode_str(key, value):
    """A JSON string; numbers, bools and lists are refused."""
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _decode_array(key, value):
    """A JSON array as numpy reads it; a ragged one is refused by name, and
    so is one holding true or false, which numpy would read as 1 or 0."""
    try:
        array = np.array(value)
    except ValueError:
        raise ValueError(f"{key} must be a rectangular array, not ragged") from None
    elements = value
    for _ in range(array.ndim - 1):
        elements = itertools.chain.from_iterable(elements)
    if array.ndim and bool in set(map(type, elements)):
        raise ValueError(f"{key} must hold numbers, not true or false")
    return array


# How a field is rebuilt from its JSON value and its name, by its annotation
# string; a field whose annotation is not listed (dicts) is taken as is.
_FIELD_DECODERS = {
    "tuple": _decode_tuple,
    "int": _decode_int,
    "float": _decode_float,
    "float | None": _optional(_decode_finite),
    "str | None": _optional(_decode_str),
    "np.ndarray": _decode_array,
    "PcaModel": lambda key, v: _from_record(PcaModel, v),
}


def _from_record(cls, record):
    """Dataclass `cls` rebuilt from its `dataclasses.asdict` JSON record."""
    return cls(**{
        f.name: _FIELD_DECODERS.get(f.type, lambda key, v: v)(f.name, record[f.name])
        for f in dataclasses.fields(cls)
    })


def save_events(path, config: SweepConfig, events: list[ScatteringEvent]) -> None:
    """JSON-lines event file: one header line, then one line per event."""
    header = {
        "schema": SCHEMA_VERSION,
        "kind": "events",
        "config": dataclasses.asdict(config),
        "count": len(events),
    }
    with open(path, "w") as fh:
        fh.write(_dumps(header) + "\n")
        for ev in events:
            fh.write(_dumps(dataclasses.asdict(ev)) + "\n")


def _check_event(event: ScatteringEvent, config: SweepConfig, times: set) -> None:
    """Refuse an event whose arrays are not real, finite and shaped by the
    sweep (one row per recorded time, one column per site or per cut), whose
    t_star is not one of the recorded `times`, or whose parameters are not
    the four grid keys, each a finite number."""
    rows = len(config.times)
    for key, shape in (
        ("density_image", (rows, config.sites)),
        ("entropy_traces", (rows, config.sites - 1)),
    ):
        value = getattr(event, key)
        if value.shape != shape:
            raise ValueError(f"{key} has shape {value.shape}, expected {shape}")
        if value.dtype.kind not in "iuf" or not np.isfinite(value).all():
            raise ValueError(f"{key} must hold real, finite numbers")
    if event.t_star is not None and event.t_star not in times:
        raise ValueError(f"t_star {event.t_star!r} is not a recorded time of the sweep")
    parameters = event.parameters
    if not isinstance(parameters, dict) or set(parameters) != set(PARAMETER_KEYS):
        raise ValueError(f"parameters must hold the keys {PARAMETER_KEYS}, got {parameters!r}")
    for key in PARAMETER_KEYS:
        _decode_finite(f"parameters[{key!r}]", parameters[key])


def load_events(path):
    """Read an event file; returns (SweepConfig, list of ScatteringEvent)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SerializeError(f"{path} is empty")
    where = f"{path} line 1"
    header = _parse(lines[0], where)
    _check_schema(header, "events", where)
    with _fields(where):
        config = _from_record(SweepConfig, header["config"])
        count = _decode_int("count", header["count"])
    times = set(config.times.tolist())
    events = []
    for lineno, line in enumerate(lines[1:], 2):
        where = f"{path} line {lineno}"
        d = _parse(line, where)
        with _fields(where):
            events.append(_from_record(ScatteringEvent, d))
            _check_event(events[-1], config, times)
    if len(events) != count:
        raise SerializeError(f"{path} declares {count} events but holds {len(events)}")
    return config, events


def save_dataset(path, dataset: ProcessedDataset) -> None:
    """One JSON record: the dataset's fields, the PCA model nested under "pca"."""
    record = {"schema": SCHEMA_VERSION, "kind": "dataset", **dataclasses.asdict(dataset)}
    with open(path, "w") as fh:
        fh.write(_dumps(record) + "\n")


def load_dataset(path) -> ProcessedDataset:
    record = _load_record(path, "dataset")
    with _fields(str(path)):
        return _from_record(ProcessedDataset, record)


def save_model(path, model_name: str, params: np.ndarray, metadata: dict):
    """A checkpoint for inspection: one JSON record; no command reads it back."""
    record = {
        "schema": SCHEMA_VERSION,
        "kind": "model",
        "model": model_name,
        "params": np.asarray(params, dtype=float),
        "metadata": metadata,
    }
    with open(path, "w") as fh:
        fh.write(_dumps(record) + "\n")


REPORT_COLUMNS = ("epoch", "model", "threshold", "mean_acc", "sem")


def write_report_csv(path, reports: list[ExperimentReport]) -> None:
    """Per-epoch mean test accuracies of one or more experiments, one CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for rep in reports:
            for epoch in range(rep.epochs):
                sem = rep.sem_test_accuracy
                writer.writerow(
                    [
                        epoch + 1,
                        rep.model,
                        repr(rep.threshold),
                        repr(float(rep.mean_test_accuracy[epoch])),
                        "" if sem is None else repr(float(sem[epoch])),
                    ]
                )


def _finite_cell(row, key):
    """The number in a report cell; NaN and infinities are refused by name."""
    return _decode_finite(key, float(row[key]))


def read_report_csv(path):
    """Rows of a report CSV as a list of dicts with parsed numerics."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != REPORT_COLUMNS:
            raise SerializeError(
                f"{path} does not look like a report CSV "
                f"(columns {reader.fieldnames})"
            )
        rows = []
        for row in reader:
            where = f"{path} line {reader.line_num}"
            # DictReader fills a short row with None and keys extra cells by None
            if None in row or None in row.values():
                raise SerializeError(f"{where}: expected {len(REPORT_COLUMNS)} cells")
            try:
                rows.append(
                    {
                        "epoch": int(row["epoch"]),
                        "model": row["model"],
                        "threshold": _finite_cell(row, "threshold"),
                        "mean_acc": _finite_cell(row, "mean_acc"),
                        "sem": None if row["sem"] == "" else _finite_cell(row, "sem"),
                    }
                )
            except ValueError as exc:
                raise SerializeError(f"{where}: {exc}") from None
    return rows
