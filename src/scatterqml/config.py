"""Flat key=value run configuration files.

A config file is plain text: one `key = value` per line, `#` comments and
blank lines ignored.  List values are comma-separated.  Unknown keys are
rejected.  The same keys can be overridden on the command line.

The sweep and training keys are the fields of `SweepConfig` and
`TrainConfig`; each value is parsed by its field's annotation.

Sweep keys (defaults from the desk-scale sweep):
    masses, couplings, fermion_momenta, antifermion_momenta  float lists
    sites, time_horizon, time_step, sep_fraction, momentum_width
    fermion_position, antifermion_position  ("auto" places the packets at
    N/4 and 3N/4)

Dataset keys:
    threshold       "median" or a float entropy threshold
    test_fraction   held-out fraction per class
    split_seed      balancing/split RNG seed
    n_components    PCA dimension of the dataset written by gen-data

Training keys:
    model, learning_rate, batch_size, epochs, runs, base_seed
"""

from __future__ import annotations

from dataclasses import fields, replace

from .dataset import SweepConfig, desk_sweep_config
from .train import MODEL_NAMES, TrainConfig


class ConfigError(ValueError):
    pass


def _float_list(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _optional_float(none_word: str):
    return lambda raw: None if raw == none_word else float(raw)


def _model_name(raw: str) -> str:
    if raw not in MODEL_NAMES:
        raise ValueError(f"unknown model; choose from {MODEL_NAMES}")
    return raw


# One parser per field annotation (both dataclass modules postpone
# annotations, so these are the annotation strings).
_ANNOTATION_PARSERS = {
    "tuple": _float_list,
    "int": int,
    "float": float,
    "float | None": _optional_float("auto"),
    "str": _model_name,
}
_PARSERS = {
    f.name: _ANNOTATION_PARSERS[f.type]
    for f in fields(SweepConfig) + fields(TrainConfig)
}
_PARSERS.update(
    threshold=_optional_float("median"),
    test_fraction=float,
    split_seed=int,
    n_components=int,
)
KNOWN_KEYS = frozenset(_PARSERS)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        return _PARSERS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None


def parse_assignments(pairs) -> dict:
    """Parse `key=value` strings (command-line overrides) into typed values."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, raw = pair.split("=", 1)
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(
                f"unknown key {key!r}; known keys: {', '.join(sorted(KNOWN_KEYS))}"
            )
        out[key] = _parse_value(key, raw)
    return out


def load_config(path) -> dict:
    """Read a key=value file into a typed mapping."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = stripped.split("=", 1)
            key = key.strip()
            if key not in KNOWN_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_value(key, raw)
    return values


def sweep_config(values: dict) -> SweepConfig:
    """SweepConfig from a config mapping, desk defaults for missing keys."""
    return replace(
        desk_sweep_config(),
        **{f.name: values[f.name] for f in fields(SweepConfig) if f.name in values},
    )


def train_config(values: dict, model: str | None = None) -> TrainConfig:
    """TrainConfig from a config mapping, optionally forcing the model name."""
    kwargs = {f.name: values[f.name] for f in fields(TrainConfig) if f.name in values}
    if model is not None:
        kwargs["model"] = model
    return TrainConfig(**kwargs)


def dataset_options(values: dict) -> dict:
    """Keyword arguments for build_dataset() drawn from a config mapping."""
    out = {"threshold": values.get("threshold"), "seed": values.get("split_seed", 0)}
    if "test_fraction" in values:
        out["test_fraction"] = values["test_fraction"]
    return out


def model_input_dim(model: str) -> int:
    """Feature dimension each model consumes (PCA component count)."""
    if model.startswith("qcnn"):
        return int(model[4:].split("-")[0])
    return 4
