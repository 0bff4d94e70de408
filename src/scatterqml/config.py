"""Flat key=value run configuration files.

A config file is plain text: one `key = value` per line, `#` comments and
blank lines ignored.  List values are comma-separated, with no empty
element.  Unknown keys are rejected.  The same keys can be overridden on the
command line.

The keys are the fields of `SweepConfig`, `DatasetConfig` and `TrainConfig`.
Each value is parsed by its field's annotation; a field that may be None
carries the word that spells None ("median") in its metadata.

Sweep keys (defaults from the desk-scale sweep):
    masses, couplings, fermion_momenta, antifermion_momenta  float lists
    (fermion momenta in (0, pi], antifermion momenta in (-pi, 0))
    sites, time_horizon, momentum_width
    The time step, the separation rule and the packet positions (N/4 and
    3N/4) are fixed: see dataset.TIME_STEP and dataset.SEPARATION_FRACTION.

Dataset keys:
    threshold       "median" or a float entropy threshold
    test_fraction   held-out fraction per class
    split_seed      balancing/split RNG seed
    Every dataset is built at the input width of the model it feeds (4, 8
    or 16 PCA components); gen-data's dataset.json at that of `model`.

Training keys:
    model, learning_rate, batch_size, epochs, runs
    base_seed       seed of the first run: experiment trains base_seed ..
                    base_seed + runs - 1, and train trains base_seed alone
"""

from __future__ import annotations

from dataclasses import fields, replace

from .dataset import DatasetConfig, SweepConfig, desk_sweep_config
from .train import MODEL_NAMES, TrainConfig


class ConfigError(ValueError):
    pass


def _float_list(raw: str) -> tuple:
    tokens = raw.split(",")
    if not all(tok.strip() for tok in tokens):
        raise ConfigError(f"must be a comma-separated list with no empty element, got {raw!r}")
    return tuple(float(tok) for tok in tokens)


def _model_name(raw: str) -> str:
    if raw not in MODEL_NAMES:
        raise ValueError(f"unknown model; choose from {MODEL_NAMES}")
    return raw


# One parser per field annotation (the dataclass modules postpone
# annotations, so these are the annotation strings).
_ANNOTATION_PARSERS = {
    "tuple": _float_list,
    "int": int,
    "float": float,
    "str": _model_name,
}


def _field_parser(f):
    none_word = f.metadata.get("none")
    if none_word is None:
        return _ANNOTATION_PARSERS[f.type]
    return lambda raw: None if raw == none_word else float(raw)


_PARSERS = {
    f.name: _field_parser(f)
    for cls in (SweepConfig, DatasetConfig, TrainConfig)
    for f in fields(cls)
}
KNOWN_KEYS = frozenset(_PARSERS)


def _parse_pair(key: str, raw: str, where: str = ""):
    """(key, typed value) of one `key = value` pair; `where` (file and line)
    prefixes the error."""
    key, raw = key.strip(), raw.strip()
    if key not in KNOWN_KEYS:
        raise ConfigError(
            f"{where}unknown key {key!r}; known keys: {', '.join(sorted(KNOWN_KEYS))}"
        )
    try:
        return key, _PARSERS[key](raw)
    except ConfigError as exc:  # the parser's own words, naming no key
        raise ConfigError(f"{where}{key} {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{where}bad value for {key}: {raw!r} ({exc})") from None


def parse_assignments(pairs) -> dict:
    """Parse `key=value` strings (command-line overrides) into typed values."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, value = _parse_pair(*pair.split("=", 1))
        out[key] = value
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
            key, value = _parse_pair(*stripped.split("=", 1), f"{path}:{lineno}: ")
            values[key] = value
    return values


def _filled(base, values: dict):
    """`base` with the fields that `values` sets replaced."""
    return replace(
        base, **{f.name: values[f.name] for f in fields(base) if f.name in values}
    )


def sweep_config(values: dict) -> SweepConfig:
    """SweepConfig from a config mapping, desk defaults for missing keys."""
    return _filled(desk_sweep_config(), values)


def dataset_config(values: dict) -> DatasetConfig:
    """DatasetConfig from a config mapping, defaults for missing keys."""
    return _filled(DatasetConfig(), values)


def train_config(values: dict, model: str | None = None) -> TrainConfig:
    """TrainConfig from a config mapping, optionally forcing the model name."""
    config = _filled(TrainConfig(), values)
    return config if model is None else replace(config, model=model)
