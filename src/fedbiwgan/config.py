"""Experiment configuration: a nested key-value (YAML) file with include
support, resolved into the typed configs of the other modules, plus the
run manifest used for provenance checks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .data import DataConfig, InjectionConfig
from .detection import DetectionConfig
from .federation import TopologySpec, TrainingConfig
from .models import ModelConfig


class ConfigError(ValueError):
    pass


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path) -> dict:
    """Load a YAML config; an `include` list of paths (relative to the
    file) is merged first, later files and the including file winning.
    A file that includes itself, directly or not, is a ConfigError."""

    def load(path, chain):
        try:
            with open(path, encoding="utf-8") as fh:
                raw = yaml.safe_load(fh) or {}
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        includes = raw.pop("include", [])
        if isinstance(includes, str):
            includes = [includes]
        if not isinstance(includes, list) or not all(isinstance(i, str) for i in includes):
            raise ConfigError(f"{path}: include must be a path or a list of paths, "
                              f"got {includes!r}")
        chain = chain + [path.resolve()]
        merged = {}
        for inc in includes:
            target = (path.parent / inc).resolve()
            if target in chain:
                cycle = chain[chain.index(target):] + [target]
                raise ConfigError("include cycle: " + " -> ".join(map(str, cycle)))
            merged = _deep_merge(merged, load(path.parent / inc, chain))
        return _deep_merge(merged, raw)

    return load(Path(path), [])


def config_hash(cfg: dict) -> str:
    """Content hash of the fully resolved config."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class Experiment:
    """A resolved config: each top-level key is a field, and each section
    is the dataclass of the module that owns its defaults."""

    seed: int = 0
    topology: TopologySpec = field(default_factory=TopologySpec)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    data: DataConfig = field(default_factory=DataConfig)
    injection: InjectionConfig = field(default_factory=InjectionConfig)
    raw: dict = field(default_factory=dict, init=False)  # the config as written
    hash: str = field(default="", init=False)


_KINDS = {int: "an integer", float: "a finite number", str: "a string", tuple: "a list",
          list: "a list", dict: "a mapping"}


def _field_value(hint, key, value):
    """`value` checked against a field's type hint: an int takes only an
    int, a float any finite number (or numeric string, as YAML reads
    `1e-4`), a tuple a list, a dict[K, V] a mapping of V values, and a
    dataclass a mapping of its fields."""
    if type(None) in typing.get_args(hint):
        if value is None:
            return None
        (hint,) = set(typing.get_args(hint)) - {type(None)}
    if dataclasses.is_dataclass(hint):
        return resolve_section(hint, key, value)
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if origin is float and type(value) in (int, float, str):
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if math.isfinite(number):
            return number
    elif origin is tuple and type(value) in (list, tuple):
        return tuple(_field_value(args[0], key, v) for v in value) if args else tuple(value)
    elif origin is dict and type(value) is dict and args:
        return {k: _field_value(args[1], f"{key}.{k}", v) for k, v in value.items()}
    elif type(value) is origin:
        return value
    raise ConfigError(f"{key} must be {_KINDS[origin]}, got {value!r}")


def resolve_section(cls, name, section):
    """Dataclass `cls` built from the config section `name` (a mapping):
    every key must be one of its fields and fit that field's type, and a
    missing key takes the field's own default."""
    if not isinstance(section, dict):
        raise ConfigError(f"{name or 'the config'} must be a mapping, got {section!r}")
    hints = typing.get_type_hints(cls)
    keys = [f.name for f in dataclasses.fields(cls) if f.init]
    values = {}
    for key, value in section.items():
        path = f"{name}.{key}" if name else str(key)
        if key not in keys:
            raise ConfigError(f"unknown config key {path}; valid keys are {', '.join(keys)}")
        values[key] = _field_value(hints[key], path, value)
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        message = str(exc)  # checks shared with non-config callers already name the key
        raise ConfigError(message if message.startswith(name) else f"{name}: {message}") from None


def resolve_experiment(cfg: dict) -> Experiment:
    exp = resolve_section(Experiment, "", cfg)
    exp.raw, exp.hash = cfg, config_hash(cfg)
    return exp


def load_experiment(path) -> Experiment:
    return resolve_experiment(load_config(path))
