"""Experiment configuration: a nested key-value (YAML) file with include
support, resolved into the typed configs of the other modules, plus the
run manifest used for provenance checks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import yaml

from .data import SynthSpec, check_rate, check_ratios, check_stride
from .federation import TopologySpec, TrainingConfig
from .models import ModelConfig
from .nn import AdamConfig


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
    file) is merged first, later files and the including file winning."""
    path = Path(path)
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
    merged = {}
    for inc in includes:
        merged = _deep_merge(merged, load_config(path.parent / inc))
    return _deep_merge(merged, raw)


def config_hash(cfg: dict) -> str:
    """Content hash of the fully resolved config."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class Experiment:
    """Typed view over a resolved config dict."""

    raw: dict
    seed: int
    topology: TopologySpec
    training: TrainingConfig
    model: ModelConfig
    gamma: float
    data: dict
    injection: dict
    hash: str


def _section(cfg, name, default=None):
    value = cfg.get(name, default if default is not None else {})
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return value


def _coerced(cfg, name, casts):
    """Section `name` with each field in `casts` converted by its cast."""
    out = dict(_section(cfg, name))
    for key, cast in casts.items():
        if key in out:
            try:
                out[key] = cast(out[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}.{key}: {exc}")
    return out


def _data_section(cfg):
    data = _coerced(cfg, "data", {
        "stride": int, "length": int, "noise": float,
        "ratios": lambda v: tuple(float(r) for r in v),
    })
    if "stride" in data:
        check_stride(data["stride"])
    if "ratios" in data:
        check_ratios(data["ratios"])
    SynthSpec(**{k: data[k] for k in ("length", "noise") if k in data})
    return data


def _injection_section(cfg):
    injection = _coerced(cfg, "injection", {"rate": float, "magnitude": float, "seed": int})
    if "rate" in injection:
        check_rate(injection["rate"])
    return injection


def resolve_experiment(cfg: dict) -> Experiment:
    try:
        topo_cfg = _section(cfg, "topology")
        topology = TopologySpec(
            slices=int(topo_cfg.get("slices", 1)),
            monitors_per_slice=int(topo_cfg.get("monitors_per_slice", 1)),
        )
        train_cfg = _section(cfg, "training")
        adam_cfg = train_cfg.get("adam", {})
        training = TrainingConfig(
            mode=str(train_cfg.get("mode", "federated")),
            iterations=int(train_cfg.get("iterations", 500)),
            critic_iters=int(train_cfg.get("critic_iters", 5)),
            local_iters=int(train_cfg.get("local_iters", 10)),
            batch_size=int(train_cfg.get("batch_size", 64)),
            eta=float(train_cfg.get("eta", 10.0)),
            adam=AdamConfig(
                alpha=float(adam_cfg.get("alpha", 1e-4)),
                beta1=float(adam_cfg.get("beta1", 0.5)),
                beta2=float(adam_cfg.get("beta2", 0.9)),
                epsilon_stability=float(adam_cfg.get("epsilon", 1e-8)),
            ),
            noise=str(train_cfg.get("noise", "normal")),
        )
        model_cfg = _section(cfg, "model")
        model = ModelConfig(
            features=int(model_cfg.get("features", 26)),
            window=int(model_cfg.get("window", 8)),
            latent_dim=int(model_cfg.get("latent_dim", 16)),
            gen_hidden=tuple(model_cfg.get("gen_hidden", (32, 32))),
            critic_hidden=tuple(model_cfg.get("critic_hidden", (64, 32))),
            head_mode=str(model_cfg.get("head_mode", "linear")),
        )
        detection_cfg = _section(cfg, "detection")
        gamma = float(detection_cfg.get("gamma", 0.9))
        if not (0.0 <= gamma <= 1.0):
            raise ConfigError("detection.gamma must lie in [0, 1]")
        return Experiment(
            raw=cfg,
            seed=int(cfg.get("seed", 0)),
            topology=topology,
            training=training,
            model=model,
            gamma=gamma,
            data=_data_section(cfg),
            injection=_injection_section(cfg),
            hash=config_hash(cfg),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def load_experiment(path) -> Experiment:
    return resolve_experiment(load_config(path))
