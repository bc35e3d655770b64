import re
from dataclasses import fields
from pathlib import Path

import pytest
import yaml

from fedbiwgan.cli import main
from fedbiwgan.config import (
    ConfigError,
    config_hash,
    load_config,
    load_experiment,
    resolve_experiment,
)
from fedbiwgan.data import DataConfig, InjectionConfig
from fedbiwgan.detection import DetectionConfig
from fedbiwgan.federation import TopologySpec, TrainingConfig
from fedbiwgan.models import ModelConfig


def test_load_simple(tmp_path):
    p = tmp_path / "a.yaml"
    p.write_text("seed: 3\ntraining:\n  mode: standalone\n")
    cfg = load_config(p)
    assert cfg == {"seed": 3, "training": {"mode": "standalone"}}


def test_include_merge(tmp_path):
    (tmp_path / "base.yaml").write_text(
        "topology:\n  slices: 2\n  monitors_per_slice: 3\nseed: 1\n")
    child = tmp_path / "child.yaml"
    child.write_text("include: [base.yaml]\nseed: 9\ntopology:\n  slices: 4\n")
    cfg = load_config(child)
    assert cfg["seed"] == 9
    assert cfg["topology"] == {"slices": 4, "monitors_per_slice": 3}


def test_include_cycle_is_a_config_error(tmp_path, capsys):
    (tmp_path / "a.yaml").write_text("include: b.yaml\nseed: 1\n")
    (tmp_path / "b.yaml").write_text("include: [a.yaml]\n")
    (tmp_path / "self.yaml").write_text("include: [self.yaml]\n")
    with pytest.raises(ConfigError, match=r"include cycle: \S*a\.yaml -> \S*b\.yaml -> \S*a\.yaml"):
        load_config(tmp_path / "a.yaml")
    with pytest.raises(ConfigError, match=r"self\.yaml -> \S*self\.yaml"):
        load_config(tmp_path / "self.yaml")
    assert main(["train", "--config", str(tmp_path / "a.yaml"),
                 "--out", str(tmp_path / "run")]) == 2
    assert "include cycle" in capsys.readouterr().err
    # two files including one more is a diamond, not a cycle
    (tmp_path / "d.yaml").write_text("seed: 4\n")
    (tmp_path / "c.yaml").write_text("include: d.yaml\n")
    (tmp_path / "top.yaml").write_text("include: [c.yaml, d.yaml]\n")
    assert load_config(tmp_path / "top.yaml") == {"seed": 4}


@pytest.mark.parametrize("value", ["5", "[base.yaml, 3]", "{base: base.yaml}", "null"])
def test_include_must_name_paths(tmp_path, capsys, value):
    (tmp_path / "base.yaml").write_text("seed: 1\n")
    path = tmp_path / "bad.yaml"
    path.write_text(f"include: {value}\n")
    with pytest.raises(ConfigError, match=r"bad\.yaml: include must be"):
        load_config(path)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert "include" in capsys.readouterr().err


def test_load_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a list\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_config_hash_stable_and_sensitive():
    a = {"x": 1, "y": {"z": 2}}
    b = {"y": {"z": 2}, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": 1, "y": {"z": 3}})


def test_resolve_defaults():
    exp = resolve_experiment({})
    assert exp.seed == 0
    assert exp.topology == TopologySpec()
    assert exp.training == TrainingConfig()
    assert exp.model == ModelConfig()
    assert exp.detection == DetectionConfig()
    assert exp.data == DataConfig()
    assert exp.injection == InjectionConfig()


def test_resolve_rejects_bad_values():
    with pytest.raises(ConfigError):
        resolve_experiment({"training": {"mode": "gossip"}})
    with pytest.raises(ConfigError):
        resolve_experiment({"detection": {"gamma": 1.2}})
    with pytest.raises(ConfigError):
        resolve_experiment({"topology": "flat"})
    for section, field, value in [
        ("data", "stride", 0), ("data", "stride", "two"), ("data", "ratios", [0.5, 0.5]),
        ("data", "ratios", 3), ("data", "length", 0), ("data", "noise", -0.1),
        ("injection", "rate", "high"), ("injection", "rate", 1.5),
        ("injection", "magnitude", "big"), ("injection", "seed", None),
        ("data", "label_column", "anomaly"),
        ("model", "gen_hidden", [32]), ("model", "critic_hidden", [0, 4]),
        ("model", "latent_dim", -3), ("model", "window", 0), ("model", "features", 0),
        ("model", "gen_hidden", [8, 8, 8]), ("model", "critic_hidden", [4.5, 4]),
        ("training", "noise", "cauchy"),
        # integer fields take only integers: no fractions, booleans or quoted numbers
        ("model", "window", 2.5), ("training", "batch_size", 4.9),
        ("training", "iterations", True), ("topology", "slices", 1.9),
        ("model", "window", "8"), ("model", "gen_hidden", 32),
        # float fields take only finite numbers
        ("training", "eta", float("nan")), ("injection", "magnitude", "nan"),
        ("injection", "magnitude", float("nan")), ("data", "noise", "inf"),
        ("data", "noise", float("inf")), ("data", "ratios", [0.6, "x", 0.2]),
        ("data", "source", "csvv"), ("training", "batchsize", 32),
        ("data", "paths", {"0.0": 3}), ("data", "mapping", {"cpu_idle_pct": None}),
    ]:
        with pytest.raises(ConfigError, match=field):
            resolve_experiment({section: {field: value}})
    for cfg, key in [
        ({"seed": 2.7}, "seed"),
        ({"seeds": 2}, "seeds"),
        ({"training": {"adam": {"epsilon_stability": 1e-3}}}, "training.adam.epsilon_stability"),
        ({"training": {"adam": "fast"}}, "training.adam"),
        ({"training": {"adam": {"beta1": 1.0}}}, "training.adam"),
        # the objective fixes the critic's head; it is no config key
        ({"model": {"head_mode": "linear"}}, "model.head_mode"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(key)):
            resolve_experiment(cfg)


def test_yaml_exponent_without_a_dot_is_a_float(tmp_path):
    # YAML 1.1 reads 1e-4 as a string; a float field still takes it
    p = tmp_path / "e.yaml"
    p.write_text("training:\n  adam: {alpha: 1e-4}\n")
    assert load_config(p)["training"]["adam"]["alpha"] == "1e-4"
    assert load_experiment(p).training.adam.alpha == 1e-4


def _keys(cls):
    return {f.name for f in fields(cls) if f.init}


def test_readme_config_block_resolves_and_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = yaml.safe_load(readme.split("```yaml\n", 1)[1].split("```", 1)[0])
    exp = resolve_experiment(block)
    assert set(block) == _keys(type(exp))
    for name in _keys(type(exp)) - {"seed"}:
        assert set(block[name]) == _keys(type(getattr(exp, name))), name
    assert set(block["training"]["adam"]) == _keys(type(exp.training.adam))


def test_load_experiment(tmp_path):
    p = tmp_path / "e.yaml"
    p.write_text("seed: 5\ntraining:\n  mode: standalone\n  iterations: 3\n")
    exp = load_experiment(p)
    assert exp.seed == 5
    assert exp.training.iterations == 3
    assert exp.hash == config_hash(exp.raw)
