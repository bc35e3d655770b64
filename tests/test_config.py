import pytest

from fedbiwgan.config import (
    ConfigError,
    config_hash,
    load_config,
    load_experiment,
    resolve_experiment,
)


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
    assert exp.training.mode == "federated"
    assert exp.model.features == 26
    assert exp.gamma == 0.9
    assert exp.topology.slices == 1


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
    ]:
        with pytest.raises(ConfigError, match=field):
            resolve_experiment({section: {field: value}})


def test_load_experiment(tmp_path):
    p = tmp_path / "e.yaml"
    p.write_text("seed: 5\ntraining:\n  mode: standalone\n  iterations: 3\n")
    exp = load_experiment(p)
    assert exp.seed == 5
    assert exp.training.iterations == 3
    assert exp.hash == config_hash(exp.raw)
