"""End-to-end experiment pipeline: per-monitor data preparation, training
in the configured mode, per-monitor threshold calibration on the injected
validation split, and detection on the injected test split.

The CLI is a thin wrapper over these functions; tests drive them
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, Experiment
from .data import (
    Normalizer,
    SynthSpec,
    fit_normalizer,
    inject_faults,
    load_dataset,
    make_windows,
    split_windows,
    synth_dataset,
)
from .detection import (
    calibrate_threshold,
    classify,
    evaluate,
    per_fault_recall,
    score_windows,
)
from .federation import RunResult, run_training


@dataclass
class NodeData:
    """One monitor's normalized windows, chronologically split."""

    train: np.ndarray  # [n, t, features]
    val: np.ndarray
    test: np.ndarray
    normalizer: Normalizer


def build_node_data(exp: Experiment) -> dict:
    """Per-monitor window shards from the configured data source; the
    normalizer for each monitor is fitted on its own training split."""
    data_cfg = exp.data
    source = data_cfg.get("source", "synth")
    t = exp.model.window
    stride = int(data_cfg.get("stride", 1))
    ratios = tuple(data_cfg.get("ratios", (0.6, 0.2, 0.2)))
    nodes = {}
    for s in range(exp.topology.slices):
        for n in range(exp.topology.monitors_per_slice):
            if source == "synth":
                spec = SynthSpec(
                    length=int(data_cfg.get("length", 5000)),
                    noise=float(data_cfg.get("noise", 0.05)),
                    seed=int(
                        np.random.SeedSequence(
                            [int(data_cfg.get("seed", exp.seed)), s, n]
                        ).generate_state(1)[0]
                    ),
                )
                values = synth_dataset(spec)
            elif source == "csv":
                paths = data_cfg.get("paths", {})
                key = f"{s}.{n}"
                if key not in paths:
                    raise ConfigError(f"data.paths has no entry for monitor {key}")
                values, _ = load_dataset(paths[key], column_mapping=data_cfg.get("mapping"))
            else:
                raise ConfigError(f"unknown data source {source!r}")
            splits = split_windows(make_windows(values, t, stride), ratios)
            normalizer = fit_normalizer(splits["train"])
            nodes[(s, n)] = NodeData(
                **{name: normalizer.apply(w) for name, w in splits.items()},
                normalizer=normalizer,
            )
    return nodes


def train_experiment(exp: Experiment, nodes: dict | None = None):
    nodes = nodes if nodes is not None else build_node_data(exp)
    shards = {key: nd.train for key, nd in nodes.items()}
    result = run_training(exp.topology, exp.training, exp.model, shards, exp.seed)
    return result, nodes


def _injected_samples(windows, injection, seed_offset):
    """inject_faults with the rate, magnitude and seed of an `injection`
    config section; the seed is offset per split (val 0, test 1)."""
    return inject_faults(
        windows,
        rate=float(injection.get("rate", 0.1)),
        magnitude=float(injection.get("magnitude", 2.5)),
        seed=int(injection.get("seed", 0)) + seed_offset,
    )


def score_monitors(bundles, windows, injection, seed_offset, gamma):
    """Inject the four-fault mix into each monitor's windows and score
    them with that monitor's models. bundles maps (s, n) -> (g, e, d) and
    windows maps (s, n) -> [num, t, features]; returns (s, n) -> (score
    records, labels, faults), in the order of `bundles`."""
    scored = {}
    for key, (g, e, d) in bundles.items():
        x, labels, faults = _injected_samples(windows[key], injection, seed_offset)
        scored[key] = (score_windows(x, g, e, d, gamma), labels, faults)
    return scored


def calibrate_monitors(bundles, windows, injection, gamma):
    """Per-monitor thresholds from the injected validation windows."""
    thresholds = {}
    val = score_monitors(bundles, windows, injection, 0, gamma)
    for key, (scored, labels, _) in val.items():
        th, mean_normal, mean_abnormal, degenerate = calibrate_threshold(scored.score, labels)
        thresholds[key] = {
            "threshold": th,
            "mean_normal": mean_normal,
            "mean_abnormal": mean_abnormal,
            "degenerate": degenerate,
        }
    return thresholds


def detect_monitors(bundles, windows, injection, thresholds, gamma):
    """Score the injected test windows of every monitor and classify them
    against thresholds[(s, n)]. Returns (per_node, metrics, fault_recall):
    per_node maps (s, n) -> (score records, labels, faults, predicted),
    and the metrics and per-fault recall pool every monitor's windows."""
    per_node = {}
    test = score_monitors(bundles, windows, injection, 1, gamma)
    for key, (scored, labels, faults) in test.items():
        per_node[key] = (scored, labels, faults, classify(scored.score, thresholds[key]))
    _, labels, faults, predicted = map(np.concatenate, zip(*per_node.values()))
    return per_node, evaluate(labels, predicted), per_fault_recall(labels, predicted, faults)


def _bundles(result: RunResult, nodes: dict):
    return {key: result.bundle_for(*key) for key in nodes}


def calibrate_experiment(exp: Experiment, result: RunResult, nodes: dict, gamma=None):
    """Per-monitor thresholds from the injected validation split."""
    gamma = exp.gamma if gamma is None else gamma
    val = {key: nd.val for key, nd in nodes.items()}
    return calibrate_monitors(_bundles(result, nodes), val, exp.injection, gamma)


def detect_experiment(exp: Experiment, result: RunResult, nodes: dict,
                      thresholds: dict, gamma=None):
    """Score and classify the injected test split on every monitor;
    returns detect_monitors' (per_node, pooled metrics, per-fault
    recall)."""
    gamma = exp.gamma if gamma is None else gamma
    test = {key: nd.test for key, nd in nodes.items()}
    return detect_monitors(
        _bundles(result, nodes), test, exp.injection,
        {key: th["threshold"] for key, th in thresholds.items()}, gamma,
    )
