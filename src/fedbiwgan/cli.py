"""Command-line surface: train, calibrate, detect, evaluate, compare,
report-costs, synth, gradcheck.

Exit codes: 0 success, 1 runtime failure (a missing or malformed run
artifact included), 2 config/usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_container, load_models, save_container, save_models
from .config import (
    ConfigError,
    config_hash,
    load_experiment,
    resolve_experiment,
    resolve_section,
)
from .data import FEATURE_NAMES, InjectionConfig, SynthSpec, synth_dataset
from .detection import DetectionConfig
from .experiment import (
    build_node_data,
    calibrate_experiment,
    calibrate_monitors,
    detect_experiment,
    detect_monitors,
    train_experiment,
)
from .federation import MODES, TopologySpec, TrainingConfig, run_training
from .gradcheck import run_gradcheck
from .ledger import CostLedger, _link_class, flop_estimates
from .models import OBJECTIVES, CriticModel, EncoderModel, GeneratorModel


class UsageError(Exception):
    pass


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _node_key(s, n):
    return f"{s}.{n}"


_METRICS = ("precision", "recall", "f1", "accuracy")


def _reported(m):
    """A MetricValue as a run reports it: its value, or {"undefined": reason}."""
    return m.value if m.defined else {"undefined": m.reason}


def _unit_interval(text):
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _names(text):
    names = text.split(",")
    if not all(names):
        raise argparse.ArgumentTypeError(f"empty name in {text!r}")
    return names


def _seeds(text):
    seeds = _names(text)
    if not all(s.strip().isdigit() for s in seeds):
        raise argparse.ArgumentTypeError(f"expected non-negative integers, got {text!r}")
    return [int(s) for s in seeds]


def _variants(text):
    variants = _names(text)
    for v in variants:
        if v not in OBJECTIVES:
            raise argparse.ArgumentTypeError(
                f"unknown variant {v!r}; valid variants are {', '.join(OBJECTIVES)}"
            )
    return variants


@dataclass
class Manifest:
    """A run's manifest.json; `training` is the resolved training section."""

    config_hash: str
    seed: int
    topology: TopologySpec
    training: TrainingConfig
    gamma: float
    injection: InjectionConfig
    param_counts: dict[str, int]
    phase_seconds: dict[str, float]
    artifacts: list

    def __post_init__(self):
        DetectionConfig(self.gamma)


@dataclass
class NodeThreshold:
    """One monitor's entry in thresholds.json."""

    threshold: float
    mean_normal: float
    mean_abnormal: float
    degenerate: bool


@dataclass
class Thresholds:
    """A run's thresholds.json: per_node is keyed by "s.n"."""

    config_hash: str
    gamma: float
    per_node: dict[str, NodeThreshold]

    def __post_init__(self):
        DetectionConfig(self.gamma)


def _missing_key(hint, doc, prefix=""):
    """The dotted key of the first record field that doc, read as type
    hint, lacks at any depth; None if it lacks none."""
    if not isinstance(doc, dict):
        return None  # resolve_section names the wrong type
    if is_dataclass(hint):
        absent = [f.name for f in fields(hint) if f.name not in doc]
        if absent:
            return prefix + absent[0]
        hints = typing.get_type_hints(hint)
        children = ((hints[f.name], doc[f.name], f"{prefix}{f.name}.") for f in fields(hint))
    elif typing.get_origin(hint) is dict:
        children = ((typing.get_args(hint)[1], v, f"{prefix}{k}.") for k, v in doc.items())
    else:
        return None
    return next(filter(None, (_missing_key(*child) for child in children)), None)


def _read_record(cls, path, remedy):
    """The JSON file at path resolved into dataclass cls. It must hold
    every field of cls and of each record nested in it; UsageError naming
    the file and the dotted key if not."""
    doc = _read_json(path)
    missing = _missing_key(cls, doc)
    if missing:
        raise UsageError(f"{path}: no {missing!r} key; {remedy}")
    try:
        return resolve_section(cls, "", doc)
    except ConfigError as exc:
        raise UsageError(f"{path}: {exc}; {remedy}") from None


def _load_run(run_dir):
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise UsageError(f"{run_dir}: no manifest.json (not a run directory?)")
    return run_dir, _read_record(Manifest, manifest_path, "train the run again")


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args):
    exp = load_experiment(args.config)
    if args.seed is not None:
        exp = resolve_experiment({**exp.raw, "seed": args.seed})
    if args.mode is not None:
        training = {**exp.raw.get("training", {}), "mode": args.mode}
        exp = resolve_experiment({**exp.raw, "training": training})

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    nodes = build_node_data(exp)
    result, _ = train_experiment(exp, nodes)

    artifacts = []
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    for (s, n) in sorted(result.monitors):
        g, e, d = result.bundle_for(s, n)
        path = ckpt_dir / f"node_{s}_{n}.ckpt"
        save_models(path, exp.model, {"generator": g, "encoder": e, "critic": d},
                    extra_meta={"config_hash": exp.hash, "node": _node_key(s, n)})
        artifacts.append(str(path.relative_to(out)))

    win_dir = out / "windows"
    win_dir.mkdir(exist_ok=True)
    for (s, n), nd in sorted(nodes.items()):
        path = win_dir / f"node_{s}_{n}.ckpt"
        save_container(path, {"config_hash": exp.hash, "node": _node_key(s, n)}, {
            "train": nd.train, "val": nd.val, "test": nd.test,
            "norm_min": nd.normalizer.minimum, "norm_max": nd.normalizer.maximum,
        })
        artifacts.append(str(path.relative_to(out)))

    losses_path = out / "losses.csv"
    with open(losses_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["iteration", "node", "d_loss", "eg_loss"])
        writer.writeheader()
        writer.writerows(result.traces)
    artifacts.append("losses.csv")

    result.ledger.write_csv(out / "ledger.csv")
    artifacts.append("ledger.csv")
    _write_json(out / "config.resolved.json", exp.raw)
    artifacts.append("config.resolved.json")

    manifest = Manifest(exp.hash, exp.seed, exp.topology, exp.training, exp.detection.gamma,
                        exp.injection, result.ledger.param_counts,
                        dict(result.ledger.phase_seconds), sorted(artifacts) + ["manifest.json"])
    _write_json(out / "manifest.json", asdict(manifest))
    print(f"run complete: mode={exp.training.mode}, artifacts in {out}")
    return 0


def _load_bundles(run_dir, manifest, split):
    """Each monitor's (g, e, d) from its checkpoint and its stored `split`
    windows, as two (s, n)-keyed mappings; each file must name the run's
    config hash and its monitor."""
    builders = {
        "generator": lambda cfg: GeneratorModel(cfg, np.random.default_rng(0)),
        "encoder": lambda cfg: EncoderModel(cfg, np.random.default_rng(0)),
        "critic": lambda cfg: CriticModel(cfg, np.random.default_rng(0)),
    }
    bundles, windows = {}, {}
    topo = manifest.topology
    for s in range(topo.slices):
        for n in range(topo.monitors_per_slice):
            # a centralized run trains one pooled model at (0, 0)
            cs, cn = (0, 0) if manifest.training.mode == "centralized" else (s, n)
            ckpt = run_dir / "checkpoints" / f"node_{cs}_{cn}.ckpt"
            ckpt_meta, _, models = load_models(ckpt, builders)
            bundles[(s, n)] = (models["generator"], models["encoder"], models["critic"])
            store = run_dir / "windows" / f"node_{s}_{n}.ckpt"
            store_meta, tensors = load_container(store)
            windows[(s, n)] = tensors[split]
            for path, meta, node in ((ckpt, ckpt_meta, _node_key(cs, cn)),
                                     (store, store_meta, _node_key(s, n))):
                if (meta.get("config_hash"), meta.get("node")) != (manifest.config_hash, node):
                    raise UsageError(f"provenance error: {path} was written for another config "
                                     f"or monitor (node {meta.get('node')}); train the run again")
    return bundles, windows


def cmd_calibrate(args):
    run_dir, manifest = _load_run(args.run)
    gamma = manifest.gamma if args.gamma is None else args.gamma
    bundles, val = _load_bundles(run_dir, manifest, "val")
    thresholds = calibrate_monitors(bundles, val, manifest.injection, gamma)
    per_node = {_node_key(*key): NodeThreshold(**entry) for key, entry in thresholds.items()}
    _write_json(run_dir / "thresholds.json",
                asdict(Thresholds(manifest.config_hash, gamma, per_node)))
    print(f"calibrated {len(thresholds)} monitor thresholds -> {run_dir / 'thresholds.json'}")
    return 0


def cmd_detect(args, with_metrics=False):
    run_dir, manifest = _load_run(args.run)
    th_path = run_dir / "thresholds.json"
    if not th_path.exists():
        raise UsageError(f"{run_dir}: no thresholds.json; run calibrate first")
    th = _read_record(Thresholds, th_path, "run calibrate again")
    if th.config_hash != manifest.config_hash:
        raise UsageError("provenance error: thresholds were calibrated for a different config")
    bundles, test = _load_bundles(run_dir, manifest, "test")
    thresholds = {}
    for key in bundles:
        entry = th.per_node.get(_node_key(*key))
        if entry is None:
            raise UsageError(f"{th_path}: no threshold for monitor {_node_key(*key)}; "
                             "run calibrate again")
        thresholds[key] = entry.threshold
    per_node, metrics, fault_recall = detect_monitors(bundles, test, manifest.injection,
                                                      thresholds, th.gamma)
    with open(run_dir / "scores.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "window", "score", "reconstruction_term",
                        "discriminator_term", "true_label", "predicted_label", "fault"])
        for (s, n), (scored, labels, faults, predicted) in per_node.items():
            for i, (score, rec, disc) in enumerate(scored.tolist()):
                writer.writerow([
                    _node_key(s, n), i, f"{score:.12g}", f"{rec:.12g}", f"{disc:.12g}",
                    labels[i], predicted[i], faults[i] or "",
                ])
    print(f"scored {sum(v[0].size for v in per_node.values())} test windows "
          f"-> {run_dir / 'scores.csv'}")
    if not with_metrics:
        return 0

    reported = {name: _reported(metrics[name]) for name in _METRICS}
    _write_json(run_dir / "metrics.json", {
        "config_hash": manifest.config_hash, "gamma": th.gamma,
        "counts": asdict(metrics["counts"]),
        "per_fault_recall": {k: _reported(v) for k, v in fault_recall.items()}, **reported,
    })
    for name, value in reported.items():
        print(f"{name}: {value:.4f}" if isinstance(value, float)
              else f"{name}: {json.dumps(value)}")
    return 0


def cmd_evaluate(args):
    return cmd_detect(args, with_metrics=True)


def cmd_compare(args):
    exp = load_experiment(args.config)
    variants = args.variants or list(OBJECTIVES)
    seeds = args.seeds or [exp.seed]
    nodes = build_node_data(exp)
    # every variant trains one centralized model and is scored per monitor
    shards = {key: nd.train for key, nd in nodes.items()}
    training = replace(exp.training, mode="centralized")
    dataset_hash = config_hash({"data": exp.raw.get("data", {}),
                                "topology": exp.raw.get("topology", {})})

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed in seeds:
        for variant in variants:
            result = run_training(exp.topology, training, exp.model, shards, seed, variant)
            thresholds = calibrate_experiment(exp, result, nodes)
            _, metrics, _ = detect_experiment(exp, result, nodes, thresholds)
            rows.append({"variant": variant, "seed": seed,
                         **{name: json.dumps(_reported(metrics[name])) for name in _METRICS},
                         "dataset_hash": dataset_hash})
            print(f"variant={variant} seed={seed} f1={rows[-1]['f1']}")
    with open(out / "comparison.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"comparison table -> {out / 'comparison.csv'}")
    return 0


def cmd_report_costs(args):
    run_dir, manifest = _load_run(args.run)
    ledger_path = run_dir / "ledger.csv"
    if not ledger_path.exists():
        raise UsageError(f"{run_dir}: no ledger.csv")
    ledger = CostLedger.read_csv(ledger_path)

    with open(run_dir / "cost_summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["link_class", "payload_bytes", "overhead_bytes", "messages"])
        for cls, agg in sorted(ledger.totals_by_link_class().items()):
            writer.writerow([cls, agg["payload_bytes"], agg["overhead_bytes"],
                             agg["messages"]])

    # plot-ready per-iteration series
    series = {}
    for rec in ledger.records:
        key = (rec["iteration"], _link_class(rec["link"]))
        series[key] = series.get(key, 0) + rec["payload_bytes"]
    with open(run_dir / "cost_series.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "link_class", "payload_bytes"])
        for (iteration, cls), payload in sorted(series.items()):
            writer.writerow([iteration, cls, payload])

    training, topo = manifest.training, manifest.topology
    # a standalone or centralized manager serves one monitor's batch, and
    # only a federated run sends parameters to the controller
    served = topo.monitors_per_slice if training.mode in ("distributed", "federated") else 1
    flops = flop_estimates(
        manifest.param_counts, training.iterations, training.critic_iters,
        training.batch_size, served, topo.slices, training.local_iters,
    )
    if training.mode != "federated":
        flops["controller"] = 0
    with open(run_dir / "cost_flops.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_class", "flop_estimate"])
        for node_class, value in sorted(flops.items()):
            writer.writerow([node_class, value])
    _write_json(run_dir / "cost_phases.json", manifest.phase_seconds)
    print(f"cost tables -> {run_dir}")
    return 0


def cmd_synth(args):
    spec = SynthSpec(length=args.length, noise=args.noise, seed=args.seed)
    series = synth_dataset(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + FEATURE_NAMES)
        for i, row in enumerate(series):
            writer.writerow([i] + [f"{v:.10g}" for v in row])
    print(f"wrote {series.shape[0]} records -> {out}")
    return 0


def cmd_gradcheck(args):
    worst = run_gradcheck(seed=args.seed or 0, verbose=True)
    if worst < 1e-4:
        print(f"gradient checks passed (max relative error {worst:.3e})")
        return 0
    print(f"gradient checks FAILED (max relative error {worst:.3e})")
    return 1


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fedbiwgan",
        description="Federated BiWGAN-GP anomaly detection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run training per the config's mode")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=MODES)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="set detection thresholds from the validation split")
    p.add_argument("--run", required=True)
    p.add_argument("--gamma", type=_unit_interval)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("detect", help="score the test split")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="score the test split and report metrics")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="train and evaluate GAN-family variants")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variants", type=_variants, help="comma-separated subset of "
                   + ",".join(OBJECTIVES))
    p.add_argument("--seeds", type=_seeds, help="comma-separated seeds")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report-costs", help="emit cost tables from a run's ledger")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_report_costs)

    p = sub.add_parser("synth", help="generate a synthetic metrics CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--length", type=int, default=SynthSpec.length)
    p.add_argument("--noise", type=float, default=SynthSpec.noise)
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gradcheck", help="run the gradient oracle suite")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    except Exception as exc:  # runtime failure contract
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
