"""Command-line surface: train, calibrate, detect, evaluate, compare,
report-costs, synth, gradcheck.

Exit codes: 0 success, 1 runtime failure, 2 config/usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_models, save_models
from .config import ConfigError, load_config, load_experiment, resolve_experiment
from .data import FEATURE_NAMES, SynthSpec, synth_dataset
from .detection import calibrate_threshold, classify, evaluate
from .experiment import (
    _injected_samples,
    build_node_data,
    calibrate_monitors,
    detect_monitors,
    train_experiment,
)
from .federation import MODES
from .ledger import CostLedger, flop_estimates
from .models import CriticModel, EncoderModel, GeneratorModel
from .variants import ALL_VARIANTS


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


def _unit_interval(text):
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _load_run(run_dir):
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise UsageError(f"{run_dir}: no manifest.json (not a run directory?)")
    return run_dir, _read_json(manifest_path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args):
    exp = load_experiment(args.config)
    if args.seed is not None:
        exp = resolve_experiment({**exp.raw, "seed": args.seed})
    if args.mode is not None:
        raw = dict(exp.raw)
        raw["training"] = {**raw.get("training", {}), "mode": args.mode}
        exp = resolve_experiment(raw)

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
    from .checkpoint import save_container

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

    _write_json(out / "manifest.json", {
        "config_hash": exp.hash,
        "seed": exp.seed,
        "mode": exp.training.mode,
        "topology": {"slices": exp.topology.slices,
                     "monitors_per_slice": exp.topology.monitors_per_slice},
        "training": {"iterations": exp.training.iterations,
                     "critic_iters": exp.training.critic_iters,
                     "local_iters": exp.training.local_iters,
                     "batch_size": exp.training.batch_size},
        "gamma": exp.gamma,
        "injection": exp.injection,
        "param_counts": result.ledger.param_counts,
        "phase_seconds": dict(result.ledger.phase_seconds),
        "artifacts": sorted(artifacts) + ["manifest.json"],
    })
    print(f"run complete: mode={exp.training.mode}, artifacts in {out}")
    return 0


def _load_bundles(run_dir, manifest, split):
    """Each monitor's (g, e, d) from its checkpoint and its stored `split`
    windows, as two (s, n)-keyed mappings."""
    from .checkpoint import load_container

    builders = {
        "generator": lambda cfg: GeneratorModel(cfg, np.random.default_rng(0)),
        "encoder": lambda cfg: EncoderModel(cfg, np.random.default_rng(0)),
        "critic": lambda cfg: CriticModel(cfg, np.random.default_rng(0)),
    }
    bundles, windows = {}, {}
    topo = manifest["topology"]
    for s in range(topo["slices"]):
        for n in range(topo["monitors_per_slice"]):
            # a centralized run trains one pooled model at (0, 0)
            cs, cn = (0, 0) if manifest["mode"] == "centralized" else (s, n)
            meta, cfg, models = load_models(
                run_dir / "checkpoints" / f"node_{cs}_{cn}.ckpt", builders
            )
            if meta.get("config_hash") != manifest["config_hash"]:
                raise UsageError(
                    f"provenance error: checkpoint node_{s}_{n}.ckpt was produced by a "
                    f"different config (hash {meta.get('config_hash')})"
                )
            bundles[(s, n)] = (models["generator"], models["encoder"], models["critic"])
            _, wtensors = load_container(run_dir / "windows" / f"node_{s}_{n}.ckpt")
            windows[(s, n)] = wtensors[split]
    return bundles, windows


def cmd_calibrate(args):
    run_dir, manifest = _load_run(args.run)
    gamma = manifest["gamma"] if args.gamma is None else args.gamma
    bundles, val = _load_bundles(run_dir, manifest, "val")
    thresholds = calibrate_monitors(bundles, val, manifest["injection"], gamma)
    _write_json(run_dir / "thresholds.json", {
        "config_hash": manifest["config_hash"],
        "gamma": gamma,
        "per_node": {
            _node_key(*key): {k: v for k, v in entry.items() if k != "degenerate" or v}
            for key, entry in thresholds.items()
        },
    })
    print(f"calibrated {len(thresholds)} monitor thresholds -> {run_dir / 'thresholds.json'}")
    return 0


def cmd_detect(args, with_metrics=False):
    run_dir, manifest = _load_run(args.run)
    th_path = run_dir / "thresholds.json"
    if not th_path.exists():
        raise UsageError(f"{run_dir}: no thresholds.json; run calibrate first")
    th_doc = _read_json(th_path)
    if th_doc["config_hash"] != manifest["config_hash"]:
        raise UsageError("provenance error: thresholds were calibrated for a different config")
    gamma = th_doc["gamma"]
    bundles, test = _load_bundles(run_dir, manifest, "test")
    thresholds = {}
    for key in bundles:
        entry = th_doc["per_node"].get(_node_key(*key), {})
        if "threshold" not in entry:
            raise UsageError(f"{th_path}: no threshold for monitor {_node_key(*key)}; "
                             "run calibrate again")
        thresholds[key] = entry["threshold"]
    per_node, metrics, fault_recall = detect_monitors(bundles, test, manifest["injection"],
                                                      thresholds, gamma)
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

    counts = metrics["counts"]
    doc = {
        "config_hash": manifest["config_hash"],
        "gamma": gamma,
        "counts": {"tp": counts.tp, "tn": counts.tn, "fp": counts.fp, "fn": counts.fn},
        "per_fault_recall": {
            k: (v.value if v.defined else {"undefined": v.reason})
            for k, v in fault_recall.items()
        },
    }
    for name in ("precision", "recall", "f1", "accuracy"):
        m = metrics[name]
        doc[name] = m.value if m.defined else {"undefined": m.reason}
    _write_json(run_dir / "metrics.json", doc)
    for name in ("precision", "recall", "f1", "accuracy"):
        value = doc[name]
        print(f"{name}: {value:.4f}" if isinstance(value, float) else f"{name}: {value}")
    return 0


def cmd_evaluate(args):
    return cmd_detect(args, with_metrics=True)


def cmd_compare(args):
    from .config import config_hash
    from .variants import train_variant

    exp = load_experiment(args.config)
    variants = args.variants.split(",") if args.variants else list(ALL_VARIANTS)
    for v in variants:
        if v not in ALL_VARIANTS:
            raise UsageError(
                f"unknown variant {v!r}; valid variants are {', '.join(ALL_VARIANTS)}"
            )
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [exp.seed]
    nodes = build_node_data(exp)
    train = np.concatenate([nd.train for nd in nodes.values()])
    val = np.concatenate([nd.val for nd in nodes.values()])
    test = np.concatenate([nd.test for nd in nodes.values()])
    val_x, val_labels, _ = _injected_samples(val, exp.injection, 0)
    test_x, test_labels, _ = _injected_samples(test, exp.injection, 1)
    dataset_hash = config_hash({"data": exp.data, "topology": exp.raw.get("topology", {})})

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed in seeds:
        for variant in variants:
            bundle = train_variant(variant, train, exp.model, exp.training, seed)
            th, *_ = calibrate_threshold(bundle.score(val_x, exp.gamma).score, val_labels)
            metrics = evaluate(test_labels, classify(bundle.score(test_x, exp.gamma).score, th))
            rows.append({
                "variant": variant,
                "seed": seed,
                "precision": metrics["precision"].value,
                "recall": metrics["recall"].value,
                "f1": metrics["f1"].value,
                "accuracy": metrics["accuracy"].value,
                "dataset_hash": dataset_hash,
            })
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
    from .ledger import _link_class

    for rec in ledger.records:
        key = (rec["iteration"], _link_class(rec["link"]))
        series[key] = series.get(key, 0) + rec["payload_bytes"]
    with open(run_dir / "cost_series.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "link_class", "payload_bytes"])
        for (iteration, cls), payload in sorted(series.items()):
            writer.writerow([iteration, cls, payload])

    training = manifest["training"]
    flops = flop_estimates(
        manifest["param_counts"], training["iterations"], training["critic_iters"],
        training["batch_size"], manifest["topology"]["monitors_per_slice"],
        manifest["topology"]["slices"], training["local_iters"],
    )
    with open(run_dir / "cost_flops.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_class", "flop_estimate"])
        for node_class, value in sorted(flops.items()):
            writer.writerow([node_class, value])
    _write_json(run_dir / "cost_phases.json", manifest.get("phase_seconds", {}))
    print(f"cost tables -> {run_dir}")
    return 0


def cmd_synth(args):
    spec = SynthSpec(length=args.length, noise=args.noise, seed=args.seed or 7)
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
    from .gradcheck import run_gradcheck

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
    p.add_argument("--variants", help="comma-separated subset of "
                   + ",".join(ALL_VARIANTS))
    p.add_argument("--seeds", help="comma-separated seeds")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report-costs", help="emit cost tables from a run's ledger")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_report_costs)

    p = sub.add_parser("synth", help="generate a synthetic metrics CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--length", type=int, default=5000)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int)
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
