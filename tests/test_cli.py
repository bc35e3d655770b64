"""End-to-end checks of the command-line surface: artifact emission,
exit codes, provenance guards, and cost reports, all at toy scale."""

import csv
import json
import shutil

import numpy as np
import pytest

from fedbiwgan.checkpoint import save_container
from fedbiwgan.cli import main
from fedbiwgan.config import load_experiment
from fedbiwgan.experiment import build_node_data
from fedbiwgan.federation import MonitorNode

TINY_CONFIG = """\
seed: 3
model:
  window: 4
  latent_dim: 3
  gen_hidden: [8, 8]
  critic_hidden: [8, 8]
topology:
  slices: 1
  monitors_per_slice: 2
training:
  mode: federated
  iterations: 4
  critic_iters: 1
  local_iters: 2
  batch_size: 4
data:
  source: synth
  length: 160
  noise: 0.05
injection:
  rate: 0.3
  magnitude: 2.5
  seed: 0
detection:
  gamma: 0.9
"""


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "exp.yaml"
    cfg.write_text(TINY_CONFIG)
    run = root / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    return cfg, run


def test_train_writes_all_artifact_kinds(trained_run):
    _, run = trained_run
    assert (run / "manifest.json").exists()
    for s, n in [(0, 0), (0, 1)]:
        assert (run / "checkpoints" / f"node_{s}_{n}.ckpt").exists()
        assert (run / "windows" / f"node_{s}_{n}.ckpt").exists()
    assert (run / "losses.csv").exists()
    assert (run / "ledger.csv").exists()
    assert (run / "config.resolved.json").exists()
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["mode"] == "federated"
    assert set(manifest["param_counts"]) == {"generator", "encoder", "critic"}
    for rel in manifest["artifacts"]:
        assert (run / rel).exists()


def test_window_store_writes_the_bytes_of_contiguous_splits(trained_run, tmp_path):
    cfg, run = trained_run
    exp = load_experiment(cfg)
    for (s, n), nd in build_node_data(exp).items():
        path = tmp_path / f"node_{s}_{n}.ckpt"
        save_container(path, {"config_hash": exp.hash, "node": f"{s}.{n}"}, {
            "train": np.ascontiguousarray(nd.train),
            "val": np.ascontiguousarray(nd.val),
            "test": np.ascontiguousarray(nd.test),
            "norm_min": nd.normalizer.minimum, "norm_max": nd.normalizer.maximum,
        })
        assert (run / "windows" / path.name).read_bytes() == path.read_bytes()


def test_losses_csv_has_trace_rows(trained_run):
    _, run = trained_run
    with open(run / "losses.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["iteration"] for r in rows} == {"1", "2", "3", "4"}
    assert all(set(r) == {"iteration", "node", "d_loss", "eg_loss"} for r in rows)


def test_calibrate_writes_midpoint_thresholds(trained_run):
    _, run = trained_run
    assert main(["calibrate", "--run", str(run)]) == 0
    doc = json.loads((run / "thresholds.json").read_text())
    assert set(doc["per_node"]) == {"0.0", "0.1"}
    for entry in doc["per_node"].values():
        mid = (entry["mean_normal"] + entry["mean_abnormal"]) / 2.0
        assert entry["threshold"] == mid


def test_calibrate_rerun_is_byte_identical(trained_run):
    _, run = trained_run
    assert main(["calibrate", "--run", str(run)]) == 0
    first = (run / "thresholds.json").read_bytes()
    assert main(["calibrate", "--run", str(run)]) == 0
    assert (run / "thresholds.json").read_bytes() == first


def test_evaluate_writes_scores_and_metrics(trained_run):
    _, run = trained_run
    assert main(["calibrate", "--run", str(run)]) == 0
    assert main(["evaluate", "--run", str(run)]) == 0
    metrics = json.loads((run / "metrics.json").read_text())
    counts = metrics["counts"]
    assert sum(counts.values()) > 0
    for name in ("precision", "recall", "f1", "accuracy"):
        assert name in metrics
    with open(run / "scores.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == sum(counts.values())
    assert all(r["predicted_label"] in ("0", "1") for r in rows)


def test_evaluate_rerun_is_byte_identical(trained_run):
    _, run = trained_run
    assert main(["calibrate", "--run", str(run)]) == 0
    assert main(["evaluate", "--run", str(run)]) == 0
    first = (run / "metrics.json").read_bytes()
    assert main(["evaluate", "--run", str(run)]) == 0
    assert (run / "metrics.json").read_bytes() == first


def test_detect_without_thresholds_exits_1(trained_run, tmp_path):
    cfg, _ = trained_run
    run = tmp_path / "bare"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    assert main(["detect", "--run", str(run)]) == 1


def test_calibrate_gamma_out_of_range_exits_2(trained_run, capsys, monkeypatch):
    _, run = trained_run

    def no_load(*args):
        raise AssertionError("a checkpoint was loaded")

    monkeypatch.setattr("fedbiwgan.cli.load_models", no_load)
    for gamma in ("1.5", "-0.1", "nan"):
        assert main(["calibrate", "--run", str(run), "--gamma", gamma]) == 2
        assert "--gamma" in capsys.readouterr().err


def test_detect_with_a_monitor_missing_from_thresholds_exits_1(trained_run, tmp_path,
                                                               capsys):
    _, run = trained_run
    assert main(["calibrate", "--run", str(run)]) == 0
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    doc = json.loads((copy / "thresholds.json").read_text())
    del doc["per_node"]["0.1"]
    (copy / "thresholds.json").write_text(json.dumps(doc))
    for command in ("detect", "evaluate"):
        assert main([command, "--run", str(copy)]) == 1
        err = capsys.readouterr().err
        assert "no threshold for monitor 0.1" in err and "thresholds.json" in err


def _threshold_of_0_0(doc, value):
    doc["per_node"]["0.0"]["threshold"] = value


@pytest.mark.parametrize("edit, named", [
    (lambda doc: doc.pop("gamma"), "'gamma'"),
    (lambda doc: doc.pop("config_hash"), "'config_hash'"),
    (lambda doc: doc.pop("per_node"), "'per_node'"),
    (lambda doc: doc.update(gamma=1.5), "gamma must lie in [0, 1], got 1.5"),
    (lambda doc: doc.update(per_node=[]), "per_node must be a mapping, got []"),
    (lambda doc: _threshold_of_0_0(doc, "high"),
     "per_node.0.0.threshold must be a finite number, got 'high'"),
], ids=["gamma", "config_hash", "per_node", "gamma-range", "per_node-list",
        "threshold-string"])
def test_detect_with_a_bad_thresholds_key_exits_1(trained_run, tmp_path, capsys, edit, named):
    _, run = trained_run
    assert main(["calibrate", "--run", str(run)]) == 0
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    doc = json.loads((copy / "thresholds.json").read_text())
    edit(doc)
    (copy / "thresholds.json").write_text(json.dumps(doc))
    capsys.readouterr()
    for command in ("detect", "evaluate"):
        assert main([command, "--run", str(copy)]) == 1
        err = capsys.readouterr().err
        assert "thresholds.json" in err and named in err, err


@pytest.mark.parametrize("key, value", [
    ("topology", None), ("mode", None), ("config_hash", None), ("gamma", None),
    ("injection", None), ("training", None), ("param_counts", None),
    ("injection", {"rate": "high", "magnitude": 2.5, "seed": 0}),
    ("injection", {"rate": 0.3, "magnitude": 2.5, "seed": 0.9}),
    ("topology", {"slices": 0, "monitors_per_slice": 2}),
    ("training", {"iterations": "4"}), ("mode", "gossip"), ("gamma", 1.5),
    ("param_counts", {"critic": "x"}),
], ids=lambda v: "missing" if v is None else None)
def test_bad_manifest_key_exits_1(trained_run, tmp_path, capsys, key, value):
    _, run = trained_run
    assert main(["calibrate", "--run", str(run)]) == 0
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    doc = json.loads((copy / "manifest.json").read_text())
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    (copy / "manifest.json").write_text(json.dumps(doc))
    capsys.readouterr()
    for command in ("calibrate", "detect", "evaluate", "report-costs"):
        assert main([command, "--run", str(copy)]) == 1
        err = capsys.readouterr().err
        assert "manifest.json" in err and key in err, err


def test_nonfinite_critic_exits_1(tmp_path, capsys, monkeypatch):
    init = MonitorNode.__init__

    def planted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if (self.slice_id, self.monitor_id) == (1, 1):
            self.critic.params()["d/layer0/weights"][0, 0] = np.nan

    monkeypatch.setattr(MonitorNode, "__init__", planted)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(TINY_CONFIG.replace("slices: 1", "slices: 2"))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "non-finite critic parameters at iteration 1 on monitor[1.1]" in err


def test_calibrate_without_anomalies_exits_1(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(TINY_CONFIG.replace("rate: 0.3", "rate: 0.0"))
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    assert main(["calibrate", "--run", str(run)]) == 1
    assert "no injected anomalies" in capsys.readouterr().err


def test_unknown_mode_in_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(TINY_CONFIG.replace("mode: federated", "mode: gossip"))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    for mode in ("centralized", "standalone", "distributed", "federated"):
        assert mode in err


def test_unknown_mode_flag_exits_2(trained_run, tmp_path, capsys):
    cfg, _ = trained_run
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
                 "--mode", "gossip"])
    capsys.readouterr()
    assert code == 2


def test_threads_flag_is_unknown_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(TINY_CONFIG)
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
                 "--threads", "2"])
    assert "--threads" in capsys.readouterr().err
    assert code == 2
    assert not (tmp_path / "run").exists()


def test_empty_run_dir_exits_1(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report-costs", "--run", str(empty)]) == 1
    assert "manifest" in capsys.readouterr().err


def test_report_costs_tables(trained_run):
    _, run = trained_run
    assert main(["report-costs", "--run", str(run)]) == 0
    with open(run / "cost_summary.csv") as fh:
        summary = {r["link_class"]: r for r in csv.DictReader(fh)}
    assert int(summary["monitor->manager"]["payload_bytes"]) > 0
    assert int(summary["manager->monitor"]["messages"]) > 0
    with open(run / "cost_flops.csv") as fh:
        flops = {r["node_class"]: int(r["flop_estimate"]) for r in csv.DictReader(fh)}
    manifest = json.loads((run / "manifest.json").read_text())
    d = manifest["param_counts"]["critic"]
    # monitor cost follows 4*I*(1+K)*M*|critic params| for this run
    assert flops["monitor"] == 4 * 4 * (1 + 1) * 4 * d
    assert (run / "cost_series.csv").exists()
    assert (run / "cost_phases.json").exists()


def test_larger_batch_costs_more_monitor_bytes(trained_run, tmp_path):
    cfg_text = TINY_CONFIG
    totals = {}
    for batch in (4, 8):
        cfg = tmp_path / f"m{batch}.yaml"
        cfg.write_text(cfg_text.replace("batch_size: 4", f"batch_size: {batch}"))
        run = tmp_path / f"run{batch}"
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        from fedbiwgan.ledger import CostLedger

        ledger = CostLedger.read_csv(run / "ledger.csv")
        totals[batch] = ledger.totals_by_link_class()["monitor->manager"]["payload_bytes"]
    assert totals[8] > totals[4]


def test_synth_writes_csv(tmp_path):
    out = tmp_path / "series.csv"
    assert main(["synth", "--out", str(out), "--length", "50", "--seed", "9"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 51
    assert lines[0].startswith("timestamp,")
    assert main(["synth", "--out", str(tmp_path / "b.csv"), "--length", "50",
                 "--seed", "9"]) == 0
    assert (tmp_path / "b.csv").read_text() == out.read_text()


def test_synth_seed_zero_is_its_own_series(tmp_path):
    from fedbiwgan.data import SynthSpec, synth_dataset

    zero, default = tmp_path / "zero.csv", tmp_path / "default.csv"
    assert main(["synth", "--out", str(zero), "--length", "20", "--seed", "0"]) == 0
    assert main(["synth", "--out", str(default), "--length", "20"]) == 0
    for path, seed in ((zero, 0), (default, 7)):
        written = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:]
        np.testing.assert_allclose(written, synth_dataset(SynthSpec(20, seed=seed)), rtol=1e-9)
    assert zero.read_text() != default.read_text()


def test_compare_single_variant(trained_run, tmp_path):
    cfg, _ = trained_run
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out),
                 "--variants", "gan", "--seeds", "5"]) == 0
    with open(out / "comparison.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["variant"] == "gan"
    assert rows[0]["seed"] == "5"
    assert rows[0]["dataset_hash"]


def test_compare_unknown_variant_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(TINY_CONFIG)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out), "--variants", "vae"]) == 2
    err = capsys.readouterr().err
    assert "--variants" in err and "unknown variant" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--seeds", "a"), ("--seeds", "1,-2"),
                                         ("--variants", "gan,,wgan")])
def test_compare_bad_list_flag_exits_2(tmp_path, capsys, flag, value):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(TINY_CONFIG)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out), flag, value]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()
