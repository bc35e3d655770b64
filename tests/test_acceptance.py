"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints a single PASS/FAIL line (bypassing capture so the lines
show up in any pytest run) and then asserts. The desk-scale training run
is session-scoped and shared between the convergence and detection
criteria.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from fedbiwgan import autodiff as ad
from fedbiwgan.data import (
    InjectionConfig,
    SynthSpec,
    fit_normalizer,
    make_windows,
    synth_dataset,
)
from fedbiwgan.detection import ConfusionCounts, metrics_from_counts
from fedbiwgan.experiment import (
    build_node_data,
    calibrate_experiment,
    calibrate_monitors,
    detect_experiment,
    detect_monitors,
    train_experiment,
)
from fedbiwgan.federation import (
    CriticBank,
    ManagerNode,
    MonitorNode,
    SliceWeights,
    TopologySpec,
    TrainingConfig,
    assemble_manager_gradients,
    controller_aggregate,
    manager_generate,
    monitor_round,
    run_training,
)
from fedbiwgan.gradcheck import run_gradcheck
from fedbiwgan.ledger import flop_estimates
from fedbiwgan.models import OBJECTIVES, ModelConfig, critic_loss, error_feedbacks, pair_rows
from fedbiwgan.nn import FeedForward, as_node, gradient_penalty_backward
from fedbiwgan.config import resolve_experiment


@pytest.fixture()
def report(capsys):
    """One PASS/FAIL line per criterion, forced past pytest's capture."""

    def _report(name, ok, detail=""):
        line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


SMALL = ModelConfig(features=3, window=3, latent_dim=2,
                    gen_hidden=(3, 3), critic_hidden=(4, 3))


# ---------------------------------------------------------------------------
# shared desk-scale run (criteria 6 and 7)


@pytest.fixture(scope="session")
def desk_run():
    exp = resolve_experiment({
        "seed": 7,
        "topology": {"slices": 2, "monitors_per_slice": 2},
        "training": {"mode": "federated", "iterations": 500, "critic_iters": 5,
                     "local_iters": 10, "batch_size": 32},
        "model": {},
        "detection": {"gamma": 0.9},
        "data": {"source": "synth", "length": 1300, "noise": 0.05},
        "injection": {"rate": 0.1, "magnitude": 2.5, "seed": 0},
    })
    start = time.perf_counter()
    nodes = build_node_data(exp)
    result, nodes = train_experiment(exp, nodes)
    elapsed = time.perf_counter() - start
    return exp, result, nodes, elapsed


def test_gradient_oracle_suite(report):
    # >= 20 random configurations of every objective (each run_gradcheck
    # seed contributes fresh configs for all of them)
    start = time.perf_counter()
    worst = max(run_gradcheck(seed=s) for s in range(20))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60
    report("gradient oracle suite", ok,
            f"max relative error {worst:.3e}, {elapsed:.1f}s")


class _LinearRowCritic:
    """D(u) = u @ w.T, for hand-checkable closed forms: a one-layer linear
    FeedForward with zero bias."""

    def __init__(self, w):
        w = np.asarray(w, dtype=np.float64)
        self.net = FeedForward([w.shape[1], 1], ["linear"], name="d")
        self.net.layers[0].weights.data[...] = w


def test_linear_critic_closed_forms(report):
    # w=[2,0]: D(real)=6, D(fake)=2, penalty 10*(2-1)^2 -> loss -(6-2)+10
    d = _LinearRowCritic([[2.0, 0.0]])
    real = pair_rows(np.array([[[3.0]]]), np.array([[0.0]]))
    fake = pair_rows(np.array([[[1.0]]]), np.array([[0.0]]))
    res = critic_loss(d, real, fake, np.array([0.5]), 10.0)
    err = max(abs(res.value - 6.0), abs(res.penalty - 10.0))

    # per-example input gradients of the batch mean: w/M and -w/M
    w = np.array([[2.0, -3.0]])
    d2 = _LinearRowCritic(w)
    m = 4
    real_m = pair_rows(np.arange(m, dtype=float).reshape(m, 1, 1), np.zeros((m, 1)))
    fake_m = pair_rows(np.arange(m, dtype=float).reshape(m, 1, 1) + 1, np.zeros((m, 1)))
    f_e, f_g = error_feedbacks(d2, real_m, fake_m)
    err = max(err, float(np.max(np.abs(f_e - w / m))),
              float(np.max(np.abs(f_g + w / m))))

    # penalty 10*(|w|-1)^2 = 10 with d(penalty)/dw = 2*10*(2-1) = 20
    d3 = _LinearRowCritic([[2.0]])
    penalty, grads = gradient_penalty_backward(d3.net, np.array([[0.7]]), 10.0)
    err = max(err, abs(penalty - 10.0),
              float(np.max(np.abs(grads["d/layer0/weights"] - 20.0))))
    report("linear-critic closed forms", err < 1e-10, f"max error {err:.3e}")


def _direct_eg_grads(manager, monitors, batches, packets):
    n = len(monitors)
    total = None
    for mon in monitors:
        x = batches[mon.monitor_id]
        f_t = as_node(manager.encoder, ad.tensor(x))
        z = packets[mon.monitor_id].noise
        xbar_t = as_node(manager.generator, ad.tensor(z))
        m = x.shape[0]
        u_real = ad.concat([ad.tensor(x.reshape(m, -1)), f_t], axis=1)
        u_fake = ad.concat(
            [ad.reshape(xbar_t, (m, x.shape[1] * x.shape[2])), ad.tensor(z)], axis=1)
        term = ad.tmean(ad.sub(mon.critic(u_real), mon.critic(u_fake)))
        total = term if total is None else ad.add(total, term)
    loss = ad.mul(total, ad.constant(1.0 / n))
    params = {**{("g", k): p for k, p in manager.generator.params().items()},
              **{("e", k): p for k, p in manager.encoder.params().items()}}
    names = list(params)
    grads = ad.grad(loss, [params[k] for k in names])
    return dict(zip(names, (g.data for g in grads)))


def test_feedback_assembly_matches_direct_backprop(report):
    start = time.perf_counter()
    worst = 0.0
    for n_monitors in (1, 2, 4):
        cfg = TrainingConfig(mode="distributed", iterations=1, critic_iters=1,
                             local_iters=1, batch_size=4)
        manager = ManagerNode(0, SMALL, cfg, 21)
        rng = np.random.default_rng(2)
        monitors = [MonitorNode(0, n, rng.random((15, 3, 3)), SMALL, cfg, 21)
                    for n in range(n_monitors)]
        batches = {mon.monitor_id: mon.sample_batch() for mon in monitors}
        packets = manager_generate(manager, batches, 1)
        feedbacks, *_ = monitor_round(CriticBank(monitors), batches, packets, 1, cfg.eta)
        g_grads, e_grads = assemble_manager_gradients(manager, feedbacks, 1)
        ref = _direct_eg_grads(manager, monitors, batches, packets)
        for (tag, k), r in ref.items():
            got = g_grads[k] if tag == "g" else e_grads[k]
            scale = max(1.0, float(np.max(np.abs(r))))
            worst = max(worst, float(np.max(np.abs(got - r))) / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 60
    report("feedback assembly vs direct backprop", ok,
            f"N in (1,2,4), max relative error {worst:.3e}, {elapsed:.1f}s")


def test_single_node_mode_equivalence(report):
    topo = TopologySpec(1, 1)
    shards = {(0, 0): np.random.default_rng(0).random((30, 3, 3))}
    fed = run_training(
        topo, TrainingConfig(mode="federated", iterations=50, critic_iters=2,
                             local_iters=1, batch_size=4), SMALL, shards, 13)
    alone = run_training(
        topo, TrainingConfig(mode="standalone", iterations=50, critic_iters=2,
                             local_iters=1, batch_size=4), SMALL, shards, 13)
    diff = 0.0
    for f, a in zip(fed.bundle_for(0, 0), alone.bundle_for(0, 0)):
        for k, p in f.params().items():
            diff = max(diff, float(np.max(np.abs(p.data - a.params()[k].data))))
    report("mode equivalence (federated S=1,N=1,L=1 vs standalone)",
            diff <= 1e-10, f"max param divergence {diff:.3e} over 50 iterations")


def test_parameter_averaging_exact(report):
    rng = np.random.default_rng(17)
    counts = [int(q) for q in rng.integers(1, 100, 4)]
    sets = [{"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(5)}
            for _ in range(4)]
    out = controller_aggregate(sets, SliceWeights(counts))
    total = float(sum(counts))
    worst = 0.0
    for key in ("a", "b"):
        brute = np.zeros_like(sets[0][key])
        for q, ps in zip(counts, sets):
            brute = brute + float(q) * ps[key]
        brute = brute / total
        worst = max(worst, float(np.max(np.abs(out[key] - brute))))
    # equal weights reduce to the arithmetic mean
    eq = controller_aggregate(
        [{"w": np.array([0.2])}, {"w": np.array([0.4])}], SliceWeights([5, 5]))
    worst = max(worst, abs(float(eq["w"][0]) - (0.2 + 0.4) / 2))
    report("weighted parameter averaging", worst == 0.0,
            f"max deviation from brute force {worst:.1e}")


def _trace_stability(result, key):
    per_iter = {}
    for row in result.traces:
        per_iter.setdefault(row["iteration"], []).append(row[key])
    trace = np.array([np.mean(v) for _, v in sorted(per_iter.items())])
    trailing_std = float(np.std(trace[-50:]))
    rng_span = float(trace.max() - trace.min())
    return trailing_std, rng_span


def test_losses_stabilize_at_desk_scale(desk_run, report):
    _, result, _, elapsed = desk_run
    d_std, d_range = _trace_stability(result, "d_loss")
    eg_std, eg_range = _trace_stability(result, "eg_loss")
    ok = (d_std < 0.1 * d_range and eg_std < 0.1 * eg_range and elapsed < 600)
    report("desk-scale convergence", ok,
            f"trailing-50 std d {d_std:.3f} (range {d_range:.2f}), "
            f"eg {eg_std:.3f} (range {eg_range:.2f}), {elapsed:.0f}s")


def test_detection_quality_at_desk_scale(desk_run, report):
    exp, result, nodes, _ = desk_run
    thresholds = calibrate_experiment(exp, result, nodes)
    _, metrics, fault_recall = detect_experiment(exp, result, nodes, thresholds)
    f1 = metrics["f1"].value
    recalls = {k: v.value for k, v in fault_recall.items()}
    ok = f1 >= 0.90 and all(r >= 0.85 for r in recalls.values())
    report("desk-scale detection quality", ok,
            f"F1 {f1:.4f}, per-fault recall "
            + ", ".join(f"{k} {v:.3f}" for k, v in sorted(recalls.items())))


def test_variant_ordering_over_seeds(report):
    mc = ModelConfig(gen_hidden=(16, 16), critic_hidden=(32, 16))
    tc = TrainingConfig(mode="standalone", iterations=200, critic_iters=5,
                        batch_size=32)
    inj = InjectionConfig(rate=0.1, magnitude=2.5, seed=0)
    f1s = {v: [] for v in OBJECTIVES}
    for seed in range(5):
        series = synth_dataset(SynthSpec(length=700, seed=100 + seed))
        wins = make_windows(series, mc.window, 1)
        a, b = int(wins.shape[0] * 0.6), int(wins.shape[0] * 0.8)
        norm = fit_normalizer(wins[:a])
        tr, va, te = norm.apply(wins[:a]), norm.apply(wins[a:b]), norm.apply(wins[b:])
        for variant in OBJECTIVES:
            result = run_training(TopologySpec(), tc, mc, {(0, 0): tr}, seed, variant)
            bundles = {(0, 0): result.bundle_for(0, 0)}
            th = calibrate_monitors(bundles, {(0, 0): va}, inj, 0.9)[(0, 0)]["threshold"]
            _, m, _ = detect_monitors(bundles, {(0, 0): te}, inj, {(0, 0): th}, 0.9)
            f1s[variant].append(m["f1"].value if m["f1"].defined else 0.0)
    means = {v: float(np.mean(f1s[v])) for v in OBJECTIVES}
    ours = means["biwgan_gp"]
    ok = all(ours >= means[v] - 0.02 for v in OBJECTIVES if v != "biwgan_gp")
    report("variant mean-F1 ordering (5 seeds)", ok,
            ", ".join(f"{v} {means[v]:.3f}" for v in OBJECTIVES))


def test_cost_accounting_closed_forms(report):
    topo = TopologySpec(2, 1)
    shards = {(s, 0): np.random.default_rng(s).random((30, 3, 3))
              for s in range(2)}

    def run(batch, local):
        cfg = TrainingConfig(mode="federated", iterations=7, critic_iters=2,
                             local_iters=local, batch_size=batch)
        return run_training(topo, cfg, SMALL, shards, 11)

    small, big = run(4, 3), run(8, 3)
    bytes_small = small.ledger.totals_by_link_class()["monitor->manager"]["payload_bytes"]
    bytes_big = big.ledger.totals_by_link_class()["monitor->manager"]["payload_bytes"]

    # one upload per slice per aggregation round, floor(I/L) rounds
    up_per_slice = small.ledger.message_count("params_up") / topo.slices
    rounds_ok = up_per_slice == 7 // 3 and run(4, 5).ledger.message_count(
        "params_up") / topo.slices == 7 // 5

    counts = small.ledger.param_counts
    est = flop_estimates(counts, iterations=7, critic_iters=2, batch_size=4,
                         monitors_per_slice=1, slices=2, local_iters=3)
    flops_ok = (
        est["monitor"] == 4 * 7 * (1 + 2) * 4 * counts["critic"]
        and est["manager"] == 2 * 7 * 4 * 1 * (counts["encoder"] + counts["generator"])
        and est["controller"] == 2 * (counts["encoder"] + counts["generator"]) * 7 // 3
    )
    ok = bytes_big > bytes_small and rounds_ok and flops_ok
    report("communication and compute accounting", ok,
            f"monitor bytes {bytes_small} -> {bytes_big} as M doubles, "
            f"{int(up_per_slice)} aggregation rounds at I=7 L=3")


def test_metric_rational_identities(report):
    rng = np.random.default_rng(123)
    worst_exact = True
    for _ in range(100):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, 4))
        m = metrics_from_counts(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
        if tp + fp:
            worst_exact &= m["precision"].value == float(Fraction(tp, tp + fp))
        if tp + fn:
            worst_exact &= m["recall"].value == float(Fraction(tp, tp + fn))
        if (tp + fp) and (tp + fn) and tp:
            p = Fraction(tp, tp + fp)
            r = Fraction(tp, tp + fn)
            worst_exact &= m["f1"].value == float(2 * p * r / (p + r))
        if tp + tn + fp + fn:
            worst_exact &= m["accuracy"].value == float(
                Fraction(tp + tn, tp + tn + fp + fn))
    report("metric rational identities", worst_exact,
            "100 random confusion tables, exact fraction cross-check")
