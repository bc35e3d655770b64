import numpy as np
import pytest
from graph_reference import as_node, feedforward, leaves
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbiwgan import autodiff as ad
from fedbiwgan import federation
from fedbiwgan.federation import (
    Bus,
    CriticBank,
    FeedbackPacket,
    GenPacket,
    ManagerNode,
    MonitorNode,
    NonFiniteError,
    ProtocolError,
    SliceWeights,
    TopologySpec,
    TrainingConfig,
    apply_global,
    assemble_manager_gradients,
    controller_aggregate,
    manager_generate,
    manager_update,
    monitor_round,
    run_training,
)
from fedbiwgan.ledger import CostLedger
from fedbiwgan.models import OBJECTIVES, EncoderModel, GeneratorModel, ModelConfig

SMALL = ModelConfig(features=3, window=3, latent_dim=2,
                    gen_hidden=(3, 3), critic_hidden=(4, 3))


def _cfg(**kw):
    base = dict(mode="distributed", iterations=5, critic_iters=2,
                local_iters=1, batch_size=4)
    base.update(kw)
    return TrainingConfig(**base)


def _shards(topology, n_windows=30, seed=0):
    rng = np.random.default_rng(seed)
    return {
        (s, n): rng.random((n_windows, SMALL.window, SMALL.features))
        for s in range(topology.slices)
        for n in range(topology.monitors_per_slice)
    }


def _flat_params(*models):
    return np.concatenate([
        p.ravel() for m in models for p in m.params().values()
    ])


# ---------------------------------------------------------------------------
# configs and packets


def test_topology_validation():
    with pytest.raises(ValueError):
        TopologySpec(0, 1)


def test_training_config_unknown_mode_names_modes():
    with pytest.raises(ValueError) as exc:
        TrainingConfig(mode="gossip")
    msg = str(exc.value)
    for mode in ("centralized", "standalone", "distributed", "federated"):
        assert mode in msg


def test_gen_packet_batch_check():
    with pytest.raises(ProtocolError):
        GenPacket(0, 0, 1, np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((2, 3, 3)))


def test_feedback_packet_rejects_nonfinite():
    bad = np.zeros((2, 5))
    bad[1, 3] = np.inf
    with pytest.raises(NonFiniteError, match=r"iteration 4 on monitor\[0\.1\]"):
        FeedbackPacket(0, 1, 4, np.zeros((2, 5)), bad)


def test_slice_weights_validation():
    with pytest.raises(ValueError):
        SliceWeights([0, 0])
    with pytest.raises(ValueError):
        SliceWeights([-1, 2])


# ---------------------------------------------------------------------------
# monitor round


def _monitor(seed=3, cfg=None):
    cfg = cfg or _cfg()
    shard = np.random.default_rng(0).random((20, SMALL.window, SMALL.features))
    return MonitorNode(0, 0, shard, SMALL, cfg, seed)


def _packet_for(monitor, manager, iteration=1):
    batches = {monitor.monitor_id: monitor.sample_batch()}
    return batches, manager_generate(manager, batches, iteration)


def _round(monitor, x, packet, critic_iters, eta):
    """monitor_round on a bank of one: (feedback, d_loss, eg_loss)."""
    feedbacks, d_losses, eg_losses = monitor_round(
        CriticBank([monitor]), {monitor.monitor_id: x}, {monitor.monitor_id: packet},
        critic_iters, eta)
    return feedbacks[0], d_losses[0], eg_losses[0]


def test_monitor_round_zero_critic_stays_zero():
    # a fully zero critic has zero Eq-16 gradients (head activations cancel
    # and the penalty sits at the zero-norm subgradient), so one critic
    # iteration must leave it unchanged
    cfg = _cfg(critic_iters=1)
    monitor = _monitor(cfg=cfg)
    for p in monitor.critic.params().values():
        p[...] = 0.0
    manager = ManagerNode(0, SMALL, cfg, 3)
    batches, packets = _packet_for(monitor, manager)
    _round(monitor, batches[0], packets[0], 1, cfg.eta)
    assert all(np.all(p == 0) for p in monitor.critic.params().values())


def test_feedbacks_antisymmetric_when_pairs_coincide():
    cfg = _cfg()
    monitor = _monitor(cfg=cfg)
    x = monitor.sample_batch()
    z = np.random.default_rng(9).standard_normal((x.shape[0], SMALL.latent_dim))
    packet = GenPacket(0, 0, 1, latent_real=z, noise=z, fake_data=x)
    fb, _, eg = _round(monitor, x, packet, 1, cfg.eta)
    assert eg == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(fb.encoder_feedback, -fb.generator_feedback, atol=1e-12)


def test_identical_monitors_produce_identical_feedbacks():
    cfg = _cfg()
    results = []
    for _ in range(2):
        monitor = _monitor(seed=3, cfg=cfg)
        manager = ManagerNode(0, SMALL, cfg, 3)
        batches, packets = _packet_for(monitor, manager)
        fb, *_ = _round(monitor, batches[0], packets[0], cfg.critic_iters, cfg.eta)
        results.append(fb)
    np.testing.assert_array_equal(results[0].encoder_feedback, results[1].encoder_feedback)
    np.testing.assert_array_equal(results[0].generator_feedback, results[1].generator_feedback)


def test_monitor_round_batch_mismatch():
    cfg = _cfg()
    monitor = _monitor(cfg=cfg)
    packet = GenPacket(0, 0, 1, np.zeros((2, 2)), np.zeros((2, 2)),
                       np.zeros((2, 3, 3)))
    with pytest.raises(ProtocolError):
        _round(monitor, monitor.sample_batch(), packet, 1, cfg.eta)


def _bank_case(n, m, objective, seed):
    """n monitors with their batches and received packets, built afresh
    from the seed so two calls give identical nodes and streams."""
    model = ModelConfig(features=2, window=2, latent_dim=2, gen_hidden=(3, 3),
                        critic_hidden=(4, 3))
    cfg = _cfg(batch_size=m)
    rng = np.random.default_rng(seed)
    monitors = [MonitorNode(0, i, rng.random((6, 2, 2)), model, cfg, seed, objective)
                for i in range(n)]
    batches = {mon.monitor_id: mon.sample_batch() for mon in monitors}
    packets = {mon.monitor_id: GenPacket(0, mon.monitor_id, 1, rng.standard_normal((m, 2)),
                                         rng.standard_normal((m, 2)), rng.random((m, 2, 2)))
               for mon in monitors}
    return monitors, batches, packets, cfg


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 5), k=st.integers(1, 3),
       name=st.sampled_from(sorted(OBJECTIVES)), seed=st.integers(0, 2**16))
def test_bank_round_equals_one_critic_rounds(n, m, k, name, seed):
    # one round over a bank of n critics gives, bit for bit, what n rounds
    # over banks of one give: feedbacks, losses and the stepped critics
    objective = OBJECTIVES[name]
    monitors, batches, packets, cfg = _bank_case(n, m, objective, seed)
    feedbacks, d_losses, eg_losses = monitor_round(CriticBank(monitors), batches, packets,
                                                   k, cfg.eta)
    alone, _, _, _ = _bank_case(n, m, objective, seed)
    for i, mon in enumerate(alone):
        fb, d_loss, eg = monitor_round(CriticBank([mon]), batches, packets, k, cfg.eta)
        np.testing.assert_array_equal(feedbacks[i].encoder_feedback, fb[0].encoder_feedback)
        np.testing.assert_array_equal(feedbacks[i].generator_feedback,
                                      fb[0].generator_feedback)
        assert (feedbacks[i].slice_id, feedbacks[i].monitor_id) == (0, mon.monitor_id)
        assert d_losses[i] == d_loss[0] and eg_losses[i] == eg[0]
        banked = monitors[i].critic.params()
        for key, p in mon.critic.params().items():
            np.testing.assert_array_equal(banked[key], p)


def test_bank_names_the_monitor_with_a_nonfinite_critic():
    monitors, batches, packets, cfg = _bank_case(3, 4, OBJECTIVES["biwgan_gp"], 0)
    bank = CriticBank(monitors)
    monitors[1].critic.params()["d/layer1/weights"][0, 0] = np.nan  # a view of the bank
    with pytest.raises(NonFiniteError,
                       match=r"non-finite critic parameters at iteration 1 on monitor\[0\.1\]"):
        monitor_round(bank, batches, packets, 1, cfg.eta)


def test_bank_names_the_monitor_with_nonfinite_inputs():
    monitors, batches, packets, cfg = _bank_case(3, 4, OBJECTIVES["biwgan_gp"], 0)
    packets[2].fake_data[0, 0, 0] = np.inf
    with pytest.raises(NonFiniteError,
                       match=r"non-finite critic input at iteration 1 on monitor\[0\.2\]"):
        monitor_round(CriticBank(monitors), batches, packets, 1, cfg.eta)


def test_bank_needs_equal_batch_rows():
    monitors, batches, packets, cfg = _bank_case(2, 4, OBJECTIVES["biwgan_gp"], 0)
    batches[1] = batches[1][:3]
    with pytest.raises(ProtocolError, match=r"monitor\[0\.1\]"):
        monitor_round(CriticBank(monitors), batches, packets, 1, cfg.eta)


def test_monitor_critics_are_views_of_the_bank():
    monitors, *_ = _bank_case(2, 4, OBJECTIVES["biwgan_gp"], 0)
    before = [{k: p.copy() for k, p in mon.critic.params().items()} for mon in monitors]
    bank = CriticBank(monitors)
    for key, p in bank.critic.params().items():
        assert p.shape[0] == 2 and p.ndim == 3
        for i, mon in enumerate(monitors):
            member = mon.critic.params()[key]
            np.testing.assert_array_equal(member, before[i][key])
            assert np.shares_memory(member, p)


# ---------------------------------------------------------------------------
# manager


def test_manager_generate_deterministic_and_distinct_streams():
    cfg = _cfg()
    rng = np.random.default_rng(1)
    batches = {n: rng.random((4, 3, 3)) for n in range(3)}
    m1 = ManagerNode(0, SMALL, cfg, 11)
    m2 = ManagerNode(0, SMALL, cfg, 11)
    p1 = manager_generate(m1, batches, 1)
    p2 = manager_generate(m2, batches, 1)
    for n in batches:
        np.testing.assert_array_equal(p1[n].noise, p2[n].noise)
        np.testing.assert_array_equal(p1[n].fake_data, p2[n].fake_data)
    # different monitors draw from different noise streams
    assert not np.array_equal(p1[0].noise, p1[1].noise)
    assert not np.array_equal(p1[1].noise, p1[2].noise)


def test_noise_streams_no_collisions():
    # 10^4 draws across (iteration, monitor) pairs: all distinct
    cfg = _cfg()
    manager = ManagerNode(0, SMALL, cfg, 5)
    seen = set()
    batch = {0: np.zeros((1, 3, 3)), 1: np.zeros((1, 3, 3))}
    for it in range(1, 2501):
        packets = manager_generate(manager, batch, it)
        for n in batch:
            seen.add(packets[n].noise.tobytes())
    assert len(seen) == 5000
    rng = np.random.default_rng(np.random.SeedSequence([5, 404, 0, 1, 0]))
    expected = rng.standard_normal((1, SMALL.latent_dim))
    np.testing.assert_array_equal(
        manager_generate(manager, {0: np.zeros((1, 3, 3))}, 1)[0].noise, expected)


@pytest.mark.parametrize("name", ["gan", "biwgan_gp"])
def test_encoder_runs_only_for_joint_objectives(monkeypatch, name):
    calls = []
    forward = EncoderModel.__call__

    def counted(self, x, **kwargs):
        calls.append(x)
        return forward(self, x, **kwargs)

    monkeypatch.setattr(EncoderModel, "__call__", counted)
    topo = TopologySpec(1, 2)
    res = run_training(topo, _cfg(mode="federated", iterations=2), SMALL, _shards(topo), 0,
                       name)
    assert len(calls) == (2 if OBJECTIVES[name].joint else 0)
    # the window-only critic's packets carry a zero latent of the same shape
    latent_bytes = [r["payload_bytes"] for r in res.ledger.records if r["kind"] == "gen_packet"]
    assert latent_bytes == [8 * 4 * (2 * SMALL.latent_dim + SMALL.window * SMALL.features)] * 4


def test_manager_generate_names_the_monitor_with_a_nonfinite_batch():
    manager = ManagerNode(2, SMALL, _cfg(), 0)
    batches = {n: np.random.default_rng(n).random((4, 3, 3)) for n in range(3)}
    batches[1][2, 0, 1] = np.nan
    with pytest.raises(NonFiniteError, match=r"non-finite batch from monitor\[2\.1\] "
                                             r"at iteration 7 on manager\[2\]"):
        manager_generate(manager, batches, 7)


def test_manager_generate_rejects_empty():
    manager = ManagerNode(0, SMALL, _cfg(), 0)
    with pytest.raises(ProtocolError):
        manager_generate(manager, {}, 1)
    with pytest.raises(ProtocolError):
        manager_generate(manager, {0: np.zeros((0, 3, 3))}, 1)
    with pytest.raises(ProtocolError):  # batches that cannot be stacked
        manager_generate(manager, {0: np.zeros((2, 3, 3)), 1: np.zeros((2, 3, 4))}, 1)


def _end_to_end_eg_grads(manager, monitors, batches, packets, iteration):
    """Reference gradients: full-graph backprop of (1/N) sum_n L_EG^n."""
    n = len(monitors)
    g_params, e_params = leaves(manager.generator), leaves(manager.encoder)
    total = None
    for mon in monitors:
        x = batches[mon.monitor_id]
        f_t = as_node(manager.encoder, ad.tensor(x), e_params)
        z = packets[mon.monitor_id].noise
        xbar_t = as_node(manager.generator, ad.tensor(z), g_params)
        m = x.shape[0]
        u_real = ad.concat([ad.tensor(x.reshape(m, -1)), f_t], axis=1)
        u_fake = ad.concat(
            [ad.reshape(xbar_t, (m, x.shape[1] * x.shape[2])), ad.tensor(z)], axis=1)
        critic = leaves(mon.critic)
        term = ad.tmean(ad.sub(feedforward(mon.critic.net, u_real, critic),
                               feedforward(mon.critic.net, u_fake, critic)))
        total = term if total is None else ad.add(total, term)
    loss = ad.mul(total, ad.constant(1.0 / n))
    names_g, names_e = list(g_params), list(e_params)
    grads = ad.grad(loss, [g_params[k] for k in names_g] + [e_params[k] for k in names_e])
    return (
        {k: g.data for k, g in zip(names_g, grads[:len(names_g)])},
        {k: g.data for k, g in zip(names_e, grads[len(names_g):])},
    )


# rows per monitor; the ids count the monitors, except the unequal batches
@pytest.mark.parametrize("rows", [(4,), (4, 4), (4, 4, 4, 4), (3, 5)],
                         ids=["1", "2", "4", "rows3-5"])
def test_assembled_gradients_match_end_to_end(rows):
    cfg = _cfg(critic_iters=1)
    manager = ManagerNode(0, SMALL, cfg, 21)
    rng = np.random.default_rng(2)
    monitors = [
        MonitorNode(0, n, rng.random((15, 3, 3)), SMALL, cfg, 21)
        for n in range(len(rows))
    ]
    batches = {mon.monitor_id: mon.shard[mon.stream.integers(0, 15, m)]
               for mon, m in zip(monitors, rows)}
    packets = manager_generate(manager, batches, 1)
    # a bank needs equal batch rows: unequal batches run one bank each
    banks = [monitors] if len(set(rows)) == 1 else [[mon] for mon in monitors]
    feedbacks = []
    for bank in banks:
        feedbacks += monitor_round(CriticBank(bank), batches, packets, cfg.critic_iters,
                                   cfg.eta)[0]
    g_grads, e_grads = assemble_manager_gradients(manager, feedbacks, 1)
    ref_g, ref_e = _end_to_end_eg_grads(manager, monitors, batches, packets, 1)
    for k in ref_g:
        np.testing.assert_allclose(g_grads[k], ref_g[k], rtol=1e-8, atol=1e-12)
    for k in ref_e:
        np.testing.assert_allclose(e_grads[k], ref_e[k], rtol=1e-8, atol=1e-12)


def test_zero_feedbacks_leave_params_unchanged():
    cfg = _cfg()
    manager = ManagerNode(0, SMALL, cfg, 4)
    batches = {0: np.random.default_rng(0).random((4, 3, 3))}
    packets = manager_generate(manager, batches, 1)
    shape = (4, SMALL.window * SMALL.features + SMALL.latent_dim)
    fb = FeedbackPacket(0, 0, 1, np.zeros(shape), np.zeros(shape))
    before = _flat_params(manager.generator, manager.encoder)
    manager_update(manager, [fb], 1)
    np.testing.assert_array_equal(before, _flat_params(manager.generator, manager.encoder))


def test_second_monitor_zero_feedback_halves_gradients():
    cfg = _cfg(critic_iters=1)
    manager = ManagerNode(0, SMALL, cfg, 8)
    rng = np.random.default_rng(3)
    shard = rng.random((15, 3, 3))
    mon = MonitorNode(0, 0, shard, SMALL, cfg, 8)
    batch = mon.sample_batch()

    packets = manager_generate(manager, {0: batch}, 1)
    fb, *_ = _round(mon, batch, packets[0], 1, cfg.eta)
    g1, e1 = assemble_manager_gradients(manager, [fb], 1)

    # same batch duplicated to a second monitor whose feedback is zero;
    # same iteration keeps monitor 0's noise stream (and tape) identical
    packets = manager_generate(manager, {0: batch, 1: batch}, 1)
    zero = FeedbackPacket(0, 1, 1, np.zeros_like(fb.encoder_feedback),
                          np.zeros_like(fb.generator_feedback))
    g2, e2 = assemble_manager_gradients(manager, [fb, zero], 1)
    for k in g1:
        np.testing.assert_allclose(g2[k], g1[k] / 2, rtol=1e-10, atol=1e-14)
    for k in e1:
        np.testing.assert_allclose(e2[k], e1[k] / 2, rtol=1e-10, atol=1e-14)


def test_assemble_protocol_errors():
    cfg = _cfg()
    manager = ManagerNode(0, SMALL, cfg, 4)
    with pytest.raises(ProtocolError):  # nothing generated yet
        assemble_manager_gradients(manager, [], 1)
    batches = {0: np.zeros((2, 3, 3)), 1: np.zeros((2, 3, 3))}
    manager_generate(manager, batches, 1)
    shape = (2, SMALL.window * SMALL.features + SMALL.latent_dim)
    ok = FeedbackPacket(0, 0, 1, np.zeros(shape), np.zeros(shape))
    with pytest.raises(ProtocolError):  # missing monitor 1
        assemble_manager_gradients(manager, [ok], 1)
    with pytest.raises(ProtocolError):  # duplicate
        assemble_manager_gradients(manager, [ok, ok], 1)
    stale = FeedbackPacket(0, 1, 7, np.zeros(shape), np.zeros(shape))
    with pytest.raises(ProtocolError):  # iteration mismatch
        assemble_manager_gradients(manager, [ok, stale], 1)
    alien = FeedbackPacket(0, 9, 1, np.zeros(shape), np.zeros(shape))
    with pytest.raises(ProtocolError):  # unknown monitor
        assemble_manager_gradients(manager, [ok, alien], 1)
    short = FeedbackPacket(0, 1, 1, np.zeros((1, shape[1])), np.zeros((1, shape[1])))
    with pytest.raises(ProtocolError):  # rows differ from the monitor's batch
        assemble_manager_gradients(manager, [ok, short], 1)


def test_manager_iteration_is_one_batched_pass(monkeypatch):
    calls = {"encoder": 0, "generator": 0, "encoder.backward": 0, "generator.backward": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(EncoderModel, "__call__", counting("encoder", EncoderModel.__call__))
    monkeypatch.setattr(GeneratorModel, "__call__",
                        counting("generator", GeneratorModel.__call__))
    cfg = _cfg()
    manager = ManagerNode(0, SMALL, cfg, 4)
    rng = np.random.default_rng(5)
    batches = {n: rng.random((4, 3, 3)) for n in range(4)}
    manager_generate(manager, batches, 1)
    shape = (4, SMALL.pair_dim)
    feedbacks = [FeedbackPacket(0, n, 1, rng.random(shape), rng.random(shape))
                 for n in range(4)]
    monkeypatch.setattr(EncoderModel, "backward",
                        counting("encoder.backward", EncoderModel.backward))
    monkeypatch.setattr(GeneratorModel, "backward",
                        counting("generator.backward", GeneratorModel.backward))
    assemble_manager_gradients(manager, feedbacks, 1)
    assert calls == {"encoder": 1, "generator": 1, "encoder.backward": 1,
                     "generator.backward": 1}


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_equal_weights_mean():
    out = controller_aggregate(
        [{"w": np.array([0.2])}, {"w": np.array([0.4])}], SliceWeights([5, 5]))
    np.testing.assert_allclose(out["w"], [0.3])


def test_aggregate_single_slice_identity():
    params = {"w": np.array([1.5, -2.0])}
    out = controller_aggregate([params], SliceWeights([7]))
    np.testing.assert_array_equal(out["w"], params["w"])


def test_aggregate_matches_brute_force():
    rng = np.random.default_rng(17)
    counts = [int(q) for q in rng.integers(1, 100, 4)]
    sets = [{"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(5)}
            for _ in range(4)]
    out = controller_aggregate(sets, SliceWeights(counts))
    total = float(sum(counts))
    for key in ("a", "b"):
        brute = np.zeros_like(sets[0][key])
        flat = brute.reshape(-1)
        for i in range(flat.size):
            acc = 0.0
            for q, ps in zip(counts, sets):
                acc = acc + float(q) * ps[key].reshape(-1)[i]
            flat[i] = acc / total
        np.testing.assert_array_equal(out[key], brute)


def test_aggregate_structural_mismatch():
    with pytest.raises(ProtocolError):
        controller_aggregate(
            [{"w": np.zeros(2)}, {"w": np.zeros(3)}], SliceWeights([1, 1]))
    with pytest.raises(ProtocolError):
        controller_aggregate([{"w": np.zeros(2)}], SliceWeights([1, 1]))


def test_apply_global_replaces_values():
    cfg = _cfg()
    m1 = ManagerNode(0, SMALL, cfg, 1)
    m2 = ManagerNode(1, SMALL, cfg, 2)
    gen = {k: p.copy() for k, p in m2.generator.params().items()}
    enc = {k: p.copy() for k, p in m2.encoder.params().items()}
    apply_global(m1, gen, enc)
    np.testing.assert_array_equal(
        _flat_params(m1.generator, m1.encoder), _flat_params(m2.generator, m2.encoder))


# ---------------------------------------------------------------------------
# run_training and the mode lattice


def test_zero_iterations_untrained():
    topo = TopologySpec(1, 1)
    res = run_training(topo, _cfg(iterations=0), SMALL, _shards(topo), 0)
    assert res.traces == []
    assert res.ledger.records == []


def test_missing_shard():
    topo = TopologySpec(1, 2)
    with pytest.raises(ValueError):
        run_training(topo, _cfg(), SMALL, {(0, 0): np.zeros((5, 3, 3))}, 0)


def test_federated_single_slice_equals_distributed():
    topo = TopologySpec(1, 2)
    shards = _shards(topo)
    fed = run_training(topo, _cfg(mode="federated", iterations=8, local_iters=1),
                       SMALL, shards, 13)
    dist = run_training(topo, _cfg(mode="distributed", iterations=8), SMALL, shards, 13)
    for key in fed.monitors:
        f = _flat_params(*fed.bundle_for(*key))
        d = _flat_params(*dist.bundle_for(*key))
        assert np.max(np.abs(f - d)) <= 1e-10


def test_distributed_single_monitor_equals_standalone():
    topo = TopologySpec(1, 1)
    shards = _shards(topo)
    dist = run_training(topo, _cfg(mode="distributed", iterations=8), SMALL, shards, 13)
    alone = run_training(topo, _cfg(mode="standalone", iterations=8), SMALL, shards, 13)
    f = _flat_params(*dist.bundle_for(0, 0))
    a = _flat_params(*alone.bundle_for(0, 0))
    assert np.max(np.abs(f - a)) <= 1e-10
    # loss traces agree too
    for td, ta in zip(dist.traces, alone.traces):
        assert abs(td["d_loss"] - ta["d_loss"]) <= 1e-10
        assert abs(td["eg_loss"] - ta["eg_loss"]) <= 1e-10


def test_centralized_pools_all_shards():
    topo = TopologySpec(2, 2)
    shards = _shards(topo, n_windows=10)
    # a joint objective and a window-only one
    for name in ("biwgan_gp", "gan"):
        res = run_training(topo, _cfg(mode="centralized", iterations=2), SMALL, shards, 0,
                           name)
        assert set(res.monitors) == {(0, 0)}
        assert res.monitors[(0, 0)].shard.shape[0] == 40
        # upload accounted on both tiers for every shard
        uploads = [r for r in res.ledger.records if r["kind"] == "data_batch"
                   and r["iteration"] == 0]
        assert len(uploads) == 8
        # any monitor key maps onto the pooled model
        g, e, d = res.bundle_for(1, 1)
        assert g is res.managers[(0, 0)].generator
        # and it is bit for bit standalone 1x1 on the shards concatenated
        # in (s, n) order
        pooled = {(0, 0): np.concatenate([shards[key] for key in sorted(shards)])}
        alone = run_training(TopologySpec(), _cfg(mode="standalone", iterations=2), SMALL,
                             pooled, 0, name)
        flat = [_flat_params(r.managers[(0, 0)].generator, r.managers[(0, 0)].encoder,
                             r.monitors[(0, 0)].critic) for r in (res, alone)]
        np.testing.assert_array_equal(*flat)
        assert res.traces == alone.traces


def test_nonfinite_global_parameters_stop_training(monkeypatch):
    # a NaN planted in slice 1's generator after its update reaches the
    # controller; the critic check is covered through the CLI
    update = federation.manager_update

    def planted(manager, feedbacks, iteration):
        update(manager, feedbacks, iteration)
        if manager.slice_id == 1:
            manager.generator.params()["g/head/weights"][0, 0] = np.nan

    monkeypatch.setattr(federation, "manager_update", planted)
    topo = TopologySpec(2, 2)
    with pytest.raises(NonFiniteError, match="global parameters at iteration 1 on controller"):
        run_training(topo, _cfg(mode="federated", iterations=2, local_iters=1),
                     SMALL, _shards(topo), 0)


def test_federated_aggregation_count_and_sync():
    topo = TopologySpec(2, 1)
    shards = _shards(topo)
    res = run_training(topo, _cfg(mode="federated", iterations=6, local_iters=3),
                       SMALL, shards, 5)
    assert res.ledger.message_count("params_up") == 2 * 2  # 2 slices, I/L = 2 rounds
    # after a final aggregation both managers hold identical parameters
    m0 = _flat_params(res.managers[0].generator, res.managers[0].encoder)
    m1 = _flat_params(res.managers[1].generator, res.managers[1].encoder)
    np.testing.assert_array_equal(m0, m1)


def test_identical_param_sets_aggregate_to_themselves():
    rng = np.random.default_rng(6)
    params = {"a": rng.standard_normal((4, 3)), "b": rng.standard_normal(2)}
    for s in (2, 3, 5):
        out = controller_aggregate(
            [{k: v.copy() for k, v in params.items()} for _ in range(s)],
            SliceWeights([10] * s))
        for k in params:
            np.testing.assert_allclose(out[k], params[k], atol=1e-15)


def test_bus_accounts_real_bytes():
    from fedbiwgan import wire

    ledger = CostLedger()
    bus = Bus(ledger)
    t = np.random.default_rng(0).standard_normal((4, 7))
    bus.send(wire.Message(wire.MSG_FEEDBACK, 0, 0, 3, [t]), link="monitor[0.0]->manager[0]")
    rec = ledger.records[0]
    assert rec["payload_bytes"] == 8 * 28
    assert rec["overhead_bytes"] == len(wire.encode_message(
        wire.Message(wire.MSG_FEEDBACK, 0, 0, 3, [t]))) - 8 * 28


def test_param_counts_recorded():
    topo = TopologySpec(1, 1)
    res = run_training(topo, _cfg(iterations=1), SMALL, _shards(topo), 0)
    counts = res.ledger.param_counts
    manager = next(iter(res.managers.values()))
    assert counts["generator"] == sum(
        p.size for p in manager.generator.params().values())
    assert counts["critic"] > 0 and counts["encoder"] > 0


@pytest.mark.parametrize("mode", ["standalone", "distributed", "centralized", "federated"])
def test_mode_communication_pattern_and_keys(mode):
    topo = TopologySpec(2, 2)
    iterations, local_iters = 4, 2
    res = run_training(topo, _cfg(mode=mode, iterations=iterations, local_iters=local_iters),
                       SMALL, _shards(topo, n_windows=10), 0)
    cells = [(s, n) for s in range(2) for n in range(2)]
    records = res.ledger.records
    kinds = [r["kind"] for r in records]
    labels = [t["node"] for t in res.traces]
    assert len(labels) == iterations * len(res.managers)
    if mode == "standalone":
        assert records == []
        assert list(res.managers) == cells and list(res.monitors) == cells
        assert labels == ["0.0", "0.1", "1.0", "1.1"] * iterations
    elif mode == "centralized":
        assert kinds == ["data_batch"] * 2 * len(cells)
        assert all(r["iteration"] == 0 for r in records)
        links = [r["link"] for r in records]
        for s, n in cells:
            assert links.count(f"monitor[{s}.{n}]->manager[{s}]") == 1
        for s in range(2):
            assert links.count(f"manager[{s}]->controller") == 2
        assert list(res.managers) == [(0, 0)] and list(res.monitors) == [(0, 0)]
        assert labels == ["0.0"] * iterations
    else:
        assert list(res.managers) == [0, 1] and list(res.monitors) == cells
        assert labels == ["0", "1"] * iterations
        rounds = iterations // local_iters if mode == "federated" else 0
        for s in range(2):
            for kind in ("params_up", "params_down"):
                assert sum(r["kind"] == kind and f"manager[{s}]" in r["link"]
                           for r in records) == rounds
        assert set(kinds) - {"params_up", "params_down"} == {
            "data_batch", "gen_packet", "feedback"}
