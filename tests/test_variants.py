"""Every objective as a standalone 1x1 run_training: the objective alone
fixes the critic's input and head, and every variant trains to finite
losses and scores through score_windows."""

import numpy as np
import pytest

from fedbiwgan import autodiff as ad
from fedbiwgan.detection import score_windows
from fedbiwgan.federation import (
    CriticBank,
    ManagerNode,
    MonitorNode,
    TopologySpec,
    TrainingConfig,
    manager_generate,
    manager_update,
    monitor_round,
    run_training,
)
from fedbiwgan.models import OBJECTIVES, WEIGHT_CLIP, CriticModel, ModelConfig

TINY = ModelConfig(features=3, window=3, latent_dim=2,
                   gen_hidden=(3, 3), critic_hidden=(4, 3))
CFG = TrainingConfig(mode="standalone", iterations=3, critic_iters=2, batch_size=4)
WINDOWS = np.random.default_rng(0).standard_normal((20, 3, 3))
SEED = 5


def _run(variant):
    return run_training(TopologySpec(), CFG, TINY, {(0, 0): WINDOWS}, SEED, variant)


def _arrays(params):
    return {k: p.data.copy() for k, p in params.items()}


def _assert_params_equal(a, b):
    assert list(a) == list(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=k)


@pytest.mark.parametrize("variant", list(OBJECTIVES))
def test_every_objective_trains_to_finite_losses(variant):
    # TINY names no head: a minimax objective must still get its sigmoid one
    traces = _run(variant).traces
    assert len(traces) == CFG.iterations
    for trace in traces:
        assert np.isfinite(trace["d_loss"]) and np.isfinite(trace["eg_loss"]), trace


@pytest.mark.parametrize("variant", ["gan", "wgan", "wgan_gp"])
def test_window_only_critic_and_untouched_encoder(variant):
    result = _run(variant)
    _, encoder, critic = result.bundle_for(0, 0)
    data_dim = TINY.window * TINY.features
    assert encoder is None
    assert critic.input_dim == data_dim
    assert critic.params()["d/layer0/weights"].data.shape[1] == data_dim

    manager = result.managers[(0, 0)]
    initial = ManagerNode(0, TINY, CFG, SEED)
    _assert_params_equal(_arrays(manager.encoder.params()), _arrays(initial.encoder.params()))
    # the generator did train
    assert any(np.any(manager.generator.params()[k].data != p.data)
               for k, p in initial.generator.params().items())


def test_wgan_critic_weights_are_clipped():
    _, _, critic = _run("wgan").bundle_for(0, 0)
    for p in critic.params().values():
        assert np.all(np.abs(p.data) <= WEIGHT_CLIP)


@pytest.mark.parametrize("variant,head,paired", [
    ("gan", "sigmoid", False), ("bigan", "sigmoid", True), ("wgan", "linear", False),
    ("wgan_gp", "linear", False), ("biwgan_gp", "linear", True),
])
def test_heads_and_scores(variant, head, paired):
    g, e, d = _run(variant).bundle_for(0, 0)
    assert d.net.layers[-1].activation == head
    assert (e is not None) == paired
    scored = score_windows(WINDOWS[:6], g, e, d, 0.9)
    assert len(scored) == 6
    assert all(np.isfinite(s.score) for s in scored)


def test_window_only_scoring_records_no_graph(monkeypatch):
    # a trained window-only bundle scores on arrays: the critic sees one
    # plain array and no Tensor is constructed
    g, e, d = _run("gan").bundle_for(0, 0)
    raw_output, init = CriticModel.raw_output, ad.Tensor.__init__
    inputs, built = [], []

    def spy(self, u):
        inputs.append(type(u))
        return raw_output(self, u)

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CriticModel, "raw_output", spy)
    monkeypatch.setattr(ad.Tensor, "__init__", counted_init)
    score_windows(WINDOWS[:6], g, e, d, 0.9)
    assert inputs == [np.ndarray] and built == []


@pytest.mark.parametrize("variant", ["gan", "biwgan_gp"])
def test_training_and_scoring_build_no_graph(monkeypatch, variant):
    # one federated iteration and one scoring call, window-only and joint,
    # construct no Tensor and take no engine gradient
    objective = OBJECTIVES[variant]
    cfg = TrainingConfig(mode="federated", critic_iters=2, batch_size=4)
    manager = ManagerNode(0, TINY, cfg, SEED, objective)
    monitors = [MonitorNode(0, n, WINDOWS, TINY, cfg, SEED, objective) for n in range(2)]
    bank = CriticBank(monitors)
    batches = {mon.monitor_id: mon.sample_batch() for mon in monitors}
    calls = {"Tensor": 0, "grad": 0}
    init, grad = ad.Tensor.__init__, ad.grad

    def counted_init(self, *args, **kwargs):
        calls["Tensor"] += 1
        init(self, *args, **kwargs)

    def counted_grad(*args, **kwargs):
        calls["grad"] += 1
        return grad(*args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counted_init)
    monkeypatch.setattr(ad, "grad", counted_grad)
    packets = manager_generate(manager, batches, 1)
    feedbacks, *_ = monitor_round(bank, batches, packets, cfg.critic_iters, cfg.eta)
    manager_update(manager, feedbacks, 1)
    assert calls == {"Tensor": 0, "grad": 0}
    encoder = manager.encoder if objective.joint else None
    score_windows(WINDOWS, manager.generator, encoder, monitors[0].critic, 0.9)
    assert calls == {"Tensor": 0, "grad": 0}
    ad.tensor([1.0])  # the spy sees a construction
    assert calls == {"Tensor": 1, "grad": 0}


def test_unknown_objective_lists_valid_names():
    with pytest.raises(ValueError, match="unknown objective 'vae'.*" + ", ".join(OBJECTIVES)):
        _run("vae")
