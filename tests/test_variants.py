"""Every objective as a standalone 1x1 run_training: the objective alone
fixes the critic's input and head, and every variant trains to finite
losses and scores through score_windows."""

import numpy as np
import pytest

from fedbiwgan import autodiff as ad
from fedbiwgan.detection import score_windows
from fedbiwgan.federation import ManagerNode, TopologySpec, TrainingConfig, run_training
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
    g, e, d = _run("gan").bundle_for(0, 0)
    raw_output = CriticModel.raw_output
    recording = []

    def spy(self, u):
        recording.append(ad._record)
        return raw_output(self, u)

    monkeypatch.setattr(CriticModel, "raw_output", spy)
    score_windows(WINDOWS[:6], g, e, d, 0.9)
    assert recording == [False]


def test_unknown_objective_lists_valid_names():
    with pytest.raises(ValueError, match="unknown objective 'vae'.*" + ", ".join(OBJECTIVES)):
        _run("vae")
