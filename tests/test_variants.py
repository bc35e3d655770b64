"""train_variant on a tiny config: every variant is a standalone 1x1
run_training under its objective."""

import numpy as np
import pytest

from fedbiwgan import autodiff as ad
from fedbiwgan.federation import ManagerNode, TopologySpec, TrainingConfig, run_training
from fedbiwgan.models import WEIGHT_CLIP, CriticModel, ModelConfig
from fedbiwgan.variants import ALL_VARIANTS, train_variant

TINY = ModelConfig(features=3, window=3, latent_dim=2,
                   gen_hidden=(3, 3), critic_hidden=(4, 3))
CFG = TrainingConfig(mode="federated", iterations=3, critic_iters=2, batch_size=4)
WINDOWS = np.random.default_rng(0).standard_normal((20, 3, 3))
SEED = 5


def _arrays(params):
    return {k: p.data.copy() for k, p in params.items()}


def _assert_params_equal(a, b):
    assert list(a) == list(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=k)


def test_biwgan_gp_is_a_direct_standalone_run():
    bundle = train_variant("biwgan_gp", WINDOWS, TINY, CFG, SEED)
    direct = run_training(TopologySpec(1, 1),
                          TrainingConfig(mode="standalone", iterations=3, critic_iters=2,
                                         batch_size=4),
                          TINY, {(0, 0): WINDOWS}, SEED)
    g, e, d = direct.bundle_for(0, 0)
    assert bundle.model_cfg == TINY
    for trained, reference in ((bundle.generator, g), (bundle.encoder, e), (bundle.critic, d)):
        _assert_params_equal(_arrays(trained.params()), _arrays(reference.params()))


@pytest.mark.parametrize("variant", ["gan", "wgan", "wgan_gp"])
def test_window_only_critic_and_untouched_encoder(variant):
    bundle = train_variant(variant, WINDOWS, TINY, CFG, SEED)
    data_dim = TINY.window * TINY.features
    assert bundle.encoder is None
    assert bundle.critic.input_dim == data_dim
    assert bundle.critic.params()["d/layer0/weights"].data.shape[1] == data_dim

    run_cfg = TrainingConfig(mode="standalone", iterations=3, critic_iters=2, batch_size=4)
    result = run_training(TopologySpec(1, 1), run_cfg, bundle.model_cfg,
                          {(0, 0): WINDOWS}, SEED, variant)
    manager = result.managers[(0, 0)]
    initial = ManagerNode(0, bundle.model_cfg, run_cfg, SEED)
    _assert_params_equal(_arrays(manager.encoder.params()), _arrays(initial.encoder.params()))
    # the generator did train
    assert any(np.any(manager.generator.params()[k].data != p.data)
               for k, p in initial.generator.params().items())


def test_wgan_critic_weights_are_clipped():
    bundle = train_variant("wgan", WINDOWS, TINY, CFG, SEED)
    for p in bundle.critic.params().values():
        assert np.all(np.abs(p.data) <= WEIGHT_CLIP)


@pytest.mark.parametrize("variant,head,paired", [
    ("gan", "sigmoid", False), ("bigan", "sigmoid", True), ("wgan", "linear", False),
    ("wgan_gp", "linear", False), ("biwgan_gp", "linear", True),
])
def test_heads_and_scores(variant, head, paired):
    bundle = train_variant(variant, WINDOWS, TINY, CFG, SEED)
    assert bundle.model_cfg.head_mode == head
    assert bundle.critic.net.layers[-1].activation == head
    assert (bundle.encoder is not None) == paired
    scored = bundle.score(WINDOWS[:6], 0.9)
    assert len(scored) == 6
    assert all(np.isfinite(s.score) for s in scored)


def test_window_only_scoring_records_no_graph(monkeypatch):
    bundle = train_variant("gan", WINDOWS, TINY, CFG, SEED)
    raw_output = CriticModel.raw_output
    recording = []

    def spy(self, u):
        recording.append(ad._record)
        return raw_output(self, u)

    monkeypatch.setattr(CriticModel, "raw_output", spy)
    bundle.score(WINDOWS[:6], 0.9)
    assert recording == [False]


def test_unknown_objective_lists_valid_names():
    with pytest.raises(ValueError, match=", ".join(ALL_VARIANTS)):
        train_variant("vae", WINDOWS, TINY, CFG, SEED)
    with pytest.raises(ValueError, match="unknown objective 'vae'"):
        run_training(TopologySpec(1, 1), CFG, TINY, {(0, 0): WINDOWS}, SEED, "vae")
