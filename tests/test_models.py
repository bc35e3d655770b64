import numpy as np
import pytest

from fedbiwgan import autodiff as ad
from fedbiwgan.models import (
    CriticModel,
    EncoderModel,
    GeneratorModel,
    JointPair,
    ModelConfig,
    NoiseSpec,
    OBJECTIVES,
    critic_loss,
    eg_local_loss,
    error_feedbacks,
    generate,
    encode,
    get_objective,
    interpolate,
)
from fedbiwgan.nn import ShapeError

SMALL = ModelConfig(features=3, window=4, latent_dim=2,
                    gen_hidden=(4, 4), critic_hidden=(5, 4))


def test_config_validation_and_roundtrip():
    with pytest.raises(ValueError):
        ModelConfig(head_mode="relu")
    assert SMALL.pair_dim == 4 * 3 + 2
    assert ModelConfig.from_dict(SMALL.to_dict()) == SMALL


def test_noise_spec():
    with pytest.raises(ValueError):
        NoiseSpec("cauchy", 2)
    rng = np.random.default_rng(0)
    u = NoiseSpec("uniform", 3).sample(rng, 5)
    assert u.shape == (5, 3) and np.all(np.abs(u) <= 1.0)
    assert NoiseSpec("normal", 3).sample(rng, 0).shape == (0, 3)


def test_generator_shapes_and_determinism():
    g = GeneratorModel(SMALL, np.random.default_rng(0))
    z = np.random.default_rng(1).standard_normal((5, 2))
    out1 = generate(g, z)
    out2 = generate(g, z)
    assert out1.shape == (5, 4, 3)
    np.testing.assert_array_equal(out1, out2)
    assert generate(g, np.zeros((0, 2))).shape == (0, 4, 3)


def test_generator_shape_error():
    g = GeneratorModel(SMALL, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        g(ad.tensor(np.zeros((2, 3))))


def test_encoder_shapes_and_determinism():
    e = EncoderModel(SMALL, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((5, 4, 3))
    f1, f2 = encode(e, x), encode(e, x)
    assert f1.shape == (5, 2)
    np.testing.assert_array_equal(f1, f2)
    assert encode(e, np.zeros((0, 4, 3))).shape == (0, 2)
    with pytest.raises(ShapeError):
        e(ad.tensor(np.zeros((2, 3, 3))))


def test_critic_zero_init_heads():
    for head, expected in (("sigmoid", 0.5), ("linear", 0.0)):
        cfg = ModelConfig(features=3, window=4, latent_dim=2,
                          gen_hidden=(4, 4), critic_hidden=(5, 4), head_mode=head)
        d = CriticModel(cfg, np.random.default_rng(0))
        for p in d.params().values():
            p.data[...] = 0.0
        pair = JointPair(np.zeros((3, 4, 3)), np.zeros((3, 2)), "real")
        with ad.no_record():
            scores = d(ad.tensor(pair.flat())).data[:, 0]
        assert scores.shape == (3,)
        np.testing.assert_allclose(scores, expected)


def test_raw_output_is_presigmoid():
    cfg = ModelConfig(features=3, window=4, latent_dim=2,
                      gen_hidden=(4, 4), critic_hidden=(5, 4), head_mode="sigmoid")
    d = CriticModel(cfg, np.random.default_rng(3))
    u = np.random.default_rng(4).standard_normal((2, cfg.pair_dim))
    raw = d.raw_output(ad.tensor(u)).data
    prob = d(ad.tensor(u)).data
    np.testing.assert_allclose(1 / (1 + np.exp(-raw)), prob, rtol=1e-12)


def test_joint_pair_validation():
    with pytest.raises(ValueError):
        JointPair(np.zeros((2, 4, 3)), np.zeros((2, 2)), "synthetic")
    with pytest.raises(ShapeError):
        JointPair(np.zeros((2, 4, 3)), np.zeros((3, 2)), "real")
    with pytest.raises(ValueError):
        JointPair(np.full((1, 4, 3), np.nan), np.zeros((1, 2)), "real")


def test_flat_order_data_then_latent():
    data = np.arange(12.0).reshape(1, 4, 3)
    latent = np.array([[100.0, 200.0]])
    flat = JointPair(data, latent, "real").flat()
    np.testing.assert_array_equal(flat[0, :12], np.arange(12.0))
    np.testing.assert_array_equal(flat[0, 12:], [100.0, 200.0])


def test_interpolate_endpoints_and_midpoint():
    real = JointPair(np.full((2, 1, 1), 2.0), np.full((2, 1), 2.0), "real")
    fake = JointPair(np.zeros((2, 1, 1)), np.zeros((2, 1)), "fake")
    np.testing.assert_array_equal(
        interpolate(real, fake, np.ones(2)).data_part, real.data_part)
    np.testing.assert_array_equal(
        interpolate(real, fake, np.zeros(2)).data_part, fake.data_part)
    mid = interpolate(real, fake, np.full(2, 0.5))
    np.testing.assert_array_equal(mid.data_part, np.ones((2, 1, 1)))
    assert mid.provenance == "interpolated"
    with pytest.raises(ValueError):
        interpolate(real, fake, np.array([1.5, 0.0]))


# ---------------------------------------------------------------------------
# losses on a hand-checkable linear critic


class _LinearPairCritic:
    """D(u) = u @ w.T over flattened (data, latent) pairs."""

    def __init__(self, w):
        self.w = ad.tensor(np.asarray(w, dtype=np.float64), requires_grad=True)

    def __call__(self, u):
        return ad.matmul(u, ad.transpose(self.w))

    def params(self):
        return {"w": self.w}


def _scalar_pair(x, z, prov):
    return JointPair(np.asarray(x, dtype=np.float64).reshape(-1, 1, 1),
                     np.asarray(z, dtype=np.float64).reshape(-1, 1), prov)


def test_critic_loss_linear_oracle():
    # w = [2, 0] on (data, latent); D(real)=6, D(fake)=2, penalty 10*(2-1)^2
    d = _LinearPairCritic([[2.0, 0.0]])
    real = _scalar_pair([3.0], [0.0], "real")
    fake = _scalar_pair([1.0], [0.0], "fake")
    res = critic_loss(d, real, fake, np.array([0.5]), 10.0)
    assert res.value == pytest.approx(6.0, abs=1e-10)
    assert res.penalty == pytest.approx(10.0, abs=1e-10)


def test_critic_loss_constant_critic_eta_zero():
    d = _LinearPairCritic([[0.0, 0.0]])
    real = _scalar_pair([3.0, 1.0], [0.0, 0.0], "real")
    fake = _scalar_pair([1.0, 2.0], [0.0, 0.0], "fake")
    res = critic_loss(d, real, fake, np.array([0.5, 0.5]), 0.0)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.penalty == 0.0


def test_critic_loss_validation():
    d = _LinearPairCritic([[1.0, 0.0]])
    real = _scalar_pair([1.0], [0.0], "real")
    fake = _scalar_pair([2.0], [0.0], "fake")
    with pytest.raises(ValueError):
        critic_loss(d, real, fake, np.array([0.5]), -1.0)
    with pytest.raises(ValueError):
        critic_loss(d, _scalar_pair([], [], "real"), _scalar_pair([], [], "fake"),
                    np.array([]), 10.0)


def test_eg_loss_identities():
    d = _LinearPairCritic([[2.0, 0.0]])
    real = _scalar_pair([3.0], [0.0], "real")
    fake = _scalar_pair([1.0], [0.0], "fake")
    assert eg_local_loss(d, real, fake) == pytest.approx(4.0, abs=1e-12)
    # equals the negated un-penalized part of the critic loss
    res = critic_loss(d, real, fake, np.array([0.5]), 0.0)
    assert eg_local_loss(d, real, fake) == pytest.approx(-res.value, abs=1e-12)
    # constant critic
    zero = _LinearPairCritic([[0.0, 0.0]])
    assert eg_local_loss(zero, real, fake) == 0.0


def test_feedbacks_linear_oracle():
    # per-example input gradients of the batch mean: w/M for real, -w/M for fake
    w = np.array([[2.0, -3.0]])
    d = _LinearPairCritic(w)
    m = 4
    real = _scalar_pair(np.arange(m), np.zeros(m), "real")
    fake = _scalar_pair(np.arange(m) + 1, np.zeros(m), "fake")
    f_e, f_g = error_feedbacks(d, real, fake)
    np.testing.assert_allclose(f_e, np.tile(w / m, (m, 1)), atol=1e-12)
    np.testing.assert_allclose(f_g, np.tile(-w / m, (m, 1)), atol=1e-12)


def test_feedbacks_constant_critic_zero():
    d = _LinearPairCritic([[0.0, 0.0]])
    real = _scalar_pair([1.0, 2.0], [0.0, 0.0], "real")
    fake = _scalar_pair([3.0, 4.0], [0.0, 0.0], "fake")
    f_e, f_g = error_feedbacks(d, real, fake)
    assert np.all(f_e == 0) and np.all(f_g == 0)


# ---------------------------------------------------------------------------
# the baseline objectives


class _ConstantProbCritic:
    def __init__(self, p, in_dim):
        self.p = p
        self.in_dim = in_dim
        self._w = ad.tensor(np.zeros((1, in_dim)), requires_grad=True)

    def __call__(self, u):
        return ad.add(ad.mul(ad.matmul(u, ad.transpose(self._w)), ad.constant(0.0)),
                      ad.constant(self.p))

    def params(self):
        return {"w": self._w}


def _random_pairs(rng, m, window=2, features=2, latent=2):
    return (JointPair(rng.random((m, window, features)), rng.random((m, latent)), "real"),
            JointPair(rng.random((m, window, features)), rng.random((m, latent)), "fake"))


def test_gan_constant_half_discriminator_loss():
    # the window-only gan critic reads 4 = 2 x 2 inputs
    d = _ConstantProbCritic(0.5, 4)
    real, fake = _random_pairs(np.random.default_rng(0), 3)
    gan = OBJECTIVES["gan"]
    assert eg_local_loss(d, real, fake, gan) == pytest.approx(np.log(0.5) + np.log(0.5),
                                                              abs=1e-12)
    assert eg_local_loss(d, real, fake, gan) == pytest.approx(-1.3863, abs=1e-4)
    res = critic_loss(d, real, fake, None, 10.0, gan)
    assert res.value == pytest.approx(-(np.log(0.5) + np.log(0.5)), abs=1e-12)
    assert res.penalty == 0.0


def test_wgan_equal_expectations_zero():
    d = _LinearPairCritic([[0.0, 0.0, 0.0, 0.0]])
    real, _ = _random_pairs(np.random.default_rng(1), 3)
    res = critic_loss(d, real, real, None, 10.0, OBJECTIVES["wgan"])
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_wgan_gp_linear_oracle():
    # same setup as the critic_loss oracle, window-only critic
    d = _LinearPairCritic([[2.0]])
    real = _scalar_pair([3.0], [7.0], "real")
    fake = _scalar_pair([1.0], [-5.0], "fake")
    res = critic_loss(d, real, fake, np.array([0.5]), 10.0, OBJECTIVES["wgan_gp"])
    assert res.value == pytest.approx(-(6.0 - 2.0) + 10.0, abs=1e-10)


def test_baseline_type_checks():
    with pytest.raises(ValueError, match="gan, bigan, wgan, wgan_gp, biwgan_gp"):
        get_objective("vae")
    assert set(OBJECTIVES) == {"gan", "bigan", "wgan", "wgan_gp", "biwgan_gp"}
    # a window-only critic never sees the latent part
    d = _LinearPairCritic([[1.0]])
    real = _scalar_pair([1.0], [9.0], "real")
    fake = _scalar_pair([2.0], [-9.0], "fake")
    assert eg_local_loss(d, real, fake, OBJECTIVES["wgan"]) == pytest.approx(-1.0)


def test_bigan_ge_input_grads_cover_both_pairs():
    cfg = ModelConfig(features=2, window=2, latent_dim=2,
                      gen_hidden=(3, 3), critic_hidden=(4, 3), head_mode="sigmoid")
    d = CriticModel(cfg, np.random.default_rng(5))
    real, fake = _random_pairs(np.random.default_rng(6), 3)
    f_e, f_g = error_feedbacks(d, real, fake, OBJECTIVES["bigan"])
    assert f_e.shape == (3, cfg.pair_dim)
    assert f_g.shape == (3, cfg.pair_dim)
    assert np.any(f_e != 0)
    assert np.any(f_g != 0)


@pytest.mark.parametrize("name", ["gan", "wgan", "wgan_gp"])
def test_window_only_feedbacks_zero_latent_columns(name):
    objective = OBJECTIVES[name]
    cfg = ModelConfig(features=2, window=2, latent_dim=2, gen_hidden=(3, 3),
                      critic_hidden=(4, 3),
                      head_mode="sigmoid" if objective.value == "minimax" else "linear")
    d = CriticModel(cfg, np.random.default_rng(5), input_dim=4)
    real, fake = _random_pairs(np.random.default_rng(6), 3)
    f_e, f_g = error_feedbacks(d, real, fake, objective)
    assert f_e.shape == f_g.shape == (3, cfg.pair_dim)
    assert np.all(f_e[:, 4:] == 0) and np.all(f_g[:, 4:] == 0)
    assert np.any(f_e[:, :4] != 0) and np.any(f_g[:, :4] != 0)
