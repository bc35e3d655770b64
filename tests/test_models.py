import json
from dataclasses import asdict

import numpy as np
import pytest

from fedbiwgan import autodiff as ad
from fedbiwgan.models import (
    CriticModel,
    EncoderModel,
    GeneratorModel,
    ModelConfig,
    NoiseSpec,
    OBJECTIVES,
    critic_loss,
    eg_local_loss,
    error_feedbacks,
    get_objective,
    interpolate,
    pair_rows,
)
from fedbiwgan.nn import FeedForward, ShapeError, finite_difference_gradient

SMALL = ModelConfig(features=3, window=4, latent_dim=2,
                    gen_hidden=(4, 4), critic_hidden=(5, 4))


def test_config_validation_and_roundtrip():
    with pytest.raises(ValueError):
        ModelConfig(window=0)
    assert SMALL.pair_dim == 4 * 3 + 2
    # a checkpoint stores asdict as JSON, so the hidden sizes come back as lists
    assert ModelConfig(**json.loads(json.dumps(asdict(SMALL)))) == SMALL


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
    (out1, tape), (out2, _) = g(z), g(z, keep=True)
    empty, _ = g(np.zeros((0, 2)))
    assert out1.shape == (5, 4, 3) and tape is None
    np.testing.assert_array_equal(out1, out2)
    assert empty.shape == (0, 4, 3)


def test_generator_shape_error():
    g = GeneratorModel(SMALL, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        g(np.zeros((2, 3)))


def test_encoder_shapes_and_determinism():
    e = EncoderModel(SMALL, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((5, 4, 3))
    (f1, tape), (f2, _) = e(x), e(x, keep=True)
    empty, _ = e(np.zeros((0, 4, 3)))
    assert f1.shape == (5, 2) and tape is None
    np.testing.assert_array_equal(f1, f2)
    assert empty.shape == (0, 2)
    with pytest.raises(ShapeError):
        e(np.zeros((2, 3, 3)))


def test_critic_zero_init_heads():
    # the objective fixes the head: sigmoid for a minimax value, else linear
    for name, expected in (("bigan", 0.5), ("biwgan_gp", 0.0)):
        d = CriticModel(SMALL, np.random.default_rng(0), OBJECTIVES[name])
        for p in d.params().values():
            p.data[...] = 0.0
        rows = pair_rows(np.zeros((3, 4, 3)), np.zeros((3, 2)))
        with ad.no_record():
            scores = d(ad.tensor(rows)).data[:, 0]
        assert scores.shape == (3,)
        np.testing.assert_allclose(scores, expected)


def test_raw_output_is_presigmoid():
    d = CriticModel(SMALL, np.random.default_rng(3), OBJECTIVES["bigan"])
    u = np.random.default_rng(4).standard_normal((2, SMALL.pair_dim))
    raw = d.raw_output(u)
    prob = d(ad.tensor(u)).data
    np.testing.assert_allclose(1 / (1 + np.exp(-raw)), prob, rtol=1e-12)


def test_critic_rows_validation():
    d = CriticModel(SMALL, np.random.default_rng(0))
    rows = np.zeros((2, SMALL.pair_dim))
    for fn in (eg_local_loss, error_feedbacks):
        with pytest.raises(ShapeError):  # real and fake batches differ
            fn(d, rows, np.zeros((3, SMALL.pair_dim)))
    with pytest.raises(ShapeError):
        critic_loss(d, rows, np.zeros((3, SMALL.pair_dim)), np.full(2, 0.5), 10.0)
    with pytest.raises(ShapeError):  # one weight per row
        interpolate(rows, rows, np.full(3, 0.5))
    with pytest.raises(ValueError, match="finite"):
        eg_local_loss(d, np.full((2, SMALL.pair_dim), np.nan), rows)


def test_flat_order_data_then_latent():
    data = np.arange(12.0).reshape(1, 4, 3)
    latent = np.array([[100.0, 200.0]])
    flat = pair_rows(data, latent)
    np.testing.assert_array_equal(flat[0, :12], np.arange(12.0))
    np.testing.assert_array_equal(flat[0, 12:], [100.0, 200.0])
    # a stack of batches keeps the order per row
    stacked = pair_rows(np.stack([data, data + 12]), np.stack([latent, latent + 1]))
    assert stacked.shape == (2, 1, 14)
    np.testing.assert_array_equal(stacked[1, 0], [*np.arange(12.0, 24.0), 101.0, 201.0])


def test_interpolate_endpoints_and_midpoint():
    real = np.full((2, 2), 2.0)
    fake = np.zeros((2, 2))
    np.testing.assert_array_equal(interpolate(real, fake, np.ones(2)), real)
    np.testing.assert_array_equal(interpolate(real, fake, np.zeros(2)), fake)
    np.testing.assert_array_equal(interpolate(real, fake, np.full(2, 0.5)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        interpolate(real, fake, np.array([1.5, 0.0]))


# ---------------------------------------------------------------------------
# losses on a hand-checkable linear critic


class _LinearPairCritic:
    """D(u) = u @ w.T over flattened (data, latent) pairs: a one-layer
    linear FeedForward with zero bias."""

    def __init__(self, w):
        w = np.asarray(w, dtype=np.float64)
        self.net = FeedForward([w.shape[1], 1], ["linear"])
        self.net.layers[0].weights.data[...] = w


def _scalar_pair(x, z):
    return pair_rows(np.asarray(x, dtype=np.float64).reshape(-1, 1, 1),
                     np.asarray(z, dtype=np.float64).reshape(-1, 1))


def test_critic_loss_linear_oracle():
    # w = [2, 0] on (data, latent); D(real)=6, D(fake)=2, penalty 10*(2-1)^2
    d = _LinearPairCritic([[2.0, 0.0]])
    real = _scalar_pair([3.0], [0.0])
    fake = _scalar_pair([1.0], [0.0])
    res = critic_loss(d, real, fake, np.array([0.5]), 10.0)
    assert res.value == pytest.approx(6.0, abs=1e-10)
    assert res.penalty == pytest.approx(10.0, abs=1e-10)


def test_critic_loss_constant_critic_eta_zero():
    d = _LinearPairCritic([[0.0, 0.0]])
    real = _scalar_pair([3.0, 1.0], [0.0, 0.0])
    fake = _scalar_pair([1.0, 2.0], [0.0, 0.0])
    res = critic_loss(d, real, fake, np.array([0.5, 0.5]), 0.0)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.penalty == 0.0


def test_critic_loss_validation():
    d = _LinearPairCritic([[1.0, 0.0]])
    real = _scalar_pair([1.0], [0.0])
    fake = _scalar_pair([2.0], [0.0])
    with pytest.raises(ValueError):
        critic_loss(d, real, fake, np.array([0.5]), -1.0)
    with pytest.raises(ValueError):
        critic_loss(d, _scalar_pair([], []), _scalar_pair([], []),
                    np.array([]), 10.0)


def test_eg_loss_identities():
    d = _LinearPairCritic([[2.0, 0.0]])
    real = _scalar_pair([3.0], [0.0])
    fake = _scalar_pair([1.0], [0.0])
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
    real = _scalar_pair(np.arange(m), np.zeros(m))
    fake = _scalar_pair(np.arange(m) + 1, np.zeros(m))
    f_e, f_g = error_feedbacks(d, real, fake)
    np.testing.assert_allclose(f_e, np.tile(w / m, (m, 1)), atol=1e-12)
    np.testing.assert_allclose(f_g, np.tile(-w / m, (m, 1)), atol=1e-12)


def test_feedbacks_constant_critic_zero():
    d = _LinearPairCritic([[0.0, 0.0]])
    real = _scalar_pair([1.0, 2.0], [0.0, 0.0])
    fake = _scalar_pair([3.0, 4.0], [0.0, 0.0])
    f_e, f_g = error_feedbacks(d, real, fake)
    assert np.all(f_e == 0) and np.all(f_g == 0)


# ---------------------------------------------------------------------------
# the baseline objectives


class _ConstantProbCritic:
    """D(u) = p: a one-layer sigmoid FeedForward with zero weights and
    bias logit(p)."""

    def __init__(self, p, input_dim):
        self.net = FeedForward([input_dim, 1], ["sigmoid"])
        self.net.layers[0].weights.data[...] = 0.0
        self.net.layers[0].bias.data[...] = np.log(p / (1.0 - p))


def _random_pairs(rng, m, window=2, features=2, latent=2):
    return (pair_rows(rng.random((m, window, features)), rng.random((m, latent))),
            pair_rows(rng.random((m, window, features)), rng.random((m, latent))))


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
    real = _scalar_pair([3.0], [7.0])
    fake = _scalar_pair([1.0], [-5.0])
    res = critic_loss(d, real, fake, np.array([0.5]), 10.0, OBJECTIVES["wgan_gp"])
    assert res.value == pytest.approx(-(6.0 - 2.0) + 10.0, abs=1e-10)


def test_baseline_type_checks():
    with pytest.raises(ValueError, match="gan, bigan, wgan, wgan_gp, biwgan_gp"):
        get_objective("vae")
    assert set(OBJECTIVES) == {"gan", "bigan", "wgan", "wgan_gp", "biwgan_gp"}
    # a window-only critic never sees the latent part
    d = _LinearPairCritic([[1.0]])
    real = _scalar_pair([1.0], [9.0])
    fake = _scalar_pair([2.0], [-9.0])
    assert eg_local_loss(d, real, fake, OBJECTIVES["wgan"]) == pytest.approx(-1.0)


def test_bigan_ge_input_grads_cover_both_pairs():
    cfg = ModelConfig(features=2, window=2, latent_dim=2,
                      gen_hidden=(3, 3), critic_hidden=(4, 3))
    d = CriticModel(cfg, np.random.default_rng(5), OBJECTIVES["bigan"])
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
                      critic_hidden=(4, 3))
    d = CriticModel(cfg, np.random.default_rng(5), objective)
    assert d.input_dim == 4
    real, fake = _random_pairs(np.random.default_rng(6), 3)
    f_e, f_g = error_feedbacks(d, real, fake, objective)
    assert f_e.shape == f_g.shape == (3, cfg.pair_dim)
    assert np.all(f_e[:, 4:] == 0) and np.all(f_g[:, 4:] == 0)
    assert np.any(f_e[:, :4] != 0) and np.any(f_g[:, :4] != 0)


# ---------------------------------------------------------------------------
# the closed form against finite differences


class _StackCritic:
    """A critic of any depth: the FeedForward itself, one or a stack."""

    def __init__(self, net):
        self.net = net


def _at(params, probe, fn):
    """fn() with the parameters' values swapped for probe's."""
    saved = {k: p.data for k, p in params.items()}
    for k, p in params.items():
        p.data = probe[k]
    try:
        return fn()
    finally:
        for k, p in params.items():
            p.data = saved[k]


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("activation", ["linear", "tanh", "sigmoid"])
@pytest.mark.parametrize("depth", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_closed_form_matches_finite_differences(name, depth, activation, stacked):
    # every layer takes the activation, but a minimax value needs a
    # probability head; a stacked critic is two members over [2, M, in]
    objective = OBJECTIVES[name]
    rng = np.random.default_rng(depth)
    width, m = 4, 3
    head = "sigmoid" if objective.value == "minimax" else activation
    net = FeedForward([width] + [3] * (depth - 1) + [1], [activation] * (depth - 1) + [head],
                      rng, name="d")
    lead = (2,) if stacked else ()
    params = net.params()
    for p in params.values():
        shape = p.data.shape if p.data.ndim == 2 or not stacked else (1,) + p.data.shape
        p.data = rng.uniform(-1.0, 1.0, lead + shape)
    d = _StackCritic(net)
    # a window-only critic reads the first `width` columns of wider rows
    cols = width if objective.joint else width + 2
    real, fake = (rng.standard_normal(lead + (m, cols)) for _ in range(2))
    eps = rng.uniform(0.0, 1.0, lead + (m,))

    def loss():
        return np.sum(critic_loss(d, real, fake, eps, 10.0, objective).value)

    grads = critic_loss(d, real, fake, eps, 10.0, objective).param_grads
    numeric = finite_difference_gradient(lambda probe: _at(params, probe, loss), params)
    for key in params:
        np.testing.assert_allclose(grads[key], numeric[key], rtol=1e-6, atol=1e-7)

    f_e, f_g = error_feedbacks(d, real, fake, objective)
    numeric = finite_difference_gradient(
        lambda probe: np.sum(eg_local_loss(d, probe["real"], probe["fake"], objective)),
        {"real": real, "fake": fake})
    np.testing.assert_allclose(f_e, numeric["real"], rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(f_g, numeric["fake"], rtol=1e-6, atol=1e-8)
