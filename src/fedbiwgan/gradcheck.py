"""Finite-difference verification of the reverse-mode gradients.

Each check builds a small network, computes parameter gradients through
the graph, recomputes them by central differences, and reports the worst
relative error max(|a - b|) / max(1, |a|, |b|) over all coordinates.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .models import (
    BIWGAN_GP,
    OBJECTIVES,
    CriticModel,
    EncoderModel,
    GeneratorModel,
    ModelConfig,
    critic_loss,
    eg_local_loss,
    error_feedbacks,
    pair_rows,
)
from .nn import Dense, FeedForward, VlstmCell, finite_difference_gradient


def _rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0


def _compare(analytic: dict, numeric: dict):
    return max(_rel_err(analytic[k], numeric[k]) for k in analytic)


def _at(params, probe, fn):
    """fn() evaluated with the parameters' values swapped for probe's."""
    saved = {k: p.data for k, p in params.items()}
    for k, p in params.items():
        p.data = probe[k]
    try:
        return fn()
    finally:
        for k, p in params.items():
            p.data = saved[k]


def _check_net(net, x, loss_of_out, h=1e-5, input_grad=False):
    """Compare graph gradients of loss_of_out(net(x)) against central
    differences over every parameter, and over x with input_grad."""
    params = net.params()
    names = list(params)
    x_leaf = ad.tensor(x, requires_grad=input_grad)
    grads = ad.grad(loss_of_out(net(x_leaf)),
                    [params[k] for k in names] + ([x_leaf] if input_grad else []))
    analytic = {k: g.data for k, g in zip(names, grads)}

    def value(inputs):
        with ad.no_record():
            return float(loss_of_out(net(ad.tensor(inputs))).data)

    numeric = finite_difference_gradient(
        lambda probe: _at(params, probe, lambda: value(x)), params, h,
    )
    if input_grad:
        analytic["input"] = grads[-1].data
        numeric.update(finite_difference_gradient(lambda probe: value(probe["input"]),
                                                  {"input": x}, h))
    return _compare(analytic, numeric)


def _check_critic_loss(critic, real, fake, eps, eta, objective):
    """Critic parameter gradients of critic_loss against central
    differences of its value (through the penalty's double backprop)."""
    params = critic.params()
    analytic = critic_loss(critic, real, fake, eps, eta, objective).param_grads
    numeric = finite_difference_gradient(
        lambda probe: _at(params, probe,
                          lambda: critic_loss(critic, real, fake, eps, eta, objective).value),
        params, 1e-5,
    )
    return _compare(analytic, numeric)


def _check_feedbacks(critic, real, fake, objective):
    """error_feedbacks against central differences of eg_local_loss over
    every input coordinate of the flat real and fake pair rows."""
    f_e, f_g = error_feedbacks(critic, real, fake, objective)
    numeric = finite_difference_gradient(
        lambda probe: eg_local_loss(critic, probe["real"], probe["fake"], objective),
        {"real": real, "fake": fake},
    )
    return _compare({"real": f_e, "fake": f_g}, numeric)


def _random_rows(rng, m):
    """Flat rows of m random pairs of 2x2 windows and 2-d latents."""
    return pair_rows(rng.standard_normal((m, 2, 2)), rng.standard_normal((m, 2)))


class _LstmWrap:
    """A cell's hidden states over a window, checked like a network: over a
    time-major input sequence, or one input fed at each of `steps` steps."""

    def __init__(self, cell, steps=None):
        self.cell = cell
        self.steps = steps

    def __call__(self, x):
        return self.cell.sequence(x, steps=self.steps)

    def params(self):
        return self.cell.params()


def _quad_loss(out):
    return ad.tmean(ad.mul(out, out))


def _abs_like_loss(out):
    # smooth stand-in for L1 shapes: mean(tanh(out) * out)
    return ad.tmean(ad.mul(ad.tanh(out), out))


def run_gradcheck(seed=0, verbose=False):
    """Run every configuration; returns the worst relative error."""
    rng = np.random.default_rng(seed)
    results = []

    def record(name, err):
        results.append((name, err))
        if verbose:
            print(f"{name}: {err:.3e}")

    # dense layers across activations and shapes
    for act in ("linear", "sigmoid", "tanh"):
        for in_dim, out_dim, batch in ((3, 2, 4), (5, 5, 1), (4, 3, 2)):
            layer = Dense(in_dim, out_dim, act, rng, name=f"gc/{act}")
            x = rng.standard_normal((batch, in_dim))
            record(f"dense[{act},{in_dim}x{out_dim}]", _check_net(layer, x, _quad_loss))

    # feedforward stacks, including a sigmoid head
    for dims, acts in (
        ([4, 6, 1], ["tanh", "linear"]),
        ([3, 5, 4, 1], ["tanh", "tanh", "sigmoid"]),
    ):
        net = FeedForward(dims, acts, rng, name="gc/ff")
        x = rng.standard_normal((3, dims[0]))
        record(f"ff{dims}", _check_net(net, x, _quad_loss))

    # recurrent cells over several steps, one input fed at each (the
    # generator's noise); the loss reads every hidden state
    for in_dim, hidden, steps in ((3, 4, 1), (2, 3, 3), (4, 2, 5)):
        cell = VlstmCell(in_dim, hidden, rng, name="gc/lstm")
        x = rng.standard_normal((2, in_dim))
        record(f"vlstm[{in_dim}->{hidden},T={steps}]",
               _check_net(_LstmWrap(cell, steps), x, _quad_loss))

    # full sequence models on a reduced architecture
    cfg = ModelConfig(features=3, window=3, latent_dim=2,
                      gen_hidden=(3, 3), critic_hidden=(4, 3))
    gen = GeneratorModel(cfg, rng)
    z = rng.standard_normal((2, cfg.latent_dim))
    record("generator", _check_net(gen, z, _quad_loss))
    record("generator/abs", _check_net(gen, z, _abs_like_loss))

    enc = EncoderModel(cfg, rng)
    xw = rng.standard_normal((2, cfg.window, cfg.features))
    record("encoder", _check_net(enc, xw, _quad_loss))

    for head in ("linear", "sigmoid"):
        dcfg = ModelConfig(features=3, window=3, latent_dim=2,
                           gen_hidden=(3, 3), critic_hidden=(4, 3), head_mode=head)
        critic = CriticModel(dcfg, rng)
        u = rng.standard_normal((3, dcfg.pair_dim))
        record(f"critic[{head}]", _check_net(critic, u, _quad_loss))

    # full critic objective with the gradient penalty (second derivatives)
    for eta in (0.0, 1.0, 10.0):
        dcfg = ModelConfig(features=2, window=2, latent_dim=2,
                           gen_hidden=(3, 3), critic_hidden=(4, 3))
        critic = CriticModel(dcfg, rng)
        m = 3
        real, fake = _random_rows(rng, m), _random_rows(rng, m)
        eps = rng.uniform(0.0, 1.0, m)
        record(f"critic_loss[eta={eta}]",
               _check_critic_loss(critic, real, fake, eps, eta, BIWGAN_GP))

    # per-example error feedbacks vs finite differences on the inputs
    for m in (2, 4):
        dcfg = ModelConfig(features=2, window=2, latent_dim=2,
                           gen_hidden=(3, 3), critic_hidden=(4, 3))
        critic = CriticModel(dcfg, rng)
        real_flat = rng.standard_normal((m, dcfg.pair_dim))
        fake_flat = rng.standard_normal((m, dcfg.pair_dim))
        record(f"feedbacks[M={m}]", _check_feedbacks(critic, real_flat, fake_flat, BIWGAN_GP))

    # every objective: its critic loss and the feedbacks that train G and E
    for name, objective in OBJECTIVES.items():
        dcfg = ModelConfig(features=2, window=2, latent_dim=2,
                           gen_hidden=(3, 3), critic_hidden=(4, 3),
                           head_mode="sigmoid" if objective.value == "minimax" else "linear")
        critic = CriticModel(dcfg, rng, input_dim=None if objective.joint
                             else dcfg.window * dcfg.features)
        m = 3
        real, fake = _random_rows(rng, m), _random_rows(rng, m)
        eps = rng.uniform(0.0, 1.0, m)
        record(f"critic_loss[{name}]",
               _check_critic_loss(critic, real, fake, eps, 10.0, objective))
        record(f"feedbacks[{name}]",
               _check_feedbacks(critic, real, fake, objective))

    # recurrent cells over time-major input sequences, with the input
    # gradient checked too (drawn last, so the configs above stay as they were)
    for in_dim, hidden, steps in ((3, 4, 1), (2, 3, 3), (4, 2, 5)):
        cell = VlstmCell(in_dim, hidden, rng, name="gc/lstm")
        xs = rng.standard_normal((steps, 2, in_dim))
        record(f"vlstm_seq[{in_dim}->{hidden},T={steps}]",
               _check_net(_LstmWrap(cell), xs, _abs_like_loss, input_grad=True))

    return max(err for _, err in results)
