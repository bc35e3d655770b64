"""Finite-difference verification of the reverse-mode gradients and of
the critic's closed-form ones.

Each check builds a small network, computes parameter gradients through
the first-order engine (a VLSTM cell, generator or encoder as one node
whose backward is its own numpy backward) or the critic's closed form,
recomputes them by central differences, and reports the worst relative
error max(|a - b|) / max(1, |a|, |b|) over all coordinates.
"""

from __future__ import annotations

from dataclasses import replace

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
from .nn import Dense, FeedForward, VlstmCell, as_node, finite_difference_gradient


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
    """Critic parameter gradients of the closed-form critic_loss against
    central differences of its value (summed over a stack's members)."""
    params = critic.params()
    analytic = critic_loss(critic, real, fake, eps, eta, objective).param_grads
    numeric = finite_difference_gradient(
        lambda probe: _at(params, probe, lambda: np.sum(
            critic_loss(critic, real, fake, eps, eta, objective).value)),
        params, 1e-5,
    )
    return _compare(analytic, numeric)


def _check_feedbacks(critic, real, fake, objective):
    """error_feedbacks against central differences of eg_local_loss
    (summed over a stack's members) over every input coordinate of the
    flat real and fake pair rows."""
    f_e, f_g = error_feedbacks(critic, real, fake, objective)
    numeric = finite_difference_gradient(
        lambda probe: np.sum(eg_local_loss(critic, probe["real"], probe["fake"], objective)),
        {"real": real, "fake": fake},
    )
    return _compare({"real": f_e, "fake": f_g}, numeric)


def _random_rows(rng, m):
    """Flat rows of m random pairs of 2x2 windows and 2-d latents."""
    return pair_rows(rng.standard_normal((m, 2, 2)), rng.standard_normal((m, 2)))


class _Node:
    """A VLSTM cell, generator or encoder checked like a network, as one
    graph node (nn.as_node); keyword arguments go to its forward, e.g. a
    cell's `steps`."""

    def __init__(self, model, **kwargs):
        self.model = model
        self.kwargs = kwargs

    def __call__(self, x):
        return as_node(self.model, x, **self.kwargs)

    def params(self):
        return self.model.params()


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
               _check_net(_Node(cell, steps=steps), x, _quad_loss))

    # full sequence models on a reduced architecture
    cfg = ModelConfig(features=3, window=3, latent_dim=2,
                      gen_hidden=(3, 3), critic_hidden=(4, 3))
    gen = GeneratorModel(cfg, rng)
    z = rng.standard_normal((2, cfg.latent_dim))
    record("generator", _check_net(_Node(gen), z, _quad_loss))
    record("generator/abs", _check_net(_Node(gen), z, _abs_like_loss))

    enc = EncoderModel(cfg, rng)
    xw = rng.standard_normal((2, cfg.window, cfg.features))
    record("encoder", _check_net(_Node(enc), xw, _quad_loss))

    for head, objective in (("linear", BIWGAN_GP), ("sigmoid", OBJECTIVES["bigan"])):
        critic = CriticModel(cfg, rng, objective)
        u = rng.standard_normal((3, cfg.pair_dim))
        record(f"critic[{head}]", _check_net(critic, u, _quad_loss))

    # full critic objective with the gradient penalty (its closed form
    # reaches the parameters through second derivatives)
    dcfg = replace(cfg, features=2, window=2)
    for eta in (0.0, 1.0, 10.0):
        critic = CriticModel(dcfg, rng)
        m = 3
        real, fake = _random_rows(rng, m), _random_rows(rng, m)
        eps = rng.uniform(0.0, 1.0, m)
        record(f"critic_loss[eta={eta}]",
               _check_critic_loss(critic, real, fake, eps, eta, BIWGAN_GP))

    # per-example error feedbacks vs finite differences on the inputs
    for m in (2, 4):
        critic = CriticModel(dcfg, rng)
        real_flat = rng.standard_normal((m, dcfg.pair_dim))
        fake_flat = rng.standard_normal((m, dcfg.pair_dim))
        record(f"feedbacks[M={m}]", _check_feedbacks(critic, real_flat, fake_flat, BIWGAN_GP))

    # every objective: its critic loss and the feedbacks that train G and E
    for name, objective in OBJECTIVES.items():
        critic = CriticModel(dcfg, rng, objective)
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
               _check_net(_Node(cell), xs, _abs_like_loss, input_grad=True))

    # every objective on a bank of two stacked critics over [2, M, pair_dim]
    # rows, as federation.CriticBank steps them (drawn last as well)
    for name, objective in OBJECTIVES.items():
        bank, other = (CriticModel(dcfg, rng, objective) for _ in range(2))
        for key, p in bank.params().items():
            p.data = np.stack([p.data, other.params()[key].data]).reshape(2, -1, p.shape[-1])
        real, fake = (np.stack([_random_rows(rng, 3) for _ in range(2)]) for _ in range(2))
        eps = rng.uniform(0.0, 1.0, (2, 3))
        record(f"critic_loss[{name},N=2]",
               _check_critic_loss(bank, real, fake, eps, 10.0, objective))
        record(f"feedbacks[{name},N=2]", _check_feedbacks(bank, real, fake, objective))

    return max(err for _, err in results)
