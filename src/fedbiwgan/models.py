"""BiWGAN-GP generator, encoder and critic, their losses and error
feedbacks, for BiWGAN-GP and the four GAN-family objectives it is compared
against.

Every model holds its parameters as plain float64 arrays, which
`params()` returns by name, and runs a numpy forward and backward; the
critic's losses and feedbacks are closed forms over its layers.

The critic scores flattened joint pairs (`pair_rows`): the data window
row-major first, then the latent vector. That flattening order is fixed;
packets, feedbacks and checkpoints all rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Dense, FeedForward, ShapeError, VlstmCell, gradient_penalty


@dataclass
class ModelConfig:
    """Architecture hyperparameters shared by all nodes of a run."""

    features: int = 26
    window: int = 8
    latent_dim: int = 16
    gen_hidden: tuple = (32, 32)
    critic_hidden: tuple = (64, 32)

    def __post_init__(self):
        for name in ("features", "window", "latent_dim", "gen_hidden", "critic_hidden"):
            value = getattr(self, name)
            layers = name.endswith("_hidden")
            sizes = value if layers and isinstance(value, (list, tuple)) else [value]
            if (layers and len(sizes) != 2) or not all(type(v) is int and v >= 1 for v in sizes):
                what = "two positive integers" if layers else "a positive integer"
                raise ValueError(f"model.{name} must be {what}, got {value!r}")
        self.gen_hidden, self.critic_hidden = tuple(self.gen_hidden), tuple(self.critic_hidden)

    @property
    def pair_dim(self):
        return self.window * self.features + self.latent_dim


@dataclass
class NoiseSpec:
    """Latent prior: standard normal, or uniform[-1, 1]."""

    distribution: str
    latent_dim: int

    def __post_init__(self):
        if self.distribution not in ("normal", "uniform"):
            raise ValueError("noise distribution must be 'normal' or 'uniform', "
                             f"got {self.distribution!r}")

    def sample(self, rng, batch):
        if self.distribution == "normal":
            return rng.standard_normal((batch, self.latent_dim))
        return rng.uniform(-1.0, 1.0, (batch, self.latent_dim))


# ---------------------------------------------------------------------------
# objectives


@dataclass(frozen=True)
class Objective:
    """A GAN-family objective for the split driver, fixed by three choices:

    - value: "wasserstein", mean D(real) - mean D(fake), or "minimax",
      mean log D(real) + mean log(1 - D(fake)) on a probability head. The
      critic maximizes it; the generator and encoder minimize it.
    - lipschitz: "penalty" (nn.gradient_penalty, closed form), "clip"
      (every critic weight clipped to +-WEIGHT_CLIP after each step) or
      "none".
    - joint: the critic sees the full (window, latent) pair, or the
      window only, in which case the feedbacks' latent columns are zero.

    critic_loss, eg_local_loss and error_feedbacks compute every
    objective in closed form over the critic's FeedForward layers, with
    no autodiff graph.
    """

    name: str
    value: str
    lipschitz: str
    joint: bool


OBJECTIVES = {o.name: o for o in (
    Objective("gan", "minimax", "none", joint=False),
    Objective("bigan", "minimax", "none", joint=True),
    Objective("wgan", "wasserstein", "clip", joint=False),
    Objective("wgan_gp", "wasserstein", "penalty", joint=False),
    Objective("biwgan_gp", "wasserstein", "penalty", joint=True),
)}
BIWGAN_GP = OBJECTIVES["biwgan_gp"]
WEIGHT_CLIP = 0.01


def get_objective(name) -> Objective:
    if name not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {name!r}; valid objectives are {', '.join(OBJECTIVES)}"
        )
    return OBJECTIVES[name]


# ---------------------------------------------------------------------------
# models


def _head_grads(head: Dense, grads, g, x):
    """A time-major dense head's parameter gradients from the cotangent g
    at its output over [T, batch, in] rows x. The bias sums g over time
    and batch at once, the order of the engine's broadcast reduction;
    add_grads' two-stage sum would differ in the last bit."""
    head.add_grads(grads, g, x, bias=False)
    grads[f"{head.name}/bias"] = g.sum(axis=(0, 1))


class GeneratorModel:
    """Two VLSTM layers and a linear dense head; maps latent vectors to
    fake windows [batch, window, features]. The latent vector is fed as
    the cell input at every time step; the layers and the head run
    time-major. Forward and backward are numpy, as FeedForward's are."""

    def __init__(self, cfg: ModelConfig, rng):
        self.cfg = cfg
        h1, h2 = cfg.gen_hidden
        self.lstm1 = VlstmCell(cfg.latent_dim, h1, rng, name="g/lstm1")
        self.lstm2 = VlstmCell(h1, h2, rng, name="g/lstm2")
        self.head = Dense(h2, cfg.features, "linear", rng, name="g/head")

    def __call__(self, z, keep=False):
        """Fake windows from [batch, latent] noise, and backward's tape
        (None without keep)."""
        if z.ndim != 2 or z.shape[1] != self.cfg.latent_dim:
            raise ShapeError(
                f"generator expects [batch, {self.cfg.latent_dim}] noise, got {z.shape}"
            )
        h1, tape1 = self.lstm1(z, steps=self.cfg.window, keep=keep)
        h2, tape2 = self.lstm2(h1, keep=keep)
        return self.head.forward(h2).swapaxes(0, 1), ((tape1, tape2, h2) if keep else None)

    def backward(self, tape, cot, grads):
        """Write into grads, under params()' names, the parameter gradients
        of a cotangent [batch, window, features] at the output."""
        tape1, tape2, h2 = tape
        g = cot.swapaxes(0, 1)
        _head_grads(self.head, grads, g, h2)
        g = self.lstm2.backward(tape2, g @ self.head.weights, grads)
        self.lstm1.backward(tape1, g, grads, input_grad=False)

    def params(self):
        out = {}
        out.update(self.lstm1.params())
        out.update(self.lstm2.params())
        out.update(self.head.params())
        return out


class EncoderModel:
    """Mirror of the generator in fully reverse order: a linear dense
    layer per step, then two VLSTM layers, all time-major; the final hidden
    state is the latent representation. Forward and backward are numpy."""

    def __init__(self, cfg: ModelConfig, rng):
        self.cfg = cfg
        h1, h2 = cfg.gen_hidden
        self.head = Dense(cfg.features, h2, "linear", rng, name="e/head")
        self.lstm1 = VlstmCell(h2, h1, rng, name="e/lstm1")
        self.lstm2 = VlstmCell(h1, cfg.latent_dim, rng, name="e/lstm2")

    def __call__(self, x, keep=False):
        """Latents [batch, latent] of [batch, window, features] windows,
        and backward's tape (None without keep)."""
        shape = x.shape
        if len(shape) != 3 or shape[1] != self.cfg.window or shape[2] != self.cfg.features:
            raise ShapeError(
                f"encoder expects [batch, {self.cfg.window}, {self.cfg.features}] "
                f"windows, got {shape}"
            )
        steps = x.swapaxes(0, 1)
        h1, tape1 = self.lstm1(self.head.forward(steps), keep=keep)
        h2, tape2 = self.lstm2(h1, keep=keep)
        # a copy, so the latents do not keep every step's states alive
        return h2[-1].copy(), ((steps, tape1, tape2) if keep else None)

    def backward(self, tape, cot, grads):
        """Write into grads, under params()' names, the parameter gradients
        of a cotangent [batch, latent] at the output, which reaches the
        last step's hidden state only."""
        steps, tape1, tape2 = tape
        g = np.zeros((len(steps), *cot.shape))
        g[-1] = cot
        g = self.lstm1.backward(tape1, self.lstm2.backward(tape2, g, grads), grads)
        _head_grads(self.head, grads, g, steps)

    def params(self):
        out = {}
        out.update(self.head.params())
        out.update(self.lstm1.params())
        out.update(self.lstm2.params())
        return out


class CriticModel:
    """Three dense layers scoring one scalar per example, shaped by the
    objective: they read flattened joint pairs, or windows alone for a
    window-only objective, and end in a sigmoid (probability) head for a
    minimax value and a linear one, the Wasserstein critic's, otherwise.
    With [N, out, in] weights and [N, 1, out] biases it is a stack of N
    critics over [N, M, in] rows."""

    def __init__(self, cfg: ModelConfig, rng, objective: Objective = BIWGAN_GP, name="d"):
        self.cfg = cfg
        self.input_dim = cfg.pair_dim if objective.joint else cfg.window * cfg.features
        c1, c2 = cfg.critic_hidden
        head = "sigmoid" if objective.value == "minimax" else "linear"
        self.net = FeedForward(
            [self.input_dim, c1, c2, 1], ["tanh", "tanh", head], rng, name=name
        )

    def raw_output(self, u):
        """The head's pre-activation [..., 1] on array rows u, whatever
        the head (used by Eq-28-style probability scoring)."""
        x = u
        for layer in self.net.layers[:-1]:
            x = layer.forward(x)
        last = self.net.layers[-1]
        return x @ last.weights.mT + last.bias

    def params(self):
        return self.net.params()


# ---------------------------------------------------------------------------
# critic rows


def pair_rows(windows, latent) -> np.ndarray:
    """Flat critic rows of (window, latent) pairs in the fixed order: the
    window row-major, then the latent vector. [..., M, t, features]
    windows and [..., M, latent_dim] latents give [..., M, pair_dim] rows."""
    latent = np.asarray(latent, dtype=np.float64)
    return np.concatenate([np.reshape(windows, latent.shape[:-1] + (-1,)), latent], axis=-1)


def interpolate(real, fake, eps) -> np.ndarray:
    """Rows eps * real + (1 - eps) * fake, one weight per row: [..., M]
    weights for [..., M, width] rows."""
    eps = np.asarray(eps, dtype=np.float64)
    if np.any(eps < 0) or np.any(eps > 1):
        raise ValueError("interpolation epsilon must lie in [0, 1]")
    if real.shape != fake.shape or eps.shape != real.shape[:-1]:
        raise ShapeError(f"cannot interpolate {real.shape} and {fake.shape} rows "
                         f"with {eps.shape} weights")
    e = eps[..., None]
    return e * real + (1 - e) * fake


# ---------------------------------------------------------------------------
# losses


@dataclass
class CriticLossResult:
    """Loss, penalty and parameter gradients of one critic step; a stacked
    critic's value and penalty are [N] arrays."""

    value: float
    penalty: float
    param_grads: dict


def critic_loss(d: CriticModel, real, fake, eps, eta,
                objective: Objective = BIWGAN_GP) -> CriticLossResult:
    """The minimized critic objective -value, plus for "penalty"
    objectives eta * mean[(‖∇D(interp)‖ - 1)²], on flat real and fake
    pair rows [..., M, pair_dim] with interpolation weights [..., M]. A
    critic stacked over [N, M, pair_dim] rows gets one value and one
    penalty per member. Closed form over the critic's layers: the value
    backpropagated by hand, and the penalty from nn.gradient_penalty."""
    value, outs, cot = _eg_forward(d, real, fake, objective)
    grads = {}
    d.net.backward(outs, -cot, grads)
    loss, penalty = -value, 0.0
    if objective.lipschitz == "penalty":
        penalty = gradient_penalty(d.net, interpolate(*outs[0], eps), eta, grads)
        loss = loss + penalty
    return CriticLossResult(value=loss, penalty=penalty, param_grads=grads)


def _eg_forward(d: CriticModel, real, fake, objective: Objective):
    """One critic forward over the real and fake rows stacked on a new
    leading axis: the objective's value, the forward's outputs, and the
    value's cotangent at the critic outputs."""
    if real.shape != fake.shape:
        raise ShapeError(f"real rows {real.shape} and fake rows {fake.shape} differ")
    if real.shape[-2] == 0:
        raise ValueError("empty batch")
    # a window-only critic reads the window columns alone
    width = real.shape[-1] if objective.joint else d.net.layers[0].in_dim
    rows = np.stack([real[..., :width], fake[..., :width]])
    if not np.all(np.isfinite(rows)):
        raise ValueError("critic rows must be finite (NaN/Inf rejected)")
    outs = d.net.forward(rows)
    d_real, d_fake = outs[-1]
    scale = 1.0 / real.shape[-2]  # the mean over each critic's [M, 1] outputs
    if objective.value == "wasserstein":
        cot = np.empty(outs[-1].shape)
        cot[0], cot[1] = scale, -scale
        return (d_real - d_fake).sum(axis=(-2, -1)) * scale, outs, cot
    value = (np.log(d_real).sum(axis=(-2, -1)) * scale
             + np.log(1.0 - d_fake).sum(axis=(-2, -1)) * scale)
    return value, outs, np.stack([scale * (1.0 / d_real), -(scale * (1.0 / (1.0 - d_fake)))])


def eg_local_loss(d: CriticModel, real, fake, objective: Objective = BIWGAN_GP):
    """The objective's value on flat pair rows, e.g. mean D(real) - D(fake):
    a float for one critic, an [N] array for a stacked one."""
    return _eg_forward(d, real, fake, objective)[0]


def error_feedbacks(d: CriticModel, real, fake, objective: Objective = BIWGAN_GP):
    """Per-example gradients of the local EG loss w.r.t. the critic's
    inputs: (F_E rows for real pairs, F_G rows for fake pairs), each shaped
    like the flat pair rows [..., M, window*features + latent_dim]. A
    window-only critic's rows are zero in the latent columns."""
    g = d.net.backward(*_eg_forward(d, real, fake, objective)[1:])
    if not objective.joint:
        g = np.concatenate([g, np.zeros(g.shape[:-1] + (real.shape[-1] - g.shape[-1],))], axis=-1)
    return g[0], g[1]
