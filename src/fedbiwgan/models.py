"""BiWGAN-GP generator, encoder and critic, their losses and error
feedbacks, for BiWGAN-GP and the four GAN-family objectives it is compared
against.

The critic scores flattened joint pairs (`pair_rows`): the data window
row-major first, then the latent vector. That flattening order is fixed;
packets, feedbacks and checkpoints all rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import Dense, FeedForward, ShapeError, VlstmCell, gradient_penalty


@dataclass
class ModelConfig:
    """Architecture hyperparameters shared by all nodes of a run."""

    features: int = 26
    window: int = 8
    latent_dim: int = 16
    gen_hidden: tuple = (32, 32)
    critic_hidden: tuple = (64, 32)
    head_mode: str = "linear"  # "linear" (Wasserstein critic) or "sigmoid"

    def __post_init__(self):
        if self.head_mode not in ("linear", "sigmoid"):
            raise ValueError("head_mode must be 'linear' or 'sigmoid'")

    @property
    def pair_dim(self):
        return self.window * self.features + self.latent_dim

    def to_dict(self):
        return {
            "features": self.features,
            "window": self.window,
            "latent_dim": self.latent_dim,
            "gen_hidden": list(self.gen_hidden),
            "critic_hidden": list(self.critic_hidden),
            "head_mode": self.head_mode,
        }

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["gen_hidden"] = tuple(d.get("gen_hidden", (32, 32)))
        d["critic_hidden"] = tuple(d.get("critic_hidden", (64, 32)))
        return cls(**d)


@dataclass
class NoiseSpec:
    """Latent prior: standard normal by default, or uniform[-1, 1]."""

    distribution: str = "normal"
    latent_dim: int = 16

    def __post_init__(self):
        if self.distribution not in ("normal", "uniform"):
            raise ValueError("noise distribution must be 'normal' or 'uniform'")

    def sample(self, rng, batch):
        if self.distribution == "normal":
            return rng.standard_normal((batch, self.latent_dim))
        return rng.uniform(-1.0, 1.0, (batch, self.latent_dim))


class GeneratorModel:
    """Two VLSTM layers and a linear dense head; maps latent vectors to
    fake windows [batch, window, features]. The latent vector is fed as
    the cell input at every time step; the layers and the head run
    time-major."""

    def __init__(self, cfg: ModelConfig, rng):
        self.cfg = cfg
        h1, h2 = cfg.gen_hidden
        self.lstm1 = VlstmCell(cfg.latent_dim, h1, rng, name="g/lstm1")
        self.lstm2 = VlstmCell(h1, h2, rng, name="g/lstm2")
        self.head = Dense(h2, cfg.features, "linear", rng, name="g/head")

    def __call__(self, z: Tensor) -> Tensor:
        if z.data.ndim != 2 or z.data.shape[1] != self.cfg.latent_dim:
            raise ShapeError(
                f"generator expects [batch, {self.cfg.latent_dim}] noise, got {z.data.shape}"
            )
        hidden = self.lstm2.sequence(self.lstm1.sequence(z, steps=self.cfg.window))
        return ad.swap_leading(self.head(hidden))

    def params(self):
        out = {}
        out.update(self.lstm1.params())
        out.update(self.lstm2.params())
        out.update(self.head.params())
        return out


class EncoderModel:
    """Mirror of the generator in fully reverse order: a linear dense
    layer per step, then two VLSTM layers, all time-major; the final hidden
    state is the latent representation."""

    def __init__(self, cfg: ModelConfig, rng):
        self.cfg = cfg
        h1, h2 = cfg.gen_hidden
        self.head = Dense(cfg.features, h2, "linear", rng, name="e/head")
        self.lstm1 = VlstmCell(h2, h1, rng, name="e/lstm1")
        self.lstm2 = VlstmCell(h1, cfg.latent_dim, rng, name="e/lstm2")

    def __call__(self, x: Tensor) -> Tensor:
        shape = x.data.shape
        if len(shape) != 3 or shape[1] != self.cfg.window or shape[2] != self.cfg.features:
            raise ShapeError(
                f"encoder expects [batch, {self.cfg.window}, {self.cfg.features}] "
                f"windows, got {shape}"
            )
        hidden = self.lstm2.sequence(self.lstm1.sequence(self.head(ad.swap_leading(x))))
        return ad.reshape(ad.narrow(hidden, 0, self.cfg.window - 1, 1), hidden.shape[1:])

    def params(self):
        out = {}
        out.update(self.head.params())
        out.update(self.lstm1.params())
        out.update(self.lstm2.params())
        return out


class CriticModel:
    """Three dense layers scoring a flattened joint pair with one scalar
    per example. head_mode 'linear' is the Wasserstein critic; 'sigmoid'
    reproduces a probability head. With [N, out, in] weights and
    [N, 1, out] biases it is a stack of N critics over [N, M, in] rows."""

    def __init__(self, cfg: ModelConfig, rng, input_dim=None, name="d"):
        self.cfg = cfg
        self.head_mode = cfg.head_mode
        in_dim = cfg.pair_dim if input_dim is None else input_dim
        self.input_dim = in_dim
        c1, c2 = cfg.critic_hidden
        head_act = "linear" if cfg.head_mode == "linear" else "sigmoid"
        self.net = FeedForward(
            [in_dim, c1, c2, 1], ["tanh", "tanh", head_act], rng, name=name
        )

    def __call__(self, u: Tensor) -> Tensor:
        if u.data.shape[-1] != self.input_dim:
            raise ShapeError(
                f"critic expects inner dimension {self.input_dim}, got {u.data.shape}"
            )
        return self.net(u)

    def raw_output(self, u: Tensor) -> Tensor:
        """Pre-sigmoid scalar, regardless of head_mode (used by Eq-28-style
        probability scoring)."""
        x = u
        for layer in self.net.layers[:-1]:
            x = layer(x)
        last = self.net.layers[-1]
        return ad.add(ad.matmul(x, ad.transpose(last.weights)), last.bias)

    def params(self):
        return self.net.params()


# ---------------------------------------------------------------------------
# critic rows


def generate(g: GeneratorModel, z) -> np.ndarray:
    with ad.no_record():
        return g(ad.tensor(np.asarray(z, dtype=np.float64))).data


def encode(e: EncoderModel, x) -> np.ndarray:
    with ad.no_record():
        return e(ad.tensor(np.asarray(x, dtype=np.float64))).data


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
# objectives


@dataclass(frozen=True)
class Objective:
    """A GAN-family objective for the split driver, fixed by three choices:

    - value: "wasserstein", mean D(real) - mean D(fake), or "minimax",
      mean log D(real) + mean log(1 - D(fake)) on a probability head. The
      critic maximizes it; the generator and encoder minimize it.
    - lipschitz: "penalty" (nn.gradient_penalty), "clip" (every critic
      weight clipped to +-WEIGHT_CLIP after each step) or "none".
    - joint: the critic sees the full (window, latent) pair, or the
      window only, in which case the feedbacks' latent columns are zero.
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


def _critic_input(d, rows, objective: Objective) -> np.ndarray:
    """The part of flat pair rows a critic of this objective scores: all of
    it, or the window columns alone."""
    return rows if objective.joint else np.ascontiguousarray(rows[..., :d.input_dim])


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
    penalty per member."""
    value, u_real, u_fake = _eg_graph(d, real, fake, objective)
    loss = ad.neg(value)
    penalty = 0.0
    if objective.lipschitz == "penalty":
        penalty_t = gradient_penalty(d, interpolate(u_real.data, u_fake.data, eps), eta)
        loss = ad.add(loss, penalty_t)
        penalty = penalty_t.data[()]
    params = d.params()
    names = list(params)
    grads = ad.grad(loss, [params[k] for k in names])
    return CriticLossResult(
        value=loss.data[()],
        penalty=penalty,
        param_grads={k: g.data for k, g in zip(names, grads)},
    )


def _eg_graph(d: CriticModel, real, fake, objective: Objective):
    if real.shape != fake.shape:
        raise ShapeError(f"real rows {real.shape} and fake rows {fake.shape} differ")
    if real.shape[-2] == 0:
        raise ValueError("empty batch")
    u_real = ad.tensor(_critic_input(d, real, objective), requires_grad=True)
    u_fake = ad.tensor(_critic_input(d, fake, objective), requires_grad=True)
    rows = (-2, -1)  # the mean over each critic's [M, 1] outputs
    if objective.value == "wasserstein":
        value = ad.tmean(ad.sub(d(u_real), d(u_fake)), axis=rows)
    else:
        value = ad.add(
            ad.tmean(ad.log(d(u_real)), axis=rows),
            ad.tmean(ad.log(ad.sub(ad.constant(1.0), d(u_fake))), axis=rows),
        )
    return value, u_real, u_fake


def eg_local_loss(d: CriticModel, real, fake, objective: Objective = BIWGAN_GP):
    """The objective's value on flat pair rows, e.g. mean D(real) - D(fake):
    a float for one critic, an [N] array for a stacked one."""
    with ad.no_record():
        value, _, _ = _eg_graph(d, real, fake, objective)
    return value.data[()]


def error_feedbacks(d: CriticModel, real, fake, objective: Objective = BIWGAN_GP):
    """Per-example gradients of the local EG loss w.r.t. the critic's
    inputs: (F_E rows for real pairs, F_G rows for fake pairs), each shaped
    like the flat pair rows [..., M, window*features + latent_dim]. A
    window-only critic's rows are zero in the latent columns."""
    value, u_real, u_fake = _eg_graph(d, real, fake, objective)
    g_real, g_fake = ad.grad(value, [u_real, u_fake])
    if objective.joint:
        return g_real.data, g_fake.data
    zeros = np.zeros(real.shape[:-1] + (real.shape[-1] - d.input_dim,))
    return (np.concatenate([g_real.data, zeros], axis=-1),
            np.concatenate([g_fake.data, zeros], axis=-1))
