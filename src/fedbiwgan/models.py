"""BiWGAN-GP generator, encoder and critic, their losses and error
feedbacks, for BiWGAN-GP and the four GAN-family objectives it is compared
against.

The critic scores flattened joint pairs: the data window row-major first,
then the latent vector. That flattening order is fixed; packets, feedbacks
and checkpoints all rely on it.
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
    the cell input at every time step."""

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
        batch = z.data.shape[0]
        h1 = c1 = ad.zeros((batch, self.lstm1.hidden_dim))
        h2 = c2 = ad.zeros((batch, self.lstm2.hidden_dim))
        steps = []
        for _ in range(self.cfg.window):
            h1, c1 = self.lstm1.step(z, h1, c1)
            h2, c2 = self.lstm2.step(h1, h2, c2)
            out = self.head(h2)
            steps.append(ad.reshape(out, (batch, 1, self.cfg.features)))
        return ad.concat(steps, axis=1)

    def params(self):
        out = {}
        out.update(self.lstm1.params())
        out.update(self.lstm2.params())
        out.update(self.head.params())
        return out


class EncoderModel:
    """Mirror of the generator in fully reverse order: a linear dense
    layer per step, then two VLSTM layers; the final hidden state is the
    latent representation."""

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
        batch = shape[0]
        h1 = c1 = ad.zeros((batch, self.lstm1.hidden_dim))
        h2 = c2 = ad.zeros((batch, self.lstm2.hidden_dim))
        for step in range(self.cfg.window):
            x_step = ad.reshape(
                ad.narrow(x, 1, step, 1), (batch, self.cfg.features)
            )
            u = self.head(x_step)
            h1, c1 = self.lstm1.step(u, h1, c1)
            h2, c2 = self.lstm2.step(h1, h2, c2)
        return h2

    def params(self):
        out = {}
        out.update(self.head.params())
        out.update(self.lstm1.params())
        out.update(self.lstm2.params())
        return out


class CriticModel:
    """Three dense layers scoring a flattened joint pair with one scalar
    per example. head_mode 'linear' is the Wasserstein critic; 'sigmoid'
    reproduces a probability head."""

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
# joint pairs


@dataclass
class JointPair:
    """A batch of (window, latent) pairs with a declared provenance."""

    data_part: np.ndarray  # [batch, window, features]
    latent_part: np.ndarray  # [batch, latent_dim]
    provenance: str  # real | fake | interpolated

    def __post_init__(self):
        self.data_part = np.asarray(self.data_part, dtype=np.float64)
        self.latent_part = np.asarray(self.latent_part, dtype=np.float64)
        if self.provenance not in ("real", "fake", "interpolated"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.data_part.shape[0] != self.latent_part.shape[0]:
            raise ShapeError("data/latent batch sizes differ")
        if not (np.all(np.isfinite(self.data_part)) and np.all(np.isfinite(self.latent_part))):
            raise ValueError("joint pair entries must be finite")

    @property
    def batch(self):
        return self.data_part.shape[0]

    def flat(self):
        """Row-major window first, then latent vector."""
        b = self.batch
        return np.concatenate(
            [self.data_part.reshape(b, -1), self.latent_part], axis=1
        )


def generate(g: GeneratorModel, z) -> np.ndarray:
    with ad.no_record():
        return g(ad.tensor(np.asarray(z, dtype=np.float64))).data


def encode(e: EncoderModel, x) -> np.ndarray:
    with ad.no_record():
        return e(ad.tensor(np.asarray(x, dtype=np.float64))).data


def interpolate(real: JointPair, fake: JointPair, eps) -> JointPair:
    eps = np.asarray(eps, dtype=np.float64)
    if np.any(eps < 0) or np.any(eps > 1):
        raise ValueError("interpolation epsilon must lie in [0, 1]")
    if real.data_part.shape != fake.data_part.shape:
        raise ShapeError("real/fake shapes differ")
    e_data = eps.reshape(-1, *([1] * (real.data_part.ndim - 1)))
    e_lat = eps.reshape(-1, *([1] * (real.latent_part.ndim - 1)))
    return JointPair(
        data_part=e_data * real.data_part + (1 - e_data) * fake.data_part,
        latent_part=e_lat * real.latent_part + (1 - e_lat) * fake.latent_part,
        provenance="interpolated",
    )


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


def _critic_input(pair: JointPair, objective: Objective) -> np.ndarray:
    """The rows a critic of this objective scores: the flattened pair, or
    the flattened window alone."""
    return pair.flat() if objective.joint else pair.data_part.reshape(pair.batch, -1)


# ---------------------------------------------------------------------------
# losses


@dataclass
class CriticLossResult:
    value: float
    penalty: float
    param_grads: dict


def critic_loss(d: CriticModel, real: JointPair, fake: JointPair, eps, eta,
                objective: Objective = BIWGAN_GP) -> CriticLossResult:
    """The minimized critic objective -value, plus for "penalty"
    objectives eta * mean[(‖∇D(interp)‖ - 1)²]."""
    if real.batch == 0:
        raise ValueError("empty batch")
    if real.batch != fake.batch:
        raise ShapeError("real/fake batch sizes differ")
    value, _, _ = _eg_graph(d, real, fake, objective)
    loss = ad.neg(value)
    penalty = 0.0
    if objective.lipschitz == "penalty":
        x_hat = _critic_input(interpolate(real, fake, eps), objective)
        penalty_t = gradient_penalty(d, x_hat, eta)
        loss = ad.add(loss, penalty_t)
        penalty = float(penalty_t.data)
    params = d.params()
    names = list(params)
    grads = ad.grad(loss, [params[k] for k in names])
    return CriticLossResult(
        value=float(loss.data),
        penalty=penalty,
        param_grads={k: g.data for k, g in zip(names, grads)},
    )


def _eg_graph(d: CriticModel, real: JointPair, fake: JointPair, objective: Objective):
    u_real = ad.tensor(_critic_input(real, objective), requires_grad=True)
    u_fake = ad.tensor(_critic_input(fake, objective), requires_grad=True)
    if objective.value == "wasserstein":
        value = ad.tmean(ad.sub(d(u_real), d(u_fake)))
    else:
        value = ad.add(
            ad.tmean(ad.log(d(u_real))),
            ad.tmean(ad.log(ad.sub(ad.constant(1.0), d(u_fake)))),
        )
    return value, u_real, u_fake


def eg_local_loss(d: CriticModel, real: JointPair, fake: JointPair,
                  objective: Objective = BIWGAN_GP) -> float:
    """The objective's value on the batch, e.g. mean D(real) - D(fake)."""
    if real.batch == 0:
        raise ValueError("empty batch")
    with ad.no_record():
        value, _, _ = _eg_graph(d, real, fake, objective)
    return float(value.data)


def error_feedbacks(d: CriticModel, real: JointPair, fake: JointPair,
                    objective: Objective = BIWGAN_GP):
    """Per-example gradients of the local EG loss w.r.t. the critic's
    inputs: (F_E rows for real pairs, F_G rows for fake pairs), each
    [batch, window*features + latent_dim] in flattening order. A
    window-only critic's rows are zero in the latent columns."""
    if real.batch == 0:
        raise ValueError("empty batch")
    value, u_real, u_fake = _eg_graph(d, real, fake, objective)
    g_real, g_fake = ad.grad(value, [u_real, u_fake])
    if objective.joint:
        return g_real.data, g_fake.data
    zeros = np.zeros_like(real.latent_part)
    return (np.concatenate([g_real.data, zeros], axis=1),
            np.concatenate([g_fake.data, zeros], axis=1))
