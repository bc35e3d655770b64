"""Neural-network building blocks: dense layers, vanilla LSTM cells and
feedforward stacks, each with a numpy forward and backward that training
and scoring run; the closed-form gradient penalty, Adam, and a
finite-difference gradient oracle.

`Dense` and `FeedForward` also build autodiff graphs when called on a
Tensor, and `as_node` makes a cell's, generator's or encoder's numpy
forward and backward one graph node: the first-order engine is the
reference that gradcheck and the acceptance gate differentiate through.

All parameters are float64 leaf tensors; weight init is uniform in
[-1/sqrt(fan_in), +1/sqrt(fan_in)] from a caller-supplied RNG so runs are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

ACTIVATIONS = ("linear", "sigmoid", "tanh")


class ShapeError(ValueError):
    """Raised when tensor dimensions do not match a layer's expectation."""


def _activate(x, activation):
    if activation == "linear":
        return x
    if activation == "sigmoid":
        return ad.sigmoid(x)
    if activation == "tanh":
        return ad.tanh(x)
    raise ValueError(f"unknown activation {activation!r}; expected one of {ACTIVATIONS}")


def _slope(activation, a):
    """σ′ in the output a, as the engine's backward writes it; None if linear."""
    if activation == "linear":
        return None
    return 1.0 - a * a if activation == "tanh" else a * (1.0 - a)


def _accumulate(grads, key, g, ndim):
    """grads[key] += g, with g first summed over leading axes beyond ndim
    (the axes a parameter was broadcast over)."""
    if g.ndim > ndim:
        g = g.sum(axis=tuple(range(g.ndim - ndim)))
    if key in grads:
        grads[key] += g
    else:
        grads[key] = g


def _affine(a, w, b, out):
    """a @ w.T + b written into out, bit for bit as Dense's affine map."""
    np.matmul(a, w.mT, out=out)
    out += b
    return out


def _sigmoid(x):
    """ad.sigmoid's 1 / (1 + exp(-x)), bit for bit, in place."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def _init_weight(rng, out_dim, in_dim):
    limit = 1.0 / np.sqrt(in_dim)
    return ad.tensor(rng.uniform(-limit, limit, (out_dim, in_dim)), requires_grad=True)


class Dense:
    """Fully connected layer y = act(x @ W.T + b), weights shaped [out, in]."""

    def __init__(self, in_dim, out_dim, activation="linear", rng=None, name="dense"):
        if activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; expected one of {ACTIVATIONS}"
            )
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.name = name
        self.weights = _init_weight(rng, out_dim, in_dim)
        self.bias = ad.tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.shape[-1] != self.in_dim:
            raise ShapeError(
                f"{self.name}: input has inner dimension {x.data.shape[-1]}, "
                f"layer expects {self.in_dim} (weights {self.weights.data.shape})"
            )
        return _activate(ad.add(ad.matmul(x, ad.transpose(self.weights)), self.bias),
                         self.activation)

    def forward(self, x):
        """__call__'s arithmetic on an array, with no graph."""
        z = x @ self.weights.data.mT + self.bias.data
        if self.activation == "tanh":
            return np.tanh(z, out=z)
        return _sigmoid(z) if self.activation == "sigmoid" else z

    def add_grads(self, grads, dz, x, bias=True):
        """Add into grads, under params()' names, the gradients of a
        cotangent dz at x @ W.T + b: dz.T @ x for W and, with bias, dz
        summed over the rows for b."""
        w_key, b_key = self.params()
        _accumulate(grads, w_key, dz.mT @ x, self.weights.data.ndim)
        if bias:
            b = self.bias.data
            _accumulate(grads, b_key, dz.sum(axis=-2, keepdims=b.ndim > 1), b.ndim)

    def params(self):
        return {f"{self.name}/weights": self.weights, f"{self.name}/bias": self.bias}


class VlstmCell:
    """Vanilla LSTM cell.

    Gate inputs follow the concatenations of the governing recurrence:
    input and forget gates see [y, h_prev, c_prev], the cell candidate
    sees [y, h_prev], and the output gate sees [y, h_prev, c_cur].
    """

    def __init__(self, in_dim, hidden_dim, rng=None, name="vlstm"):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.name = name
        wide = in_dim + 2 * hidden_dim
        slim = in_dim + hidden_dim
        self.w_i = _init_weight(rng, hidden_dim, wide)
        self.w_f = _init_weight(rng, hidden_dim, wide)
        self.w_z = _init_weight(rng, hidden_dim, slim)
        self.w_o = _init_weight(rng, hidden_dim, wide)
        self.b_i = ad.tensor(np.zeros(hidden_dim), requires_grad=True)
        self.b_f = ad.tensor(np.zeros(hidden_dim), requires_grad=True)
        self.b_z = ad.tensor(np.zeros(hidden_dim), requires_grad=True)
        self.b_o = ad.tensor(np.zeros(hidden_dim), requires_grad=True)

    def __call__(self, x, steps=None, keep=False):
        """Hidden states [T, batch, hidden] from zero state, over time-major
        inputs x [T, batch, in], or over one [batch, in] input fed at each
        of `steps` steps, and backward's tape: every step's gates and gate
        inputs with keep, else None, one step's buffers being reused."""
        if x.ndim != (3 if steps is None else 2) or x.shape[-1] != self.in_dim:
            raise ShapeError(
                f"{self.name}: expected {'[T, batch' if steps is None else '[batch'}, "
                f"{self.in_dim}] input, got {x.shape}"
            )
        n, hid = self.in_dim, self.hidden_dim
        w_i, b_i, w_f, b_f, w_z, b_z, w_o, b_o = (p.data for p in (
            self.w_i, self.b_i, self.w_f, self.b_f, self.w_z, self.b_z, self.w_o, self.b_o))
        T = len(x) if steps is None else steps
        batch = x.shape[-2]
        # time-major caches for the backward; one reused step when forward only
        cached = T if keep else 1
        a_in = np.zeros((cached, batch, n + 2 * hid))  # [y, h_prev, c_prev]
        # [y, h_prev, c]; forward only, c overwrites c_prev in place
        a_out = np.empty_like(a_in) if keep else a_in
        # i, f, z, o, tanh(c); forward only, o and tanh(c) reuse i and f
        gates = np.empty((5 if keep else 3, cached, batch, hid))
        hs = np.empty((T, batch, hid))
        for t in range(T):
            k = t if keep else 0
            a = a_in[k]
            a[:, :n] = x if steps is not None else x[t]
            if t:
                a[:, n:n + hid] = hs[t - 1]
                a[:, n + hid:] = c
            gate_i, gate_f, cand = gates[:3, k]
            _sigmoid(_affine(a, w_i, b_i, gate_i))
            _sigmoid(_affine(a, w_f, b_f, gate_f))
            np.tanh(_affine(a[:, :n + hid], w_z, b_z, cand), out=cand)
            c = gate_f * a[:, n + hid:] + gate_i * cand
            if keep:
                gate_o, tanh_c = gates[3:, t]
                a_out[t, :, :n + hid] = a[:, :n + hid]
            else:
                gate_o, tanh_c = gate_i, gate_f
            a_out[k, :, n + hid:] = c
            _sigmoid(_affine(a_out[k], w_o, b_o, gate_o))
            np.multiply(gate_o, np.tanh(c, out=tanh_c), out=hs[t])
        return hs, ((a_in, a_out, gates, steps) if keep else None)

    def backward(self, tape, g, grads, input_grad=True):
        """BPTT from a cotangent g [T, batch, hidden] at the hidden states
        of a forward kept on tape: writes the parameter gradients into
        grads under params()' names, the weights' as matmuls over all
        T*batch rows at once, and returns the input's cotangent (None
        without input_grad)."""
        a_in, a_out, gates, steps = tape
        n, hid = self.in_dim, self.hidden_dim
        T, batch = a_in.shape[:2]
        w_i, w_f, w_z, w_o = (p.data for p in (self.w_i, self.w_f, self.w_z, self.w_o))
        gate_i, gate_f, cand, gate_o, tanh_c = gates
        # what dc gives the i, f, z pre-activations, and what dh gives
        # the o pre-activation and c, at every step at once
        dc_to_ifz = np.stack([cand * gate_i * (1.0 - gate_i),
                              a_in[..., n + hid:] * gate_f * (1.0 - gate_f),
                              gate_i * (1.0 - cand * cand)], axis=2)
        dh_to_o = tanh_c * gate_o * (1.0 - gate_o)
        dh_to_c = gate_o * (1.0 - tanh_c * tanh_c)
        w_if = np.concatenate([w_i, w_f])
        d_pre = np.empty((T, batch, 4, hid))  # pre-activation i, f, z, o
        dx = None
        if input_grad:
            dx = np.zeros((T, batch, n) if steps is None else (batch, n))
        dh_next = dc_next = 0.0
        for t in reversed(range(T)):
            dh = g[t] + dh_next
            d_o = np.multiply(dh, dh_to_o[t], out=d_pre[t, :, 3])
            d_out = d_o @ w_o
            dc = dc_next + dh * dh_to_c[t] + d_out[:, n + hid:]
            np.multiply(dc[:, None], dc_to_ifz[t], out=d_pre[t, :, :3])
            d_in = d_pre[t, :, :2].reshape(batch, 2 * hid) @ w_if
            d_yh = d_in[:, :n + hid] + d_pre[t, :, 2] @ w_z + d_out[:, :n + hid]
            dh_next = d_yh[:, n:]
            dc_next = dc * gate_f[t] + d_in[:, n + hid:]
            if dx is not None and steps is None:
                dx[t] = d_yh[:, :n]
            elif dx is not None:
                dx += d_yh[:, :n]
        rows = d_pre.reshape(T * batch, 4 * hid)
        wide_in = a_in.reshape(T * batch, -1)
        g_if = rows[:, :2 * hid].T @ wide_in
        g_b = rows.sum(axis=0).reshape(4, hid)
        grads.update(zip(self.params(), (
            g_if[:hid], g_b[0], g_if[hid:], g_b[1],
            rows[:, 2 * hid:3 * hid].T @ wide_in[:, :n + hid], g_b[2],
            rows[:, 3 * hid:].T @ a_out.reshape(T * batch, -1), g_b[3])))
        return dx

    def params(self):
        return {
            f"{self.name}/w_i": self.w_i, f"{self.name}/b_i": self.b_i,
            f"{self.name}/w_f": self.w_f, f"{self.name}/b_f": self.b_f,
            f"{self.name}/w_z": self.w_z, f"{self.name}/b_z": self.b_z,
            f"{self.name}/w_o": self.w_o, f"{self.name}/b_o": self.b_o,
        }


def as_node(model, x: Tensor, **kwargs) -> Tensor:
    """A VlstmCell, GeneratorModel or EncoderModel called on a Tensor as
    one graph node: the model's numpy forward, whose backward is the
    model's own. gradcheck and the tests differentiate these models
    through the engine this way."""
    params = model.params()
    out, tape = model(x.data, keep=True, **kwargs)

    def bwd(g):
        grads = {}
        dx = model.backward(tape, g, grads)
        return (dx, *(grads[k] for k in params))

    return Tensor(out, (x, *params.values()), bwd)


class FeedForward:
    """A stack of dense layers; the critic architecture."""

    def __init__(self, dims, activations, rng=None, name="ff"):
        if len(dims) - 1 != len(activations):
            raise ValueError("need one activation per layer")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.name = name
        self.layers = [
            Dense(dims[i], dims[i + 1], activations[i], rng, name=f"{name}/layer{i}")
            for i in range(len(activations))
        ]

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def forward(self, x):
        """Every layer's output on [..., rows, in] rows x, with no graph:
        [x, a_1, ..., a_L]. A stack of N nets reads [..., N, rows, in]."""
        if x.shape[-1] != self.layers[0].in_dim:
            raise ShapeError(f"{self.name}: input has inner dimension {x.shape[-1]}, "
                             f"expected {self.layers[0].in_dim}")
        outs = [x]
        for layer in self.layers:
            outs.append(layer.forward(outs[-1]))
        return outs

    def backward(self, outs, cotangent, grads=None, pre=None):
        """Reverse pass over forward's outs from a cotangent at the output
        (None for zero) plus pre[l], where given, at layer l's
        pre-activation. With a grads dict, adds the parameter gradients
        into it and returns None; without, returns the input cotangent."""
        g = cotangent
        for l in reversed(range(len(self.layers))):
            layer = self.layers[l]
            if g is not None and layer.activation != "linear":
                g = g * _slope(layer.activation, outs[l + 1])
            if pre is not None and pre[l] is not None:
                g = pre[l] if g is None else g + pre[l]
            if g is None:
                continue
            if grads is not None:
                layer.add_grads(grads, g, outs[l])
                if l == 0:
                    return None
            g = g @ layer.weights.data
        return g

    def params(self):
        out = {}
        for layer in self.layers:
            out.update(layer.params())
        return out


def gradient_penalty(net, x_hat, eta, grads):
    """Penalty eta*mean((‖g‖₂ - 1)²) over the rows of x_hat, g being the
    gradient of the FeedForward net's output at a row, with d‖g‖/dg := 0
    at g = 0; its parameter gradients are added into grads. The mean runs
    over the row axis, so a stack of critics over [N, M, in] rows gets one
    penalty per member. Closed form: g is backpropagated by hand, and the
    penalty reaches the parameters along g's backward chain (through each
    activation's σ′ and σ″), then back through the forward pass."""
    if eta < 0:
        raise ValueError("penalty coefficient must be non-negative")
    layers, outs = net.layers, net.forward(np.asarray(x_hat, dtype=np.float64))
    slopes = [_slope(layer.activation, a) for layer, a in zip(layers, outs[1:])]
    # g from ones at the output; seeds[l] is its cotangent at layer l's
    # pre-activation
    seeds, g = [None] * len(layers), np.ones(outs[-1].shape)
    for l in reversed(range(len(layers))):
        seeds[l] = g if slopes[l] is None else g * slopes[l]
        g = seeds[l] @ layers[l].weights.data
    norm = np.sqrt((g * g).sum(axis=-1))
    gap, m = norm - 1.0, g.shape[-2]
    penalty = float(eta) * ((gap * gap).sum(axis=-1) * (1.0 / m))
    # d penalty / dg, taken as 0 on a row where g = 0
    cot = ((2.0 * eta / m) * gap / np.where(norm == 0.0, 1.0, norm))[..., None] * g
    pre = [None] * len(layers)  # what reaches each pre-activation through σ″
    for l, (layer, a, s) in enumerate(zip(layers, outs[1:], slopes)):
        layer.add_grads(grads, seeds[l], cot, bias=False)
        cot = cot @ layer.weights.data.mT  # at seeds[l]
        if s is not None:
            # σ″ is σ′ times -2a for tanh and 1 - 2a for sigmoid
            pre[l] = cot * seeds[l] * (-2.0 * a if layer.activation == "tanh" else 1.0 - 2.0 * a)
            cot = cot * s
    net.backward(outs, None, grads, pre)
    return penalty


def gradient_penalty_backward(critic, x_hat, eta):
    """The gradient penalty's value and its parameter gradients (zero for
    a parameter the input gradient does not depend on)."""
    grads = {}
    penalty = gradient_penalty(critic, x_hat, eta, grads)
    return float(penalty), {k: grads.get(k, np.zeros(p.data.shape))
                            for k, p in critic.params().items()}


# ---------------------------------------------------------------------------
# optimization


@dataclass
class AdamConfig:
    alpha: float = 1e-4
    beta1: float = 0.5
    beta2: float = 0.9
    epsilon: float = 1e-8

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass
class AdamState:
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)
    step_count: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(
            first_moment={k: np.zeros_like(_data(v)) for k, v in params.items()},
            second_moment={k: np.zeros_like(_data(v)) for k, v in params.items()},
            step_count=0,
        )


def _data(p):
    return p.data if isinstance(p, Tensor) else p


def adam_step(params, grads, state: AdamState, cfg: AdamConfig):
    """One bias-corrected Adam update, applied in place to params.

    Epsilon sits inside the square root: theta -= alpha * m_hat / sqrt(v_hat + eps).
    """
    state.step_count += 1
    t = state.step_count
    for key, p in params.items():
        g = np.asarray(grads[key], dtype=np.float64)
        arr = _data(p)
        if g.shape != arr.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {arr.shape} for {key}")
        m = state.first_moment[key]
        v = state.second_moment[key]
        m *= cfg.beta1
        m += (1 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1 - cfg.beta2) * g * g
        m_hat = m / (1 - cfg.beta1 ** t)
        v_hat = v / (1 - cfg.beta2 ** t)
        arr -= cfg.alpha * m_hat / np.sqrt(v_hat + cfg.epsilon)
    return params, state


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_difference_gradient(loss_fn, params, h=1e-5):
    """Central differences (L(p+h) - L(p-h)) / 2h per coordinate.

    `params` is a dict name -> array; `loss_fn(params) -> float` must be a
    pure function of the values.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    grads = {}
    for key, value in params.items():
        arr = np.array(_data(value), dtype=np.float64)
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = _eval_loss(loss_fn, params, key, arr)
            flat[i] = orig - h
            down = _eval_loss(loss_fn, params, key, arr)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads[key] = g
    return grads


def _eval_loss(loss_fn, params, key, perturbed):
    probe = {k: (perturbed if k == key else _data(v)) for k, v in params.items()}
    value = float(loss_fn(probe))
    if not np.isfinite(value):
        raise ValueError(f"loss is non-finite while perturbing {key}")
    return value
