import gc

import numpy as np
import pytest

from fedbiwgan import autodiff as ad
from fedbiwgan.nn import FeedForward, gradient_penalty


def _g(out, leaf, out_grad=None):
    return ad.grad(out, [leaf], out_grad=out_grad)[0].data


def test_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        ad.tensor([1.0, np.nan])
    with pytest.raises(ValueError):
        ad.tensor([np.inf])


def test_add_mul_grads():
    x = ad.tensor([2.0, 3.0], requires_grad=True)
    y = ad.tensor([5.0, 7.0], requires_grad=True)
    out = ad.tsum(ad.mul(ad.add(x, y), x))  # sum(x^2 + xy)
    gx, gy = (t.data for t in ad.grad(out, [x, y]))
    np.testing.assert_allclose(gx, 2 * x.data + y.data)
    np.testing.assert_allclose(gy, x.data)


def test_broadcast_grad_reduces():
    x = ad.tensor(np.ones((3, 4)), requires_grad=True)
    b = ad.tensor(np.arange(4.0), requires_grad=True)
    out = ad.tsum(ad.add(x, b))
    gb = _g(out, b)
    np.testing.assert_allclose(gb, np.full(4, 3.0))


def test_matmul_grad():
    a = ad.tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = ad.tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    out = ad.tsum(ad.matmul(a, b))
    ga, gb = (t.data for t in ad.grad(out, [a, b]))
    np.testing.assert_allclose(ga, np.ones((2, 4)) @ b.data.T)
    np.testing.assert_allclose(gb, a.data.T @ np.ones((2, 4)))


def test_unary_grads():
    x = ad.tensor([0.3, -1.2], requires_grad=True)
    np.testing.assert_allclose(
        _g(ad.tsum(ad.tanh(x)), x), 1 - np.tanh(x.data) ** 2)
    s = 1 / (1 + np.exp(-x.data))
    np.testing.assert_allclose(_g(ad.tsum(ad.sigmoid(x)), x), s * (1 - s))


def test_mean_axis():
    x = ad.tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    out = ad.tsum(ad.tmean(x, axis=0))
    np.testing.assert_allclose(_g(out, x), np.full((3, 4), 1 / 3))


def test_concat_narrow_roundtrip():
    a = ad.tensor(np.ones((2, 3)), requires_grad=True)
    b = ad.tensor(np.ones((2, 2)), requires_grad=True)
    cat = ad.concat([a, b], axis=1)
    out = ad.tsum(ad.mul(ad.narrow(cat, 1, 3, 2), ad.constant(5.0)))
    ga, gb = (t.data for t in ad.grad(out, [a, b]))
    np.testing.assert_allclose(ga, np.zeros((2, 3)))
    np.testing.assert_allclose(gb, np.full((2, 2), 5.0))


def test_reshape_grad():
    x = ad.tensor(np.arange(6.0), requires_grad=True)
    out = ad.tsum(ad.mul(ad.reshape(x, (2, 3)), ad.constant(2.0)))
    np.testing.assert_allclose(_g(out, x), np.full(6, 2.0))


def test_norm_zero_row_has_zero_grad():
    # the subgradient convention at the origin: a row whose input gradient
    # is 0 (every tanh unit saturated) adds nothing to the penalty's
    # parameter gradients, only its (0 - 1)² to the penalty's row mean
    w = np.array([[[1.0, 2.0, 0.5], [0.5, 1.0, 2.0]]])
    live, dead = np.array([[[0.3, -0.2, 0.1]]]), np.array([[[40.0, 40.0, 40.0]]])
    penalty, grads = _batched_penalty(np.concatenate([live, dead], axis=1), w)
    alone, grads_alone = _batched_penalty(live, w)
    assert penalty == pytest.approx((alone + 1.0) / 2, abs=1e-12)
    for key, g in grads.items():
        np.testing.assert_allclose(2 * g, grads_alone[key], rtol=1e-12, atol=1e-15)


def test_second_derivative_needs_create_graph():
    # the engine is first order: a gradient is a constant tensor, so
    # differentiating it again is refused, not answered with zeros
    x = ad.tensor([2.0], requires_grad=True)
    g1 = ad.grad(ad.tsum(ad.mul(ad.mul(x, x), x)), [x])[0]
    with pytest.raises(ValueError, match="does not require grad"):
        ad.grad(ad.tsum(g1), [x])


def test_first_order_gradient_holds_no_graph():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    g = ad.grad(ad.tsum(ad.tanh(ad.mul(x, x))), [x])[0]
    assert not g.requires_grad
    assert g.parents == ()


def test_no_record_restores_flag_after_error():
    x = ad.tensor([1.0], requires_grad=True)
    with pytest.raises(RuntimeError):
        with ad.no_record():
            assert not ad.mul(x, x).requires_grad
            raise RuntimeError("inside the block")
    assert ad.mul(x, x).requires_grad


def test_grad_requires_flag():
    x = ad.tensor([1.0])
    with pytest.raises(ValueError):
        ad.grad(ad.tsum(x), [x])


def test_grad_shape_check():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    out = ad.mul(x, x)
    with pytest.raises(ValueError):
        ad.grad(out, [x], out_grad=np.ones(3))


def test_disconnected_leaf_gets_zeros():
    x = ad.tensor([1.0], requires_grad=True)
    y = ad.tensor([2.0], requires_grad=True)
    out = ad.tsum(ad.mul(x, x))
    g = ad.grad(out, [y])[0]
    np.testing.assert_array_equal(g.data, [0.0])


# ---------------------------------------------------------------------------
# stacked (batched) matrices: a leading axis of N independent problems


def _numeric_grad(f, x, h=1e-6):
    """Central differences of the scalar f over every entry of x."""
    g = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        g[i] = (f(up) - f(down)) / (2 * h)
    return g


def _value(fn, *arrays):
    return float(fn(*(ad.tensor(a) for a in arrays)).data)


def _batched_layer(u, w):
    """sum(tanh(u @ w^T)) over [N, M, D] rows and [N, O, D] weights."""
    return ad.tsum(ad.tanh(ad.matmul(u, ad.transpose(w))))


def _batched_penalty(u, w):
    """The closed-form gradient penalty (eta = 1) of D(u) = sum(tanh(u @
    w^T)) over [N, M, D] rows, as a stack of N two-layer critics: the sum
    of the members' penalties, and the gradients of each member's."""
    net = FeedForward([w.shape[-1], w.shape[-2], 1], ["tanh", "linear"], name="d")
    net.set_params({"d/layer0/weights": w, "d/layer0/bias": np.zeros((len(w), 1, w.shape[-2])),
                    "d/layer1/weights": np.ones((len(w), 1, w.shape[-2])),
                    "d/layer1/bias": np.zeros((len(w), 1, 1))})
    grads = {}
    return float(np.sum(gradient_penalty(net, u, 1.0, grads))), grads


@pytest.mark.parametrize("n", [1, 3])
def test_batched_matmul_transpose_norm_first_order(n):
    rng = np.random.default_rng(n)
    u0, w0 = rng.standard_normal((n, 4, 3)), rng.standard_normal((n, 2, 3))
    u, w = ad.tensor(u0, requires_grad=True), ad.tensor(w0, requires_grad=True)
    assert ad.transpose(w).data.shape == (n, 3, 2)
    gu, gw = (t.data for t in ad.grad(_batched_layer(u, w), [u, w]))
    np.testing.assert_allclose(gu, _numeric_grad(lambda a: _value(_batched_layer, a, w0), u0),
                               atol=1e-8)
    np.testing.assert_allclose(gw, _numeric_grad(lambda b: _value(_batched_layer, u0, b), w0),
                               atol=1e-8)


@pytest.mark.parametrize("n", [1, 3])
def test_batched_matmul_transpose_norm_second_order(n):
    # parameter gradient of an input-gradient norm over a stack of critics,
    # in closed form
    rng = np.random.default_rng(10 + n)
    u0, w0 = rng.standard_normal((n, 4, 3)), rng.standard_normal((n, 2, 3))
    gw = _batched_penalty(u0, w0)[1]["d/layer0/weights"]
    np.testing.assert_allclose(
        gw, _numeric_grad(lambda b: _batched_penalty(u0, b)[0], w0), atol=1e-7)


def test_matmul_weight_over_leading_axes():
    # a 2-D [out, in] weight applied at every step of [T, batch, in]: its
    # gradient sums the broadcast axes, and the output equals T 2-D matmuls
    rng = np.random.default_rng(5)
    x0, w0 = rng.standard_normal((3, 4, 2)), rng.standard_normal((5, 2))

    def layer(x, w):
        return ad.tsum(ad.tanh(ad.matmul(x, ad.transpose(w))))

    x, w = ad.tensor(x0, requires_grad=True), ad.tensor(w0, requires_grad=True)
    np.testing.assert_array_equal(ad.matmul(x, ad.transpose(w)).data,
                                  np.stack([x0[t] @ w0.T for t in range(3)]))
    gx, gw = (t.data for t in ad.grad(layer(x, w), [x, w]))
    assert gw.shape == (5, 2)
    np.testing.assert_allclose(gw, _numeric_grad(lambda b: _value(layer, x0, b), w0), atol=1e-8)
    np.testing.assert_allclose(gx, _numeric_grad(lambda a: _value(layer, a, w0), x0), atol=1e-8)


def test_batched_members_do_not_mix():
    # member n's gradients depend on member n's inputs only
    rng = np.random.default_rng(3)
    u0, w0 = rng.standard_normal((3, 4, 3)), rng.standard_normal((3, 2, 3))
    _, full = _batched_penalty(u0, w0)
    for i in range(3):
        _, alone = _batched_penalty(u0[i:i + 1], w0[i:i + 1])
        for key, g in alone.items():
            np.testing.assert_array_equal(full[key][i:i + 1], g)


def test_training_leaves_no_reference_cycles():
    # no backward closure holds its own node, so a training iteration's
    # graphs are freed by reference count, with nothing left for gc
    from fedbiwgan.federation import TopologySpec, TrainingConfig, run_training
    from fedbiwgan.models import ModelConfig

    model = ModelConfig(features=3, window=3, latent_dim=2, gen_hidden=(3, 3),
                        critic_hidden=(4, 3))
    rng = np.random.default_rng(0)
    shards = {(s, n): rng.random((10, 3, 3)) for s in range(2) for n in range(2)}
    cfg = TrainingConfig(mode="federated", iterations=1, critic_iters=2, local_iters=1,
                         batch_size=4)
    gc.collect()
    gc.disable()
    try:
        run_training(TopologySpec(2, 2), cfg, model, shards, 0)
        assert gc.collect() == 0
    finally:
        gc.enable()
