import gc

import numpy as np
import pytest

from fedbiwgan import autodiff as ad


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
    np.testing.assert_allclose(_g(ad.tsum(ad.exp(x)), x), np.exp(x.data))
    np.testing.assert_allclose(_g(ad.tsum(ad.softplus(x)), x), s)


def test_log_div_grads():
    x = ad.tensor([2.0, 4.0], requires_grad=True)
    np.testing.assert_allclose(_g(ad.tsum(ad.log(x)), x), 1 / x.data)
    y = ad.tensor([8.0, 2.0], requires_grad=True)
    out = ad.tsum(ad.div(y, x))
    np.testing.assert_allclose(_g(out, y), 1 / x.data)


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


def test_l2_norm_rows_value_and_grad():
    x = ad.tensor([[3.0, 4.0], [0.0, 2.0]], requires_grad=True)
    n = ad.l2_norm_rows(x)
    np.testing.assert_allclose(n.data, [5.0, 2.0])
    g = _g(ad.tsum(n), x)
    np.testing.assert_allclose(g, [[0.6, 0.8], [0.0, 1.0]])


def test_norm_zero_row_has_zero_grad():
    # the subgradient convention at the origin
    x = ad.tensor([[0.0, 0.0]], requires_grad=True)
    n = ad.l2_norm_rows(x)
    assert n.data[0] == 0.0
    g = _g(ad.tsum(n), x)
    np.testing.assert_array_equal(g, [[0.0, 0.0]])


def test_second_derivative_simple():
    # d2/dx2 of x^3 = 6x
    x = ad.tensor([2.0], requires_grad=True)
    y = ad.mul(ad.mul(x, x), x)
    g1 = ad.grad(ad.tsum(y), [x], create_graph=True)[0]
    g2 = ad.grad(ad.tsum(g1), [x])[0]
    np.testing.assert_allclose(g2.data, [12.0])


def test_second_derivative_through_norm():
    # f(x) = (||x|| - 1)^2, grad = 2(||x||-1) x/||x||; check hessian-vector
    # structure numerically for one coordinate
    x0 = np.array([[3.0, 4.0]])
    x = ad.tensor(x0, requires_grad=True)
    gap = ad.sub(ad.l2_norm_rows(x), ad.constant(1.0))
    f = ad.tsum(ad.mul(gap, gap))
    g1 = ad.grad(f, [x], create_graph=True)[0]
    g2 = ad.grad(ad.tsum(g1), [x])[0]

    h = 1e-6

    def grad_sum(xv):
        n = np.linalg.norm(xv)
        return float(np.sum(2 * (n - 1) * xv / n))

    num = np.array([
        (grad_sum(x0[0] + h * e) - grad_sum(x0[0] - h * e)) / (2 * h)
        for e in np.eye(2)
    ])
    np.testing.assert_allclose(g2.data[0], num, atol=1e-6)


def test_second_derivative_needs_create_graph():
    x = ad.tensor([2.0], requires_grad=True)
    g1 = ad.grad(ad.tsum(ad.mul(ad.mul(x, x), x)), [x])[0]
    with pytest.raises(ValueError, match="create_graph=True"):
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


def test_operator_sugar():
    x = ad.tensor([3.0], requires_grad=True)
    out = ad.tsum((x * 2 + 1 - x) / 2)
    np.testing.assert_allclose(out.data, 2.0)
    np.testing.assert_allclose(_g(out, x), [0.5])


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
    """sum over all rows of (‖∇_u layer‖ - 1)², the penalty's shape."""
    u = ad.Tensor(u.data, requires_grad=True)
    g = ad.grad(_batched_layer(u, w), [u], create_graph=True)[0]
    gap = ad.sub(ad.l2_norm_rows(g), ad.constant(1.0))
    return ad.tsum(ad.mul(gap, gap))


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

    def norms(x):
        return ad.tsum(ad.mul(ad.l2_norm_rows(x), ad.constant(np.arange(4.0) + 1)))

    assert ad.l2_norm_rows(u).data.shape == (n, 4)
    np.testing.assert_allclose(ad.grad(norms(u), [u])[0].data,
                               _numeric_grad(lambda a: _value(norms, a), u0), atol=1e-8)


@pytest.mark.parametrize("n", [1, 3])
def test_batched_matmul_transpose_norm_second_order(n):
    # parameter gradient of an input-gradient norm: double backprop
    # through batched matmul, transpose and l2_norm_rows
    rng = np.random.default_rng(10 + n)
    u0, w0 = rng.standard_normal((n, 4, 3)), rng.standard_normal((n, 2, 3))
    w = ad.tensor(w0, requires_grad=True)
    gw = ad.grad(_batched_penalty(ad.tensor(u0), w), [w])[0].data
    np.testing.assert_allclose(
        gw, _numeric_grad(lambda b: _value(_batched_penalty, u0, b), w0), atol=1e-7)


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


def test_swap_leading_roundtrip_and_grad():
    x0 = np.arange(24.0).reshape(2, 3, 4)
    x = ad.tensor(x0, requires_grad=True)
    swapped = ad.swap_leading(x)
    assert swapped.data.shape == (3, 2, 4)
    np.testing.assert_array_equal(ad.swap_leading(swapped).data, x0)
    weights = np.arange(24.0).reshape(3, 2, 4)
    g = _g(ad.tsum(ad.mul(swapped, ad.constant(weights))), x)
    np.testing.assert_array_equal(g, weights.swapaxes(0, 1))


def test_batched_members_do_not_mix():
    # member n's gradients depend on member n's inputs only
    rng = np.random.default_rng(3)
    u0, w0 = rng.standard_normal((3, 4, 3)), rng.standard_normal((3, 2, 3))
    w = ad.tensor(w0, requires_grad=True)
    full = ad.grad(_batched_penalty(ad.tensor(u0), w), [w])[0].data
    for i in range(3):
        wi = ad.tensor(w0[i:i + 1], requires_grad=True)
        alone = ad.grad(_batched_penalty(ad.tensor(u0[i:i + 1]), wi), [wi])[0].data
        np.testing.assert_array_equal(full[i:i + 1], alone)


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
