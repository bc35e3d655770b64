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
