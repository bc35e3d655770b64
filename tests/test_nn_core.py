import numpy as np
import pytest
from graph_reference import as_node, dense, gradient_penalty_backward, leaves
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbiwgan import autodiff as ad
from fedbiwgan.gradcheck import _at
from fedbiwgan.models import EncoderModel, GeneratorModel, ModelConfig
from fedbiwgan.nn import (
    AdamConfig,
    AdamState,
    Dense,
    FeedForward,
    ShapeError,
    VlstmCell,
    adam_step,
    finite_difference_gradient,
)


# ---------------------------------------------------------------------------
# dense


def test_dense_identity():
    layer = Dense(2, 2, "linear")
    layer.weights[...] = np.eye(2)
    layer.bias[...] = 0.0
    out = layer.forward(np.array([[1.0, 0.0]]))
    np.testing.assert_array_equal(out, [[1.0, 0.0]])


def test_dense_sigmoid_at_zero():
    layer = Dense(1, 1, "sigmoid")
    layer.weights[...] = 0.0
    layer.bias[...] = 0.0
    out = layer.forward(np.array([[0.0]]))
    np.testing.assert_allclose(out, [[0.5]])


def test_dense_tanh_scalar():
    layer = Dense(1, 1, "tanh")
    layer.weights[...] = 2.0
    layer.bias[...] = 1.0
    out = layer.forward(np.array([[3.0]]))
    np.testing.assert_allclose(out, [[np.tanh(7.0)]], rtol=1e-12)


def test_dense_shape_error():
    layer = Dense(3, 2)
    with pytest.raises(ShapeError):
        layer.forward(np.ones((1, 4)))


def test_dense_unknown_activation():
    with pytest.raises(ValueError):
        Dense(2, 2, "relu6")


def test_dense_init_bounds():
    rng = np.random.default_rng(0)
    layer = Dense(16, 8, rng=rng)
    limit = 1.0 / np.sqrt(16)
    assert np.all(np.abs(layer.weights) <= limit)
    assert np.all(layer.bias == 0.0)


# ---------------------------------------------------------------------------
# vlstm


def _zero_cell(in_dim=1, hidden=1):
    cell = VlstmCell(in_dim, hidden)
    for p in cell.params().values():
        p[...] = 0.0
    return cell


def test_vlstm_zero_state_stays_zero():
    cell = _zero_cell()
    h, _ = cell(np.zeros((3, 1, 1)))
    np.testing.assert_array_equal(h, np.zeros((3, 1, 1)))


def test_vlstm_zero_params_carry_half_cell():
    # step 1 (y=1) writes c = sigma(100) * tanh(100) = 1.0 exactly; step 2
    # (y=0) sees zero weights on (h, c): gates at sigma(0)=0.5, candidate
    # 0, so c = 0.5*c_prev, h = 0.5*tanh(c)
    cell = _zero_cell()
    cell.w_i[0, 0] = 100.0
    cell.w_z[0, 0] = 100.0
    h, _ = cell(np.array([[[1.0]], [[0.0]]]))
    np.testing.assert_allclose(h[0], [[0.5 * np.tanh(1.0)]])
    np.testing.assert_allclose(h[1], [[0.5 * np.tanh(0.5)]])
    assert abs(h[1, 0, 0] - 0.2311) < 5e-5


def test_vlstm_saturated_gates_pass_cell_through():
    # step 1 writes c = tanh(atanh(0.7)) = 0.7; step 2, with every gate
    # saturated open and candidate 0, passes it through
    cell = _zero_cell()
    for key in ("b_i", "b_f", "b_o"):
        cell.params()[f"vlstm/{key}"][...] = 100.0
    cell.w_z[0, 0] = 1.0
    h, _ = cell(np.array([[[np.arctanh(0.7)]], [[0.0]]]))
    np.testing.assert_allclose(h[1], [[np.tanh(0.7)]], atol=1e-6)
    np.testing.assert_allclose(h[0], [[np.tanh(0.7)]], atol=1e-6)


def test_vlstm_shape_errors():
    cell = VlstmCell(2, 3)
    with pytest.raises(ShapeError):
        cell(np.ones((4, 1, 5)))
    with pytest.raises(ShapeError):
        cell(np.ones((1, 5)), steps=4)
    # a sequence needs [T, batch, in]; a repeated input needs [batch, in]
    with pytest.raises(ShapeError):
        cell(np.ones((1, 2)))
    with pytest.raises(ShapeError):
        cell(np.ones((4, 1, 2)), steps=4)


def _reference_sequence(cell, x, steps, params):
    """The cell unrolled step by step in autodiff ops over its params
    leaves, from zero state: input and forget gates see [y, h_prev,
    c_prev], the candidate [y, h_prev], the output gate [y, h_prev, c]."""
    w_i, b_i, w_f, b_f, w_z, b_z, w_o, b_o = (params[k] for k in cell.params())
    batch = x.data.shape[-2]
    h = c = ad.zeros((batch, cell.hidden_dim))
    hs = []
    for t in range(steps):
        y = x if x.data.ndim == 2 else ad.reshape(ad.narrow(x, 0, t, 1), x.data.shape[1:])
        yhc = ad.concat([y, h, c], axis=1)
        gate_i = ad.sigmoid(ad.add(ad.matmul(yhc, ad.transpose(w_i)), b_i))
        gate_f = ad.sigmoid(ad.add(ad.matmul(yhc, ad.transpose(w_f)), b_f))
        cand = ad.tanh(ad.add(ad.matmul(ad.concat([y, h], axis=1), ad.transpose(w_z)), b_z))
        c_prev, c = c, ad.add(ad.mul(gate_f, c), ad.mul(gate_i, cand))
        yhc_out = ad.concat([y, h, c], axis=1)
        gate_o = ad.sigmoid(ad.add(ad.matmul(yhc_out, ad.transpose(w_o)), b_o))
        h = ad.mul(gate_o, ad.tanh(c))
        hs.append(ad.reshape(h, (1, batch, cell.hidden_dim)))
    return ad.concat(hs, axis=0)


def _relative_error(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


def _random_biases(model, rng):
    for p in model.params().values():
        if p.ndim == 1:
            p[...] = rng.uniform(-0.5, 0.5, p.shape)


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 64), steps=st.integers(1, 8), repeated=st.booleans(),
       in_dim=st.integers(1, 5), hidden=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_vlstm_sequence_matches_step_loop(batch, steps, repeated, in_dim, hidden, seed):
    # forward bitwise equal to the per-step loop, kept for the backward or
    # not; parameter and input gradients of the BPTT backward within 1e-12
    # relative
    rng = np.random.default_rng(seed)
    cell = VlstmCell(in_dim, hidden, rng)
    _random_biases(cell, rng)
    x = ad.tensor(rng.standard_normal((batch, in_dim) if repeated else (steps, batch, in_dim)),
                  requires_grad=True)
    out, tape = cell(x.data, steps=steps if repeated else None, keep=True)
    params = leaves(cell)
    ref = _reference_sequence(cell, x, steps, params)
    np.testing.assert_array_equal(out, ref.data)
    np.testing.assert_array_equal(cell(x.data, steps if repeated else None)[0], out)
    cot = rng.standard_normal(out.shape)
    grads = {}
    dx = cell.backward(tape, cot, grads)
    assert list(grads) == list(params)
    want = ad.grad(ref, [*params.values(), x], out_grad=cot)
    for got, w in zip([*grads.values(), dx], want):
        assert _relative_error(got, w.data) <= 1e-12


def test_vlstm_sequence_refuses_second_derivative():
    # the cell's node returns its gradient as a constant: a second
    # derivative through it is refused, not answered with zeros
    cell = VlstmCell(2, 3, np.random.default_rng(0))
    x = ad.tensor(np.ones((2, 1, 2)), requires_grad=True)
    g = ad.grad(ad.tsum(as_node(cell, x, leaves(cell))), [x])[0]
    with pytest.raises(ValueError, match="does not require grad"):
        ad.grad(ad.tsum(g), [x])


def test_vlstm_sequence_records_nothing_forward_only():
    # a forward without keep returns no tape and the kept forward's states
    cell = VlstmCell(2, 3, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((2, 2))
    out, tape = cell(x, steps=4)
    assert out.shape == (4, 2, 3) and tape is None
    np.testing.assert_array_equal(out, cell(x, steps=4, keep=True)[0])


def _step(x, t, axis=0):
    """Step t of a Tensor sequence along axis, with that axis dropped."""
    shape = x.data.shape
    return ad.reshape(ad.narrow(x, axis, t, 1), shape[:axis] + shape[axis + 1:])


def _reference_generator(g, z, params):
    """The generator in engine ops over its params leaves: the cells
    unrolled step by step, and the head applied per step to batch-major
    [batch, window, features]."""
    window, batch = g.cfg.window, z.data.shape[0]
    h = _reference_sequence(g.lstm1, z, window, params)
    h = _reference_sequence(g.lstm2, h, window, params)
    return ad.concat([ad.reshape(dense(g.head, _step(h, t), params),
                                 (batch, 1, g.cfg.features))
                      for t in range(window)], axis=1)


def _reference_encoder(e, x, params):
    """The encoder in engine ops over its params leaves: the head per step
    of the batch-major windows, the cells unrolled step by step, and the
    last hidden state."""
    window, batch = e.cfg.window, x.data.shape[0]
    steps = ad.concat([ad.reshape(dense(e.head, _step(x, t, axis=1), params), (1, batch, -1))
                       for t in range(window)], axis=0)
    h = _reference_sequence(e.lstm1, steps, window, params)
    h = _reference_sequence(e.lstm2, h, window, params)
    return _step(h, window - 1)


@settings(max_examples=30, deadline=None)
@given(batch=st.integers(1, 40), window=st.integers(1, 5), features=st.integers(1, 4),
       latent=st.integers(1, 4), hidden=st.tuples(st.integers(1, 5), st.integers(1, 5)),
       seed=st.integers(0, 2**16))
def test_generator_and_encoder_backward_match_engine_reference(batch, window, features,
                                                               latent, hidden, seed):
    # forward bitwise equal to the engine's step-by-step reference, kept
    # for the backward or not; every parameter gradient within 1e-12
    # relative of the reference's, through the heads, the swaps to and
    # from time-major and the encoder's last-step slice
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(features=features, window=window, latent_dim=latent, gen_hidden=hidden)
    for model, x, reference in (
        (GeneratorModel(cfg, rng), rng.standard_normal((batch, latent)), _reference_generator),
        (EncoderModel(cfg, rng), rng.standard_normal((batch, window, features)),
         _reference_encoder),
    ):
        _random_biases(model, rng)
        out, tape = model(x, keep=True)
        params = leaves(model)
        ref = reference(model, ad.tensor(x), params)
        np.testing.assert_array_equal(out, ref.data)
        np.testing.assert_array_equal(model(x)[0], out)
        cot = rng.standard_normal(out.shape)
        grads = {}
        model.backward(tape, cot, grads)
        assert grads.keys() == params.keys()
        for key, want in zip(params, ad.grad(ref, list(params.values()), out_grad=cot)):
            assert _relative_error(grads[key], want.data) <= 1e-12, key


# ---------------------------------------------------------------------------
# network forward/backward


def _param_and_input_grads(net, x, out_grad):
    """The numpy backward's gradients of sum(net(x) * out_grad) w.r.t.
    every parameter and x, for a FeedForward net."""
    outs = net.forward(np.asarray(x, dtype=np.float64))
    grads = {}
    net.backward(outs, out_grad, grads)
    return grads, net.backward(outs, out_grad)


def test_forward_single_linear_layer_matches_dense():
    # the engine reference's dense graph equals the numpy forward bit for bit
    rng = np.random.default_rng(1)
    layer = Dense(3, 2, "linear", rng)
    x = rng.standard_normal((4, 3))
    out = dense(layer, ad.tensor(x, requires_grad=True), leaves(layer))
    np.testing.assert_array_equal(out.data, layer.forward(x))
    assert out.requires_grad


def test_forward_empty_batch():
    layer = Dense(3, 2)
    out = layer.forward(np.zeros((0, 3)))
    assert out.shape == (0, 2)


def test_stacked_recurrent_head_shape():
    rng = np.random.default_rng(2)
    c1 = VlstmCell(4, 5, rng, name="a")
    c2 = VlstmCell(5, 3, rng, name="b")
    head = Dense(3, 2, "linear", rng)
    x = rng.standard_normal((6, 4))
    h2, _ = c2(c1(x, steps=3)[0])
    assert h2.shape == (3, 6, 3)
    assert head.forward(h2).shape == (3, 6, 2)


def test_backward_linear_outer_product():
    net = FeedForward([3, 1], ["linear"], name="dense")
    net.layers[0].weights[...] = 0.0
    x = np.array([[2.0, -1.0, 0.5]])
    grads, gin = _param_and_input_grads(net, x, np.ones((1, 1)))
    np.testing.assert_allclose(grads["dense/layer0/weights"], x)
    np.testing.assert_allclose(grads["dense/layer0/bias"], [1.0])
    np.testing.assert_allclose(gin, np.zeros_like(x))


def test_backward_zero_cotangent():
    rng = np.random.default_rng(3)
    net = FeedForward([3, 4, 1], ["tanh", "linear"], rng)
    grads, gin = _param_and_input_grads(net, rng.standard_normal((2, 3)), np.zeros((2, 1)))
    assert grads.keys() == net.params().keys()
    assert all(np.all(g == 0) for g in grads.values())
    assert np.all(gin == 0)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    net = FeedForward([3, 5, 1], ["tanh", "sigmoid"], rng)
    x = rng.standard_normal((3, 3))
    grads, _ = _param_and_input_grads(net, x, np.ones((3, 1)))
    params = net.params()

    def loss(probe):
        return _at(params, probe, lambda: float(np.sum(net.forward(x)[-1])))

    numeric = finite_difference_gradient(loss, params)
    for k in params:
        np.testing.assert_allclose(grads[k], numeric[k], atol=1e-6)


# ---------------------------------------------------------------------------
# gradient penalty


class _LinearCritic(FeedForward):
    """D(u) = u @ w.T: one linear layer with zero bias."""

    def __init__(self, w):
        w = np.asarray(w, dtype=np.float64)
        super().__init__([w.shape[1], 1], ["linear"], name="d")
        self.layers[0].weights[...] = w


def test_penalty_linear_critic_w2():
    # D(x) = 2x: gradient norm 2 everywhere, penalty 10*(2-1)^2 = 10,
    # d(penalty)/dw = 2*10*(2-1)*sign(w) = 20
    critic = _LinearCritic([[2.0]])
    penalty, grads = gradient_penalty_backward(critic, np.array([[0.3], [0.9]]), 10.0)
    assert penalty == pytest.approx(10.0, abs=1e-10)
    np.testing.assert_allclose(grads["d/layer0/weights"], [[20.0]], atol=1e-10)


def test_penalty_unit_norm_is_zero():
    critic = _LinearCritic([[1.0]])
    penalty, grads = gradient_penalty_backward(critic, np.array([[0.5]]), 10.0)
    assert penalty == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(grads["d/layer0/weights"], [[0.0]], atol=1e-10)


def test_penalty_negative_eta_rejected():
    with pytest.raises(ValueError):
        gradient_penalty_backward(_LinearCritic([[1.0]]), np.array([[0.5]]), -1.0)


def test_penalty_matches_finite_differences():
    rng = np.random.default_rng(5)
    net = FeedForward([4, 5, 1], ["tanh", "linear"], rng)
    x_hat = rng.standard_normal((3, 4))
    _, grads = gradient_penalty_backward(net, x_hat, 10.0)
    params = net.params()

    def loss(probe):
        return _at(params, probe, lambda: gradient_penalty_backward(net, x_hat, 10.0)[0])

    numeric = finite_difference_gradient(loss, params)
    for k in params:
        np.testing.assert_allclose(grads[k], numeric[k], atol=1e-5)


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_grad_is_fixed_point():
    params = {"w": np.array([1.0, -2.0])}
    state = AdamState.for_params(params)
    adam_step(params, {"w": np.zeros(2)}, state, AdamConfig())
    np.testing.assert_array_equal(params["w"], [1.0, -2.0])
    assert state.step_count == 1


def test_adam_first_step_is_signed_alpha():
    params = {"w": np.array([0.0])}
    state = AdamState.for_params(params)
    adam_step(params, {"w": np.array([0.5])}, state, AdamConfig(alpha=0.001))
    np.testing.assert_allclose(params["w"], [-0.001], atol=1e-7)


def test_adam_constant_grad_step_does_not_grow():
    params = {"w": np.array([0.0])}
    state = AdamState.for_params(params)
    cfg = AdamConfig(alpha=0.01)
    adam_step(params, {"w": np.array([1.0])}, state, cfg)
    d1 = abs(params["w"][0])
    before = params["w"][0]
    adam_step(params, {"w": np.array([1.0])}, state, cfg)
    d2 = abs(params["w"][0] - before)
    assert d2 <= d1 * (1 + 1e-9)


def test_adam_config_validation():
    with pytest.raises(ValueError):
        AdamConfig(alpha=0.0)
    with pytest.raises(ValueError):
        AdamConfig(beta1=1.0)
    with pytest.raises(ValueError):
        AdamConfig(epsilon=0.0)


def test_adam_shape_mismatch():
    params = {"w": np.array([0.0, 0.0])}
    state = AdamState.for_params(params)
    with pytest.raises(ShapeError):
        adam_step(params, {"w": np.zeros(3)}, state, AdamConfig())


# ---------------------------------------------------------------------------
# finite differences


def test_fd_quadratic():
    grads = finite_difference_gradient(
        lambda p: float(p["x"] ** 2), {"x": np.array(3.0)}, h=1e-4)
    assert grads["x"] == pytest.approx(6.0, abs=1e-6)


def test_fd_constant():
    grads = finite_difference_gradient(lambda p: 1.0, {"x": np.array([1.0, 2.0])})
    np.testing.assert_array_equal(grads["x"], [0.0, 0.0])


def test_fd_rejects_bad_h():
    with pytest.raises(ValueError):
        finite_difference_gradient(lambda p: 0.0, {"x": np.array(1.0)}, h=0.0)
