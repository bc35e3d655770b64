"""The models as graphs of the first-order engine, over their live
parameter arrays: the reference that the tests differentiate through.

`leaves(model)` wraps each parameter array as an engine leaf, by
params()' names; the arrays are shared, not copied. `dense` and
`feedforward` build a dense layer and a stack in engine ops, `as_node`
makes a VLSTM cell's, generator's or encoder's numpy forward and backward
one graph node, and `gradient_penalty_backward` returns the closed-form
penalty's value with a gradient for every parameter.
"""

import numpy as np

from fedbiwgan import autodiff as ad
from fedbiwgan.nn import gradient_penalty


def leaves(model):
    """An engine leaf over each of the model's parameter arrays."""
    return {k: ad.tensor(p, requires_grad=True) for k, p in model.params().items()}


def dense(layer, x, params):
    """The layer on a Tensor: add(matmul(x, transpose(W)), b), then the
    activation, with W and b the params leaves under the layer's names."""
    out = ad.add(ad.matmul(x, ad.transpose(params[f"{layer.name}/weights"])),
                 params[f"{layer.name}/bias"])
    if layer.activation == "sigmoid":
        return ad.sigmoid(out)
    return ad.tanh(out) if layer.activation == "tanh" else out


def feedforward(net, x, params):
    """A FeedForward (a critic's net) on a Tensor, layer by layer."""
    for layer in net.layers:
        x = dense(layer, x, params)
    return x


def as_node(model, x, params, **kwargs):
    """A VlstmCell, GeneratorModel or EncoderModel on a Tensor as one
    graph node over x and the model's params leaves: the model's numpy
    forward, whose backward is the model's own."""
    out, tape = model(x.data, keep=True, **kwargs)

    def bwd(g):
        grads = {}
        dx = model.backward(tape, g, grads)
        return (dx, *(grads[k] for k in params))

    return ad.Tensor(out, (x, *params.values()), bwd)


def gradient_penalty_backward(critic, x_hat, eta):
    """The gradient penalty's value and its parameter gradients (zero for
    a parameter the input gradient does not depend on)."""
    grads = {}
    penalty = gradient_penalty(critic, x_hat, eta, grads)
    return float(penalty), {k: grads.get(k, np.zeros(p.shape))
                            for k, p in critic.params().items()}
