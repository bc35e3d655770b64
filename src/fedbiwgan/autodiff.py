"""First-order reverse-mode automatic differentiation over dense float64
arrays: the independent reference that gradcheck and the acceptance gate
differentiate through.

Every value is a `Tensor` wrapping a row-major numpy array. Operations on
tensors that require grad record their parents and a backward closure
that maps the output's cotangent array to one array per parent, in plain
numpy. Training and scoring never build a graph: the critic's step is
closed-form numpy over its layers (`nn.FeedForward`,
`nn.gradient_penalty`), and the VLSTM cell, generator and encoder have
their own numpy forward and backward, which `nn.as_node` wraps as one
node for the engine. Code run under `no_record()` records nothing. No
node reaches itself, so a graph is freed by reference count as soon as
it is unreachable.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_record = True


@contextmanager
def no_record():
    """Build no graph inside the block: new tensors keep no parents and
    no backward closure, and only leaves created with requires_grad=True
    require grad."""
    global _record
    previous, _record = _record, False
    try:
        yield
    finally:
        _record = previous


class Tensor:
    """Dense row-major float64 array plus the graph edge that produced it."""

    __slots__ = ("data", "parents", "bwd", "requires_grad")

    def __init__(self, data, parents=(), bwd=None, requires_grad=False):
        self.data = data
        if _record and any(p.requires_grad for p in parents):
            self.parents, self.bwd, self.requires_grad = parents, bwd, True
        else:
            # under no_record(), or nothing upstream to differentiate: a
            # backward pass would never walk this edge
            self.parents, self.bwd, self.requires_grad = (), None, requires_grad

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(value, requires_grad=False):
    """Public constructor: validates shape/data consistency and finiteness."""
    data = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise ValueError("tensor entries must be finite (NaN/Inf rejected)")
    return Tensor(data, requires_grad=requires_grad)


def constant(value):
    return Tensor(np.asarray(value, dtype=np.float64))


def zeros(shape):
    return Tensor(np.zeros(shape, dtype=np.float64))


# ---------------------------------------------------------------------------
# primitives; each bwd(g) maps the output's cotangent array g to one array
# per parent


def _reduce_to(g, shape):
    """Sum-reduce a broadcast gradient back to the parent's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b):
    def bwd(g):
        return _reduce_to(g, a.data.shape), _reduce_to(g, b.data.shape)

    return Tensor(a.data + b.data, (a, b), bwd)


def sub(a, b):
    def bwd(g):
        return _reduce_to(g, a.data.shape), _reduce_to(-g, b.data.shape)

    return Tensor(a.data - b.data, (a, b), bwd)


def mul(a, b):
    def bwd(g):
        return _reduce_to(g * b.data, a.data.shape), _reduce_to(g * a.data, b.data.shape)

    return Tensor(a.data * b.data, (a, b), bwd)


def matmul(a, b):
    """Matrix product; a 2-D operand broadcasts over the other's leading
    axes, e.g. a [out, in] weight applied at every step of [T, batch, in]."""

    def bwd(g):
        return (_reduce_to(g @ b.data.mT, a.data.shape),
                _reduce_to(a.data.mT @ g, b.data.shape))

    return Tensor(a.data @ b.data, (a, b), bwd)


def transpose(a):
    """Swap the last two axes: a matrix transpose, or one per leading
    index of a stack of matrices."""
    return Tensor(a.data.mT, (a,), lambda g: (g.mT,))


def tanh(a):
    out = np.tanh(a.data)
    return Tensor(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a):
    out = 1.0 / (1.0 + np.exp(-a.data))
    return Tensor(out, (a,), lambda g: (g * (out * (1.0 - out)),))


def tsum(a, axis=None, keepdims=False):
    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (g * np.ones(a.data.shape),)

    return Tensor(np.asarray(a.data.sum(axis=axis, keepdims=keepdims)), (a,), bwd)


def tmean(a, axis=None, keepdims=False):
    n = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(tsum(a, axis=axis, keepdims=keepdims), constant(1.0 / float(n)))


def reshape(a, shape):
    return Tensor(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def concat(tensors, axis):
    tensors = tuple(tensors)
    bounds = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return Tensor(np.concatenate([t.data for t in tensors], axis=axis), tensors,
                  lambda g: tuple(np.split(g, bounds, axis=axis)))


def narrow(a, axis, start, length):
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def bwd(g):
        full = np.zeros(a.data.shape)
        full[index] = g
        return (full,)

    # a copy, so a slice does not keep the whole of a alive
    return Tensor(a.data[index].copy(), (a,), bwd)


# ---------------------------------------------------------------------------
# reverse pass


def grad(out, wrt, out_grad=None):
    """Gradients of `out` w.r.t. each tensor in `wrt`, as constant tensors.

    Tensors in `wrt` must have requires_grad set, and so must `out`.
    """
    for leaf in wrt:
        if not leaf.requires_grad:
            raise ValueError("grad target does not require grad")
    if not out.requires_grad:
        raise ValueError("grad output does not require grad")
    out_grad = np.ones(out.data.shape) if out_grad is None else np.asarray(out_grad,
                                                                          dtype=np.float64)
    if out_grad.shape != out.data.shape:
        raise ValueError(
            f"out_grad shape {out_grad.shape} != output shape {out.data.shape}"
        )

    topo, visited = [], set()
    stack = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))

    grads = {id(out): out_grad}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None or node.bwd is None:
            if node.bwd is None:
                grads[id(node)] = g  # keep leaf gradients for lookup below
            continue
        for parent, pg in zip(node.parents, node.bwd(g)):
            if pg is None or not parent.requires_grad:
                continue
            prev = grads.get(id(parent))
            grads[id(parent)] = pg if prev is None else prev + pg

    result = []
    for leaf in wrt:
        g = grads.get(id(leaf))
        result.append(zeros(leaf.data.shape) if g is None else Tensor(g))
    return result
