"""Reverse-mode automatic differentiation over dense float64 arrays.

Every value is a `Tensor` wrapping a row-major numpy array. Operations on
tensors that require grad record their parents and a backward closure;
the closures themselves are written in terms of Tensor operations, so a
backward pass run with `grad(..., create_graph=True)` is itself recorded
and can be differentiated again (needed for the Lipschitz gradient
penalty). Every other backward pass, and any code run under
`no_record()`, records nothing. No node reaches itself, so a graph is
freed by reference count as soon as it is unreachable.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager, nullcontext

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

    __slots__ = ("data", "parents", "bwd", "requires_grad", "__weakref__")

    def __init__(self, data, parents=(), bwd=None, requires_grad=False):
        self.data = data
        if _record and any(p.requires_grad for p in parents):
            self.parents, self.bwd, self.requires_grad = parents, bwd, True
        else:
            # not recording, or nothing upstream to differentiate: a
            # backward pass would never walk this edge
            self.parents, self.bwd, self.requires_grad = (), None, requires_grad

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; mixed operands are promoted to constants
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))


def tensor(value, requires_grad=False):
    """Public constructor: validates shape/data consistency and finiteness."""
    data = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise ValueError("tensor entries must be finite (NaN/Inf rejected)")
    return Tensor(data, requires_grad=requires_grad)


def constant(value):
    return Tensor(np.asarray(value, dtype=np.float64))


def _wrap(value):
    return value if isinstance(value, Tensor) else constant(value)


def zeros(shape):
    return Tensor(np.zeros(shape, dtype=np.float64))


def ones(shape):
    return Tensor(np.ones(shape, dtype=np.float64))


# ---------------------------------------------------------------------------
# primitives


def _reduce_to(g, shape):
    """Sum-reduce a broadcast gradient back to the parent's shape."""
    if g.data.shape == shape:
        return g
    extra = g.data.ndim - len(shape)
    if extra > 0:
        g = tsum(g, axis=tuple(range(extra)))
    axes = tuple(
        i for i, (gs, ss) in enumerate(zip(g.data.shape, shape)) if ss == 1 and gs != 1
    )
    if axes:
        g = tsum(g, axis=axes, keepdims=True)
    return g


def add(a, b):
    def bwd(g):
        return _reduce_to(g, a.data.shape), _reduce_to(g, b.data.shape)

    return Tensor(a.data + b.data, (a, b), bwd)


def sub(a, b):
    def bwd(g):
        return _reduce_to(g, a.data.shape), _reduce_to(neg(g), b.data.shape)

    return Tensor(a.data - b.data, (a, b), bwd)


def neg(a):
    def bwd(g):
        return (neg(g),)

    return Tensor(-a.data, (a,), bwd)


def mul(a, b):
    def bwd(g):
        return _reduce_to(mul(g, b), a.data.shape), _reduce_to(mul(g, a), b.data.shape)

    return Tensor(a.data * b.data, (a, b), bwd)


def _reads_output(out, bwd):
    """Give a recorded node the backward bwd(g, out) of an op whose
    derivative is written in its own output. The closure reaches the node
    through a weak reference, so the node and its closure are not a
    reference cycle and a graph is freed as soon as it is unreachable."""
    if out.requires_grad:
        ref = weakref.ref(out)
        out.bwd = lambda g: bwd(g, ref())
    return out


def reciprocal(a):
    return _reads_output(Tensor(1.0 / a.data, (a,)), _reciprocal_bwd)


def _reciprocal_bwd(g, out):
    return (neg(mul(g, mul(out, out))),)


def div(a, b):
    return mul(a, reciprocal(b))


def matmul(a, b):
    """Matrix product; a 2-D operand broadcasts over the other's leading
    axes, e.g. a [out, in] weight applied at every step of [T, batch, in]."""

    def bwd(g):
        return (_reduce_to(matmul(g, transpose(b)), a.data.shape),
                _reduce_to(matmul(transpose(a), g), b.data.shape))

    return Tensor(a.data @ b.data, (a, b), bwd)


def transpose(a):
    """Swap the last two axes: a matrix transpose, or one per leading
    index of a stack of matrices."""

    def bwd(g):
        return (transpose(g),)

    return Tensor(a.data.mT, (a,), bwd)


def swap_leading(a):
    """Swap the first two axes, as a view: [batch, T, ...] to time-major
    [T, batch, ...] and back. It is its own adjoint."""

    def bwd(g):
        return (swap_leading(g),)

    return Tensor(a.data.swapaxes(0, 1), (a,), bwd)


def tanh(a):
    return _reads_output(Tensor(np.tanh(a.data), (a,)), _tanh_bwd)


def _tanh_bwd(g, out):
    return (mul(g, sub(constant(1.0), mul(out, out))),)


def sigmoid(a):
    return _reads_output(Tensor(1.0 / (1.0 + np.exp(-a.data)), (a,)), _sigmoid_bwd)


def _sigmoid_bwd(g, out):
    return (mul(g, mul(out, sub(constant(1.0), out))),)


def exp(a):
    return _reads_output(Tensor(np.exp(a.data), (a,)), _exp_bwd)


def _exp_bwd(g, out):
    return (mul(g, out),)


def log(a):
    def bwd(g):
        return (div(g, a),)

    return Tensor(np.log(a.data), (a,), bwd)


def softplus(a):
    """log(1 + exp(a)), numerically stable; gradient is sigmoid(a)."""

    def bwd(g):
        return (mul(g, sigmoid(a)),)

    return Tensor(np.logaddexp(0.0, a.data), (a,), bwd)


def tsum(a, axis=None, keepdims=False):
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (mul(g, ones(a.data.shape)),)
        gk = g
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            shape = list(a.data.shape)
            for ax in axes:
                shape[ax] = 1
            gk = reshape(g, tuple(shape))
        return (mul(gk, ones(a.data.shape)),)

    return Tensor(np.asarray(data), (a,), bwd)


def tmean(a, axis=None, keepdims=False):
    n = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(tsum(a, axis=axis, keepdims=keepdims), constant(1.0 / float(n)))


def reshape(a, shape):
    def bwd(g):
        return (reshape(g, a.data.shape),)

    return Tensor(a.data.reshape(shape), (a,), bwd)


def concat(tensors, axis):
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]

    def bwd(g):
        grads, start = [], 0
        for size in sizes:
            grads.append(narrow(g, axis, start, size))
            start += size
        return tuple(grads)

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bwd)


def narrow(a, axis, start, length):
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def bwd(g):
        return (_embed(g, axis, start, a.data.shape),)

    # a copy, so a slice does not keep the whole of a alive
    return Tensor(a.data[index].copy(), (a,), bwd)


def _embed(g, axis, start, shape):
    """Adjoint of narrow: place g into a zero array of the given shape."""
    length = g.data.shape[axis]

    def bwd(gg):
        return (narrow(gg, axis, start, length),)

    data = np.zeros(shape, dtype=np.float64)
    index = [slice(None)] * len(shape)
    index[axis] = slice(start, start + length)
    data[tuple(index)] = g.data
    return Tensor(data, (g,), bwd)


def sqrt_guard(a):
    """Element-wise sqrt whose derivative is defined as 0 where a == 0."""
    root = np.sqrt(a.data)
    # shift the denominator by 1 exactly where the output is 0; there the
    # incoming cotangent is multiplied by x/denom = 0/1 in every use site,
    # realizing the zero-subgradient convention for the norm
    mask = constant((root == 0.0).astype(np.float64))
    return _reads_output(Tensor(root, (a,)),
                         lambda g, out: (mul(g, mul(constant(0.5), reciprocal(add(out, mask)))),))


def l2_norm_rows(a):
    """Euclidean norm over the last axis, one per row of a matrix or of
    each matrix in a stack; d‖x‖/dx := 0 at x = 0."""
    return sqrt_guard(tsum(mul(a, a), axis=-1))


def recording(*tensors):
    """Whether an op on these inputs records a graph node."""
    return _record and any(t.requires_grad for t in tensors)


def numpy_op(data, parents, bwd):
    """A node whose backward bwd(g) maps the output cotangent array to one
    array per parent (None where a parent needs none) in plain numpy. It
    records nothing, so a grad(..., create_graph=True) that reaches the
    node raises."""

    def backward(g):
        if _record:
            raise RuntimeError("this op has a numpy backward; it cannot be "
                               "differentiated twice (create_graph=True)")
        return tuple(None if d is None else Tensor(d) for d in bwd(g.data))

    return Tensor(data, parents, backward)


# ---------------------------------------------------------------------------
# reverse pass


def grad(out, wrt, out_grad=None, create_graph=False):
    """Gradients of `out` w.r.t. each tensor in `wrt`.

    Tensors in `wrt` must have requires_grad set, and so must `out`. With
    create_graph=True the backward pass is recorded, so the returned
    tensors stay connected to the graph and can be differentiated again
    (double backprop); otherwise they are constants.
    """
    for leaf in wrt:
        if not leaf.requires_grad:
            raise ValueError("grad target does not require grad")
    if not out.requires_grad:
        raise ValueError(
            "grad output does not require grad; to differentiate a gradient, "
            "compute that gradient with grad(..., create_graph=True)"
        )
    if out_grad is None:
        out_grad = ones(out.data.shape)
    elif not isinstance(out_grad, Tensor):
        out_grad = constant(out_grad)
    if out_grad.data.shape != out.data.shape:
        raise ValueError(
            f"out_grad shape {out_grad.data.shape} != output shape {out.data.shape}"
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

    # the backward closures are Tensor code: recording them is what makes
    # the returned gradients differentiable
    with nullcontext() if create_graph else no_record():
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
                grads[id(parent)] = pg if prev is None else add(prev, pg)

        result = []
        for leaf in wrt:
            g = grads.get(id(leaf))
            result.append(zeros(leaf.data.shape) if g is None else g)
        return result
