"""Reverse-mode autodiff over the 3D kernels in ops.

A Var wraps an ndarray plus a backward closure. The closure is a pure
function of the output gradient: it returns its parents' gradients as a tuple
in parent order, or a one-parent node's gradient as a bare array, and writes
nothing. run_backward on a scalar-producing graph runs the closures in
reverse topological order; it alone adds gradients into Var.grad, and it
raises on one whose shape or dtype is not its Var's. Parameters are
long-lived leaf Vars whose .data the optimizer updates in place.

run_backward consumes the graph: once a node's closure has run, the node
drops its gradient, closure and parents, so it and its buffers are freed as
soon as nothing else holds it. A graph can be backpropagated once; a second
backward through a used node raises RuntimeError. Leaves (Vars made without
a closure: parameters, inputs, detached Vars) keep their .grad.

Inside a no_grad() block ops return detached Vars, so large inference
forwards do not retain intermediate buffers. There, batchnorm, relu and add
(into b) write into their operand's array when the caller opts in with
inplace=True, which only a caller that made that operand in this forward may
do. By default no op writes into an operand: gradcheck's probes rely on it.
"""
from __future__ import annotations

import numpy as np

from . import ops
from .ops import BatchNormState, ConvSpec, LayerParams

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Var:
    """Node in the backward graph: value, accumulated gradient, parents."""

    __slots__ = ("data", "grad", "name", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None, name: str = ""):
        self.data = np.asarray(data)
        self.grad = None
        self.name = name
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape


def accumulate(v: Var, g: np.ndarray):
    """Add g, an array (a NumPy scalar for a 0-d Var) of v.data's shape and
    dtype, to v.grad; any other g raises ValueError and leaves v.grad as it
    was. A first gradient is stored as it is, and later ones are summed out
    of place: add() hands the same g to both parents, so a stored gradient
    must never be written into.
    """
    if not (isinstance(g, (np.ndarray, np.generic))
            and g.shape == v.data.shape and g.dtype == v.data.dtype):
        raise ValueError(
            f"gradient {np.shape(g)} {getattr(g, 'dtype', type(g).__name__)}"
            f" does not match {v.name or 'Var'} {v.data.shape} {v.data.dtype}")
    if v.grad is None:
        v.grad = g
    else:
        v.grad = np.add(v.grad, g, out=np.empty_like(v.data))


def _out(x: Var, inplace: bool):
    """The `out=` of an op: x's array if opted in and not recording."""
    return x.data if inplace and not _grad_enabled else None


def from_op(out_data, parents, backward) -> Var:
    """Build a graph node, or a detached Var when recording is off.

    backward(grad_out) returns the gradients of parents, a tuple in parent
    order or a bare array for one parent; run_backward adds them in.
    """
    if not _grad_enabled:
        return Var(out_data)
    return Var(out_data, parents, backward)


def _spent(_grad):
    """The closure of a node that run_backward has consumed."""
    raise RuntimeError("graph already backpropagated; run the forward again")


def run_backward(root: Var, seed=None):
    """Backpropagate from root through the recorded graph, consuming it.

    Each interior node is freed once its closure has run: its grad becomes
    None, its closure a marker that raises RuntimeError if a later backward
    reaches it, and its parents (). Leaves keep the gradients added to them.
    """
    if seed is None:
        seed = np.ones_like(root.data)
    else:
        seed = np.asarray(seed, dtype=root.data.dtype)
    if seed.shape != root.data.shape:
        raise ValueError(f"seed shape {seed.shape} != root shape {root.data.shape}")

    topo: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        v, done = stack.pop()
        if done:
            topo.append(v)
            continue
        if id(v) in seen:
            continue
        if v._backward is _spent:
            _spent(None)  # before any gradient is added
        seen.add(id(v))
        stack.append((v, True))
        for p in v._parents:
            if id(p) not in seen:
                stack.append((p, False))

    accumulate(root, seed)
    while topo:
        # popping leaves the node to its consumers, which have all run and
        # dropped it, so rebinding v on the next pop frees it
        v = topo.pop()
        if v._backward is not None and v.grad is not None:
            grads = v._backward(v.grad)
            if not isinstance(grads, tuple):
                grads = (grads,)
            for p, g in zip(v._parents, grads, strict=True):
                accumulate(p, g)
            v.grad, v._backward, v._parents = None, _spent, ()
            grads = g = None  # free this node's gradients before the next runs


def zero_grads(params):
    for v in params:
        v.grad = None


# ---------------------------------------------------------------------------
# Recorded ops. Each pairs a kernel call with a closure that maps the output
# gradient to its parents' gradients.
# ---------------------------------------------------------------------------

def conv(x: Var, w: Var, b: Var, spec: ConvSpec) -> Var:
    xd = x.data
    p = LayerParams(w.data, b.data, spec)
    return from_op(ops.conv3d(xd, p), (x, w, b),
                   lambda g: ops.conv3d_backward(xd, p, g))


def tconv(x: Var, w: Var, b: Var, spec: ConvSpec) -> Var:
    xd = x.data
    p = LayerParams(w.data, b.data, spec)
    return from_op(ops.tconv3d(xd, p), (x, w, b),
                   lambda g: ops.tconv3d_backward(xd, p, g))


def batchnorm(x: Var, gamma: Var, beta: Var, bn: BatchNormState, mode: str,
              inplace: bool = False) -> Var:
    y, cache = ops.batchnorm3d(x.data, gamma.data, beta.data, bn, mode,
                               out=_out(x, inplace))
    return from_op(y, (x, gamma, beta),
                   lambda g: ops.batchnorm3d_backward(cache, g))


def relu(x: Var, inplace: bool = False) -> Var:
    xd = x.data
    return from_op(ops.relu(xd, out=_out(x, inplace)), (x,),
                   lambda g: ops.relu_backward(xd, g))


def sigmoid(x: Var) -> Var:
    y = ops.sigmoid(x.data)
    return from_op(y, (x,), lambda g: ops.sigmoid_backward(y, g))


def maxpool(x: Var, window) -> Var:
    in_shape = x.data.shape
    y, idx = ops.maxpool3d(x.data, window)
    return from_op(y, (x,),
                   lambda g: ops.maxpool3d_backward(idx, in_shape, window, g))


def dropout(x: Var, rate: float, mode: str, rng) -> Var:
    y, keep = ops.dropout(x.data, rate, mode, rng)
    return from_op(y, (x,), lambda g: ops.dropout_backward(keep, rate, g))


def concat(a: Var, b: Var) -> Var:
    ca = a.data.shape[1]
    return from_op(ops.concat_channels(a.data, b.data), (a, b),
                   lambda g: ops.concat_channels_backward(ca, g))


def slice_channels(x: Var, lo: int, hi: int) -> Var:
    y = np.ascontiguousarray(x.data[:, lo:hi])

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[:, lo:hi] = g
        return gx

    return from_op(y, (x,), bw)


def center_crop(x: Var, target) -> Var:
    in_shape = x.data.shape
    return from_op(ops.center_crop3d(x.data, target), (x,),
                   lambda g: ops.center_crop3d_backward(in_shape, target, g))


def pad(x: Var, spec) -> Var:
    return from_op(ops.pad3d(x.data, spec), (x,),
                   lambda g: ops.pad3d_backward(spec, g))


def add(a: Var, b: Var, inplace: bool = False) -> Var:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    return from_op(np.add(a.data, b.data, out=_out(b, inplace)), (a, b),
                   lambda g: (g, g))


def scale_by(x: Var, s: Var) -> Var:
    """Multiply a tensor by a learnable scalar (0-d or 1-element Var)."""
    sval = float(s.data)
    xd = x.data
    return from_op(xd * sval, (x, s), lambda g: (
        g * sval,
        np.asarray((g * xd).sum(), dtype=s.data.dtype).reshape(s.data.shape)))


def const_mul(x: Var, c: float) -> Var:
    return from_op(x.data * c, (x,), lambda g: g * c)


def channel_scale(x: Var, s: Var) -> Var:
    """Broadcast-multiply x (B, C, D, H, W) by a one-channel map s."""
    xd, sd = x.data, s.data
    return from_op(ops.channel_scale(xd, sd), (x, s),
                   lambda g: ops.channel_scale_backward(xd, sd, g))


def softmax_lastdim(x: Var) -> Var:
    y = ops.softmax_lastdim(x.data)
    return from_op(y, (x,), lambda g: ops.softmax_lastdim_backward(y, g))


def unfold(x: Var, window) -> Var:
    spatial = x.data.shape[2:]
    return from_op(ops.unfold_windows(x.data, window), (x,),
                   lambda g: ops.fold_windows(g, window, spatial))


def fold(t: Var, window, spatial) -> Var:
    return from_op(ops.fold_windows(t.data, window, spatial), (t,),
                   lambda g: ops.unfold_windows(g, window))


def matmul_qk(q: Var, k: Var) -> Var:
    """Token score matrix per window: (B,N,T,C) x (B,N,T,C) -> (B,N,T,T)."""
    qd, kd = q.data, k.data
    return from_op(qd @ kd.swapaxes(-1, -2), (q, k),
                   lambda g: (g @ kd, g.swapaxes(-1, -2) @ qd))


def matmul_av(a: Var, v: Var) -> Var:
    """Mix token values with attention weights: (B,N,T,T) x (B,N,T,C)."""
    ad, vd = a.data, v.data
    return from_op(ad @ vd, (a, v),
                   lambda g: (g @ vd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g))
