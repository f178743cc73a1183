"""Reverse-mode autodiff over the 3D kernels in ops.

A Var wraps an ndarray plus the closure that routes its upstream gradient to
its parents. Calling backward() on a scalar-producing graph runs the closures
in reverse topological order and accumulates into Var.grad. Parameters are
long-lived leaf Vars whose .data the optimizer updates in place.

Inside a no_grad() block ops return detached Vars, so large inference
forwards do not retain intermediate buffers.
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


def grad_on() -> bool:
    return _grad_enabled


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

    def detach(self) -> "Var":
        return Var(self.data)

    def backward(self, seed=None):
        run_backward(self, seed)

    def __repr__(self):
        return f"Var(shape={self.data.shape}, name={self.name!r})"


def accumulate(v: Var, g: np.ndarray):
    if v.grad is None:
        v.grad = np.zeros_like(v.data)
    v.grad += g


def from_op(out_data, parents, backward) -> Var:
    """Build a graph node, or a detached Var when recording is off."""
    if not _grad_enabled:
        return Var(out_data)
    return Var(out_data, parents, backward)


def run_backward(root: Var, seed=None):
    """Backpropagate from root through the recorded graph."""
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
        seen.add(id(v))
        stack.append((v, True))
        for p in v._parents:
            if id(p) not in seen:
                stack.append((p, False))

    accumulate(root, seed)
    for v in reversed(topo):
        if v._backward is not None and v.grad is not None:
            v._backward(v.grad)


def zero_grads(params):
    for v in params:
        v.grad = None


# ---------------------------------------------------------------------------
# Recorded ops. Each pairs a kernel call with its gradient routing.
# ---------------------------------------------------------------------------

def conv(x: Var, w: Var, b: Var, spec: ConvSpec) -> Var:
    xd = x.data
    p = LayerParams(w.data, b.data, spec)
    y = ops.conv3d(xd, p)

    def bw(g):
        gx, gw, gb = ops.conv3d_backward(xd, p, g)
        accumulate(x, gx)
        accumulate(w, gw)
        accumulate(b, gb)

    return from_op(y, (x, w, b), bw)


def tconv(x: Var, w: Var, b: Var, spec: ConvSpec) -> Var:
    xd = x.data
    p = LayerParams(w.data, b.data, spec)
    y = ops.tconv3d(xd, p)

    def bw(g):
        gx, gw, gb = ops.tconv3d_backward(xd, p, g)
        accumulate(x, gx)
        accumulate(w, gw)
        accumulate(b, gb)

    return from_op(y, (x, w, b), bw)


def batchnorm(x: Var, gamma: Var, beta: Var, bn: BatchNormState, mode: str) -> Var:
    y, cache = ops.batchnorm3d(x.data, gamma.data, beta.data, bn, mode)

    def bw(g):
        gx, dgamma, dbeta = ops.batchnorm3d_backward(cache, g)
        accumulate(x, gx)
        accumulate(gamma, dgamma)
        accumulate(beta, dbeta)

    return from_op(y, (x, gamma, beta), bw)


def relu(x: Var) -> Var:
    xd = x.data
    y = ops.relu(xd)

    def bw(g):
        accumulate(x, ops.relu_backward(xd, g))

    return from_op(y, (x,), bw)


def sigmoid(x: Var) -> Var:
    y = ops.sigmoid(x.data)

    def bw(g):
        accumulate(x, ops.sigmoid_backward(y, g))

    return from_op(y, (x,), bw)


def maxpool(x: Var, window) -> Var:
    in_shape = x.data.shape
    y, idx = ops.maxpool3d(x.data, window)

    def bw(g):
        accumulate(x, ops.maxpool3d_backward(idx, in_shape, window, g))

    return from_op(y, (x,), bw)


def dropout(x: Var, rate: float, mode: str, rng) -> Var:
    y, keep = ops.dropout(x.data, rate, mode, rng)
    if keep is None and mode == "eval":
        # Identity path still must flow gradient when recording.
        def bw_id(g):
            accumulate(x, g)

        return from_op(y, (x,), bw_id)

    def bw(g):
        accumulate(x, ops.dropout_backward(keep, rate, g))

    return from_op(y, (x,), bw)


def concat(a: Var, b: Var) -> Var:
    ca = a.data.shape[1]
    y = ops.concat_channels(a.data, b.data)

    def bw(g):
        ga, gb = ops.concat_channels_backward(ca, g)
        accumulate(a, ga)
        accumulate(b, gb)

    return from_op(y, (a, b), bw)


def slice_channels(x: Var, lo: int, hi: int) -> Var:
    y = np.ascontiguousarray(x.data[:, lo:hi])

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[:, lo:hi] = g
        accumulate(x, gx)

    return from_op(y, (x,), bw)


def center_crop(x: Var, target) -> Var:
    in_shape = x.data.shape
    y = ops.center_crop3d(x.data, target)

    def bw(g):
        accumulate(x, ops.center_crop3d_backward(in_shape, target, g))

    return from_op(y, (x,), bw)


def pad(x: Var, spec) -> Var:
    y = ops.pad3d(x.data, spec)

    def bw(g):
        accumulate(x, ops.pad3d_backward(spec, g))

    return from_op(y, (x,), bw)


def add(a: Var, b: Var) -> Var:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    y = a.data + b.data

    def bw(g):
        accumulate(a, g)
        accumulate(b, g)

    return from_op(y, (a, b), bw)


def scale_by(x: Var, s: Var) -> Var:
    """Multiply a tensor by a learnable scalar (0-d or 1-element Var)."""
    sval = float(s.data)
    xd = x.data
    y = xd * sval

    def bw(g):
        accumulate(x, g * sval)
        accumulate(s, np.asarray((g * xd).sum(), dtype=s.data.dtype).reshape(s.data.shape))

    return from_op(y, (x, s), bw)


def const_mul(x: Var, c: float) -> Var:
    y = x.data * c

    def bw(g):
        accumulate(x, g * c)

    return from_op(y, (x,), bw)


def channel_scale(x: Var, s: Var) -> Var:
    """Broadcast-multiply x (B, C, D, H, W) by a one-channel map s."""
    xd, sd = x.data, s.data
    y = ops.channel_scale(xd, sd)

    def bw(g):
        gx, gs = ops.channel_scale_backward(xd, sd, g)
        accumulate(x, gx)
        accumulate(s, gs)

    return from_op(y, (x, s), bw)


def softmax_lastdim(x: Var) -> Var:
    y = ops.softmax_lastdim(x.data)

    def bw(g):
        accumulate(x, ops.softmax_lastdim_backward(y, g))

    return from_op(y, (x,), bw)


def unfold(x: Var, window) -> Var:
    spatial = x.data.shape[2:]
    y = ops.unfold_windows(x.data, window)

    def bw(g):
        accumulate(x, ops.fold_windows(g, window, spatial))

    return from_op(y, (x,), bw)


def fold(t: Var, window, spatial) -> Var:
    y = ops.fold_windows(t.data, window, spatial)

    def bw(g):
        accumulate(t, ops.unfold_windows(g, window))

    return from_op(y, (t,), bw)


def matmul_qk(q: Var, k: Var) -> Var:
    """Token score matrix per window: (B,N,T,C) x (B,N,T,C) -> (B,N,T,T)."""
    qd, kd = q.data, k.data
    y = qd @ kd.swapaxes(-1, -2)

    def bw(g):
        accumulate(q, g @ kd)
        accumulate(k, g.swapaxes(-1, -2) @ qd)

    return from_op(y, (q, k), bw)


def matmul_av(a: Var, v: Var) -> Var:
    """Mix token values with attention weights: (B,N,T,T) x (B,N,T,C)."""
    ad, vd = a.data, v.data
    y = ad @ vd

    def bw(g):
        accumulate(a, g @ vd.swapaxes(-1, -2))
        accumulate(v, ad.swapaxes(-1, -2) @ g)

    return from_op(y, (a, v), bw)
