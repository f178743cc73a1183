"""Differentiable 3D primitives with explicit forward/backward pairs.

All kernels work on plain numpy arrays in (B, C, D, H, W) layout and preserve
the input dtype (f64 for gradient verification, f32 for training). Backward
functions return exact analytic gradients of their forward map; nothing here
is approximated.

Convolution is cross-correlation (no kernel flip). The conv family is one
shift-and-GEMM (kn2row) kernel and its adjoints. The input is zero-padded
once and the spatial axes of each stride phase (below; Dq x Hq x Wq voxels)
are flattened with row pitches Hq*Wq and Wq, so output voxel (i, j, k) sits
at flat column i*Hq*Wq + j*Wq + k and each kernel tap reads the input at
one fixed flat offset: one matmul of the tap's (O x C) matrix against a
contiguous column slice, accumulated into a preallocated output, with no
im2col buffer. Stride is a phase decomposition: each padded axis is extended
to a multiple of its stride s and split into s phases, and tap t with
dilation d reads phase (d*t) mod s at shift (d*t) div s (with dilation 2 and
stride 2 every tap reads phase 0). Columns with j >= out_h or k >= out_w are
gaps between output rows. The forward fills them with reads that wrap into
the next row and crops them away. The backward GEMMs read grad_out in the
same layout, so its gaps must be zero: a nonzero gap would scatter into the
input gradient and the weight gradient, and they would no longer be exact
adjoints of the forward.

tconv3d is the conv input gradient plus a bias; its input gradient is the
conv forward, and its weight gradient is the conv weight gradient with x and
grad_out swapped.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor import Tensor5


def as_nd(x) -> np.ndarray:
    """Accept a Tensor5 or ndarray and return the underlying ndarray."""
    if isinstance(x, Tensor5):
        return x.data
    return np.asarray(x)


def _triple(v) -> tuple[int, int, int]:
    if isinstance(v, (int, np.integer)):
        return (int(v),) * 3
    t = tuple(int(i) for i in v)
    if len(t) != 3:
        raise ValueError(f"expected 3 entries, got {t}")
    return t


# ---------------------------------------------------------------------------
# Specs and parameter containers
# ---------------------------------------------------------------------------

@dataclass
class ConvSpec:
    """Geometry of one convolution layer.

    Padding is symmetric zero-padding. For tconv3d the same fields describe
    the transposed operator; see tconv3d for the weight axis convention.
    """

    in_channels: int
    out_channels: int
    kernel: tuple = (3, 3, 3)
    stride: tuple = (1, 1, 1)
    dilation: tuple = (1, 1, 1)
    padding: tuple = (0, 0, 0)

    def __post_init__(self):
        self.kernel = _triple(self.kernel)
        self.stride = _triple(self.stride)
        self.dilation = _triple(self.dilation)
        self.padding = _triple(self.padding)
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be positive")
        if min(self.kernel) < 1 or min(self.stride) < 1 or min(self.dilation) < 1:
            raise ValueError("kernel/stride/dilation must be positive")
        if min(self.padding) < 0:
            raise ValueError("padding must be non-negative")

    def out_dims(self, spatial) -> tuple[int, int, int]:
        """Output spatial dims of the forward convolution."""
        out = []
        for x, k, s, d, p in zip(spatial, self.kernel, self.stride,
                                 self.dilation, self.padding):
            out.append((x + 2 * p - d * (k - 1) - 1) // s + 1)
        return tuple(out)

    def tconv_out_dims(self, spatial) -> tuple[int, int, int]:
        """Output spatial dims of the transposed convolution."""
        out = []
        for x, k, s, d, p in zip(spatial, self.kernel, self.stride,
                                 self.dilation, self.padding):
            out.append((x - 1) * s - 2 * p + d * (k - 1) + 1)
        return tuple(out)


@dataclass
class LayerParams:
    """Learnable weight/bias plus the layer geometry.

    weight: (C_out, C_in, kd, kh, kw) for conv3d. tconv3d reads the same
    buffer with axis 0 as its *input* channels and axis 1 as its output
    channels, which makes tconv3d with an identical weight array the exact
    adjoint of conv3d.
    bias: (C_out,) where C_out is the operator's output channel count.
    """

    weight: np.ndarray
    bias: np.ndarray
    spec: ConvSpec


@dataclass
class BatchNormState:
    """Per-channel affine parameters and running statistics.

    Normalization uses the biased variance estimator. Running stats are
    updated in train mode only: new = (1 - momentum) * old + momentum * batch.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1


def make_batchnorm(channels: int, dtype=np.float64, eps: float = 1e-5,
                   momentum: float = 0.1) -> BatchNormState:
    return BatchNormState(
        gamma=np.ones(channels, dtype=dtype),
        beta=np.zeros(channels, dtype=dtype),
        running_mean=np.zeros(channels, dtype=dtype),
        running_var=np.ones(channels, dtype=dtype),
        eps=eps,
        momentum=momentum,
    )


# ---------------------------------------------------------------------------
# Convolution family: one shift-and-GEMM kernel and its adjoints
# ---------------------------------------------------------------------------

class _TapPlan(NamedTuple):
    out: tuple   # forward output dims
    M: tuple     # phase lengths; each padded axis is M * stride long
    L: int       # pitched columns up to and including the last output voxel
    taps: list   # (kernel index, phase, flat offset into that phase)


def _tap_plan(spec: ConvSpec, spatial) -> _TapPlan:
    """Where every kernel tap of a conv over `spatial` input voxels reads."""
    out = spec.out_dims(spatial)
    M = tuple(-(-(n + 2 * p) // s)
              for n, p, s in zip(spatial, spec.padding, spec.stride))
    pitch = (M[1] * M[2], M[2], 1)
    taps = []
    for k in np.ndindex(*spec.kernel):
        qr = [divmod(t * d, s) for t, d, s in zip(k, spec.dilation, spec.stride)]
        taps.append((k, tuple(r for _, r in qr),
                     sum(q * c for (q, _), c in zip(qr, pitch))))
    return _TapPlan(out, M, 1 + sum((o - 1) * c for o, c in zip(out, pitch)), taps)


def _phases(x, spec: ConvSpec, plan: _TapPlan) -> dict:
    """Pad x once; return the flat (B, C, Md*Mh*Mw) phase buffers taps read."""
    xq = np.pad(x, [(0, 0), (0, 0)] + [
        (p, m * s - n - p) for n, p, s, m in
        zip(x.shape[2:], spec.padding, spec.stride, plan.M)])
    sd, sh, sw = spec.stride
    return {r: np.ascontiguousarray(xq[:, :, r[0]::sd, r[1]::sh, r[2]::sw])
            .reshape(x.shape[:2] + (-1,)) for r in {r for _, r, _ in plan.taps}}


def _pitched(g, plan: _TapPlan) -> np.ndarray:
    """g (B, C, *plan.out) in the pitched flat layout, zero in the gaps."""
    gp = np.zeros(g.shape[:3] + plan.M[1:], dtype=g.dtype)
    gp[..., :plan.out[1], :plan.out[2]] = g
    return gp.reshape(g.shape[:2] + (-1,))[..., :plan.L]


def _shift_gemm(xph: dict, w, plan: _TapPlan, dtype) -> np.ndarray:
    """Conv without bias: pitched y = sum_t W_t @ x_phase[off_t: off_t + L]."""
    B, O, L = next(iter(xph.values())).shape[0], w.shape[0], plan.L
    (od, oh, ow), (_, Mh, Mw) = plan.out, plan.M
    wt = np.ascontiguousarray(np.moveaxis(w, (0, 1), (3, 4)))
    yp = np.empty((B, O, od * Mh * Mw), dtype=dtype)
    y, tmp = yp[..., :L], np.empty((B, O, L), dtype=dtype)
    for i, (k, r, off) in enumerate(plan.taps):
        t = np.matmul(wt[k], xph[r][..., off: off + L], out=tmp if i else y)
        if i:
            y += t
    return yp.reshape(B, O, od, Mh, Mw)[..., :oh, :ow]


def _scatter_gemm(gyp, w, spec: ConvSpec, plan: _TapPlan, spatial, dtype):
    """Adjoint of _shift_gemm: W_t^T @ gy into the phases, re-interleaved."""
    B, C, L, M, s = gyp.shape[0], w.shape[1], plan.L, plan.M, spec.stride
    wt = np.ascontiguousarray(np.moveaxis(w, (0, 1), (3, 4)))
    g = np.zeros(s + (B, C, M[0] * M[1] * M[2]), dtype=dtype)
    tmp = np.empty((B, C, L), dtype=dtype)
    for k, r, off in plan.taps:
        g[r][..., off: off + L] += np.matmul(wt[k].T, gyp, out=tmp)
    g = g.reshape(s + (B, C) + M).transpose(3, 4, 5, 0, 6, 1, 7, 2).reshape(
        (B, C) + tuple(m * t for m, t in zip(M, s)))
    return g[(..., *(slice(p, p + n) for p, n in zip(spec.padding, spatial)))]


def _weight_gemm(gyp, xph: dict, plan: _TapPlan, w) -> np.ndarray:
    """gw_t = gy @ x_phase[off_t: off_t + L]^T, summed over the batch."""
    gw = np.empty_like(w)
    for k, r, off in plan.taps:
        xs = xph[r][..., off: off + plan.L]
        gw[(..., *k)] = np.matmul(gyp, xs.swapaxes(1, 2)).sum(axis=0)
    return gw


def conv3d(x, p: LayerParams) -> np.ndarray:
    """Strided, dilated 3D cross-correlation with zero padding and bias."""
    x, spec = as_nd(x), p.spec
    B, C, D, H, W = x.shape
    if C != spec.in_channels:
        raise ValueError(f"input has {C} channels, layer expects {spec.in_channels}")
    plan = _tap_plan(spec, (D, H, W))
    if min(plan.out) < 1:
        raise ValueError(f"conv output dims {plan.out} must all be >= 1")
    # Reserving the output before the temporaries keeps them from leaving
    # heap holes under it; its pages are first touched after they are freed.
    y = np.empty((B, spec.out_channels) + plan.out, dtype=x.dtype)
    return np.add(_shift_gemm(_phases(x, spec, plan), p.weight, plan, x.dtype),
                  p.bias[None, :, None, None, None], out=y)


def conv3d_backward(x, p: LayerParams, grad_out):
    """Gradients of conv3d w.r.t. input, weight and bias."""
    x, gy, spec = as_nd(x), as_nd(grad_out), p.spec
    B, C, D, H, W = x.shape
    plan = _tap_plan(spec, (D, H, W))
    if gy.shape != (B, spec.out_channels) + plan.out:
        raise ValueError(f"grad_out shape {gy.shape} does not match "
                         f"conv output {(B, spec.out_channels) + plan.out}")
    gyp = _pitched(gy, plan)
    gx = _scatter_gemm(gyp, p.weight, spec, plan, (D, H, W), x.dtype)
    gw = _weight_gemm(gyp, _phases(x, spec, plan), plan, p.weight)
    return np.ascontiguousarray(gx), gw, gy.sum(axis=(0, 2, 3, 4))


def tconv3d(x, p: LayerParams) -> np.ndarray:
    """Transposed convolution: the adjoint of conv3d plus a bias.

    Weight axes are (in_channels, out_channels, kd, kh, kw), so passing a
    conv3d weight unchanged yields that convolution's exact adjoint.
    """
    x, spec = as_nd(x), p.spec
    B, C, D, H, W = x.shape
    if C != spec.in_channels:
        raise ValueError(f"input has {C} channels, layer expects {spec.in_channels}")
    out = spec.tconv_out_dims((D, H, W))
    if min(out) < 1:
        raise ValueError(f"tconv output dims {out} must all be >= 1")
    plan = _tap_plan(spec, out)
    y = _scatter_gemm(_pitched(x, plan), p.weight, spec, plan, out, x.dtype)
    return y + p.bias[None, :, None, None, None]


def tconv3d_backward(x, p: LayerParams, grad_out):
    """Gradients of tconv3d w.r.t. input, weight and bias."""
    x, gy, spec = as_nd(x), as_nd(grad_out), p.spec
    B, C, D, H, W = x.shape
    out = spec.tconv_out_dims((D, H, W))
    if gy.shape != (B, spec.out_channels) + out:
        raise ValueError(f"grad_out shape {gy.shape} does not match "
                         f"tconv output {(B, spec.out_channels) + out}")
    plan = _tap_plan(spec, out)
    gyph = _phases(gy, spec, plan)
    gx = np.ascontiguousarray(_shift_gemm(gyph, p.weight, plan, x.dtype))
    gw = _weight_gemm(_pitched(x, plan), gyph, plan, p.weight)
    return gx, gw, gy.sum(axis=(0, 2, 3, 4))


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def maxpool3d(x, window):
    """Non-overlapping max pooling; returns (pooled, argmax indices).

    Ties go to the first index in (d, h, w) scan order, so the backward
    routing is deterministic.
    """
    x = as_nd(x)
    wd, wh, ww = _triple(window)
    B, C, D, H, W = x.shape
    if D % wd or H % wh or W % ww:
        raise ValueError(f"spatial dims {(D, H, W)} not divisible by window {(wd, wh, ww)}")
    od, oh, ow = D // wd, H // wh, W // ww
    flat = (x.reshape(B, C, od, wd, oh, wh, ow, ww)
            .transpose(0, 1, 2, 4, 6, 3, 5, 7)
            .reshape(B, C, od, oh, ow, wd * wh * ww))
    idx = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    return y, idx


def maxpool3d_backward(idx, in_shape, window, grad_out):
    """Route grad_out to the argmax voxel of each pooling window."""
    gy = as_nd(grad_out)
    wd, wh, ww = _triple(window)
    B, C, D, H, W = in_shape
    od, oh, ow = D // wd, H // wh, W // ww
    flat = np.zeros((B, C, od, oh, ow, wd * wh * ww), dtype=gy.dtype)
    np.put_along_axis(flat, idx[..., None], gy[..., None], axis=-1)
    gx = (flat.reshape(B, C, od, oh, ow, wd, wh, ww)
          .transpose(0, 1, 2, 5, 3, 6, 4, 7)
          .reshape(B, C, D, H, W))
    return np.ascontiguousarray(gx)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

_BN_AXES = (0, 2, 3, 4)


def _ch(v):
    return v[None, :, None, None, None]


def batchnorm3d(x, state: BatchNormState, mode: str):
    """Per-channel batch normalization; returns (y, cache).

    Train mode normalizes by batch statistics over (B, D, H, W) and updates
    the running stats in place; eval mode normalizes by the running stats.
    """
    x = as_nd(x)
    C = x.shape[1]
    if state.gamma.shape[0] != C:
        raise ValueError(f"batchnorm has {state.gamma.shape[0]} channels, input has {C}")
    if mode == "train":
        mu = x.mean(axis=_BN_AXES)
        var = x.var(axis=_BN_AXES)
        invstd = 1.0 / np.sqrt(var + state.eps)
        xhat = (x - _ch(mu)) * _ch(invstd)
        m = state.momentum
        state.running_mean = ((1 - m) * state.running_mean + m * mu).astype(
            state.running_mean.dtype)
        state.running_var = ((1 - m) * state.running_var + m * var).astype(
            state.running_var.dtype)
    elif mode == "eval":
        invstd = 1.0 / np.sqrt(state.running_var + state.eps)
        xhat = (x - _ch(state.running_mean)) * _ch(invstd)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    y = _ch(state.gamma) * xhat + _ch(state.beta)
    cache = (xhat, invstd, state.gamma, mode)
    return y, cache


def batchnorm3d_backward(cache, grad_out):
    """Gradients of batchnorm3d w.r.t. input, gamma and beta."""
    xhat, invstd, gamma, mode = cache
    gy = as_nd(grad_out)
    dgamma = (gy * xhat).sum(axis=_BN_AXES)
    dbeta = gy.sum(axis=_BN_AXES)
    gxhat = gy * _ch(gamma)
    if mode == "train":
        # Batch statistics depend on x, so their gradients feed back in.
        mean_g = gxhat.mean(axis=_BN_AXES)
        mean_gx = (gxhat * xhat).mean(axis=_BN_AXES)
        gx = _ch(invstd) * (gxhat - _ch(mean_g) - xhat * _ch(mean_gx))
    else:
        gx = gxhat * _ch(invstd)
    return gx, dgamma, dbeta


# ---------------------------------------------------------------------------
# Activations, softmax, dropout
# ---------------------------------------------------------------------------

def relu(x):
    x = as_nd(x)
    return np.maximum(x, 0)


def relu_backward(x, grad_out):
    return as_nd(grad_out) * (as_nd(x) > 0)


def sigmoid(x):
    x = as_nd(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(y, grad_out):
    """Backward from the forward output y = sigmoid(x)."""
    y = as_nd(y)
    return as_nd(grad_out) * y * (1.0 - y)


def activation(x, kind: str):
    if kind == "relu":
        return relu(x)
    if kind == "sigmoid":
        return sigmoid(x)
    raise ValueError(f"unknown activation {kind!r}")


def softmax_lastdim(scores):
    """Row-wise softmax over the last axis with max-subtraction."""
    s = as_nd(scores)
    if s.shape[-1] < 1:
        raise ValueError("softmax needs at least one column")
    shifted = s - s.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_lastdim_backward(y, grad_out):
    """Backward from the forward output y = softmax(scores)."""
    y = as_nd(y)
    g = as_nd(grad_out)
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - dot)


def dropout(x, rate: float, mode: str, rng):
    """Inverted dropout; returns (y, keep_mask). Eval mode is the identity."""
    x = as_nd(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if mode == "eval" or rate == 0.0:
        return x, None
    if mode != "train":
        raise ValueError(f"unknown mode {mode!r}")
    keep = rng.random(x.shape) >= rate
    return x * keep / (1.0 - rate), keep


def dropout_backward(keep, rate: float, grad_out):
    gy = as_nd(grad_out)
    if keep is None:
        return gy
    return gy * keep / (1.0 - rate)


# ---------------------------------------------------------------------------
# Channel / spatial rearrangement
# ---------------------------------------------------------------------------

def concat_channels(a, b) -> np.ndarray:
    """Concatenate along the channel axis; a's channels come first."""
    a = as_nd(a)
    b = as_nd(b)
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ValueError(f"batch/spatial mismatch: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1)


def concat_channels_backward(c_a: int, grad_out):
    gy = as_nd(grad_out)
    return gy[:, :c_a], gy[:, c_a:]


def center_crop3d(x, target):
    """Spatially centered crop; odd margins drop the extra high-index voxel."""
    x = as_nd(x)
    td, th, tw = _triple(target)
    B, C, D, H, W = x.shape
    if td > D or th > H or tw > W:
        raise ValueError(f"crop target {(td, th, tw)} exceeds input {(D, H, W)}")
    od, oh, ow = (D - td) // 2, (H - th) // 2, (W - tw) // 2
    return np.ascontiguousarray(
        x[:, :, od: od + td, oh: oh + th, ow: ow + tw])


def center_crop3d_backward(in_shape, target, grad_out):
    gy = as_nd(grad_out)
    td, th, tw = _triple(target)
    B, C, D, H, W = in_shape
    od, oh, ow = (D - td) // 2, (H - th) // 2, (W - tw) // 2
    gx = np.zeros(in_shape, dtype=gy.dtype)
    gx[:, :, od: od + td, oh: oh + th, ow: ow + tw] = gy
    return gx


def pad3d(x, pad):
    """Zero-pad spatial axes; pad is ((lo, hi), (lo, hi), (lo, hi))."""
    x = as_nd(x)
    (d0, d1), (h0, h1), (w0, w1) = pad
    return np.pad(x, ((0, 0), (0, 0), (d0, d1), (h0, h1), (w0, w1)))


def pad3d_backward(pad, grad_out):
    gy = as_nd(grad_out)
    (d0, d1), (h0, h1), (w0, w1) = pad
    _, _, D, H, W = gy.shape
    return np.ascontiguousarray(
        gy[:, :, d0: D - d1, h0: H - h1, w0: W - w1])


def channel_scale(x, s):
    """Multiply x (B, C, D, H, W) by a one-channel map s (B, 1, D, H, W)."""
    x = as_nd(x)
    s = as_nd(s)
    if s.shape[1] != 1 or s.shape[0] != x.shape[0] or s.shape[2:] != x.shape[2:]:
        raise ValueError(f"scale map shape {s.shape} incompatible with {x.shape}")
    return x * s


def channel_scale_backward(x, s, grad_out):
    gy = as_nd(grad_out)
    gx = gy * as_nd(s)
    gs = (gy * as_nd(x)).sum(axis=1, keepdims=True)
    return gx, gs


# ---------------------------------------------------------------------------
# Window unfold / fold
# ---------------------------------------------------------------------------

def unfold_windows(x, window) -> np.ndarray:
    """Partition a volume into non-overlapping windows of tokens.

    Returns (B, N, N_w, C): N windows ordered lexicographically by block
    index (d, h, w), N_w tokens per window ordered lexicographically by
    offset (d, h, w), channels last.
    """
    x = as_nd(x)
    wd, wh, ww = _triple(window)
    B, C, D, H, W = x.shape
    if D % wd or H % wh or W % ww:
        raise ValueError(f"spatial dims {(D, H, W)} not divisible by window {(wd, wh, ww)}")
    nd, nh, nw = D // wd, H // wh, W // ww
    t = x.reshape(B, C, nd, wd, nh, wh, nw, ww)
    t = t.transpose(0, 2, 4, 6, 3, 5, 7, 1)
    return np.ascontiguousarray(t.reshape(B, nd * nh * nw, wd * wh * ww, C))


def fold_windows(tokens, window, spatial) -> np.ndarray:
    """Exact inverse of unfold_windows."""
    t = as_nd(tokens)
    wd, wh, ww = _triple(window)
    D, H, W = _triple(spatial)
    nd, nh, nw = D // wd, H // wh, W // ww
    B, N, NW, C = t.shape
    if D % wd or H % wh or W % ww:
        raise ValueError(f"spatial dims {(D, H, W)} not divisible by window {(wd, wh, ww)}")
    if N != nd * nh * nw or NW != wd * wh * ww:
        raise ValueError(
            f"token tensor {(N, NW)} inconsistent with window {(wd, wh, ww)} "
            f"over {(D, H, W)}")
    t = t.reshape(B, nd, nh, nw, wd, wh, ww, C)
    t = t.transpose(0, 7, 1, 4, 2, 5, 3, 6)
    return np.ascontiguousarray(t.reshape(B, C, D, H, W))
