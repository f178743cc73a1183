"""Differentiable 3D primitives with explicit forward/backward pairs.

All kernels work on plain numpy arrays in (B, C, D, H, W) layout and preserve
the input dtype (f64 for gradient verification, f32 for training). Backward
functions return exact analytic gradients of their forward map; nothing here
is approximated.

Convolution is cross-correlation (no kernel flip). The conv family is one
shift-and-GEMM (kn2row) loop. The input is zero-padded once and the spatial
axes of each stride phase (below; Dq x Hq x Wq voxels) are flattened with row
pitches Hq*Wq and Wq, so output voxel (i, j, k) sits at flat column
i*Hq*Wq + j*Wq + k and each kernel tap reads the input at one fixed flat
offset: one matmul of the tap's (O x C) matrix against a contiguous column
slice, accumulated into a preallocated output, with no im2col buffer. Stride
is a phase decomposition: each padded axis is extended to a multiple of its
stride s and split into s phases, and tap t with dilation d reads phase
(d*t) mod s at shift (d*t) div s (with dilation 2 and stride 2 every tap reads
phase 0). Columns with j >= out_h or k >= out_w are gaps between output rows.
The forward fills them with reads that wrap into the next row and crops them
away. The backward reads grad_out in the same layout, so its gaps must be
zero, or the gradients would not be exact adjoints of the forward.

The input gradient is the same loop once per phase that taps read: a
transposed conv is a direct conv with the transposed kernel, one
sub-convolution per stride phase. Column n of phase r sums W_t^T @
gy[n - off_t] over the taps t that read r. grad_out is pitched after `lead`
zero columns, the largest tap offset, so tap t reads it at the fixed offset
lead - off_t + n. Only the columns that land inside the unpadded input are
computed; a phase no tap reads stays zero. tconv3d is this input gradient
plus a bias; its input gradient is the conv forward, and its weight gradient
the conv weight gradient with x and grad_out swapped.

The loop runs over blocks of destination columns with the taps inside, so
each tap's GEMM and its += touch one block that stays in L2 instead of
streaming the whole accumulator once per tap. Every output element still
receives its tap terms one at a time in tap order, so blocking moves no
result bit, except inside BLAS: a one-row GEMM runs as a GEMV, which OpenBLAS
splits across threads, so a result with one channel can depend in the last
bit on the columns of the call.

The weight gradient is a sum over the L columns, blocked over them: per block
and batch item, one (O x nb) @ (nb x C) GEMM per tap on views adds into a
(taps, O, C) accumulator, so the block of grad_out and each tap's phase slice
stay in L2. Blocking reorders that sum, so it rounds differently from one GEMM
per tap over all L columns (about 5e-7 relative in f32), but it is the same
bytes from one run to the next.

Thin layers stack taps. A tap GEMM with fewer than 5 input rows C (and at
least as many output rows) is a rank-C update, dominated by the += after it.
The loop then copies the slices of g = 9 // C taps, in order, into one
(g*C)-row operand per column block and issues one GEMM with their (O x g*C)
weight block: at C = 1 a kh x kw plane of a 3x3x3 kernel is one GEMM, in the
forward of a 1-input-channel layer and the input gradient of a 1-output one.
Within a group the tap terms are summed inside BLAS, so the result rounds
differently from one GEMM per tap.

Small layers skip all of the above: when the B*T*C*n-element stack of all T
taps' slices fits one core's 2 MiB L2, the loop is one GEMM against the tap
matrices reshaped to (O, C*T), whose column c*T + t meets the stack's row for
channel c of tap t, and the weight gradient is one gy @ stack^T over the
batch. Below that budget, T GEMMs and += passes cost more than the copy.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def _triple(v) -> tuple[int, int, int]:
    if isinstance(v, (int, np.integer)):
        return (int(v),) * 3
    t = tuple(int(i) for i in v)
    if len(t) != 3:
        raise ValueError(f"expected 3 entries, got {t}")
    return t


def _window_grid(spatial, window):
    """(window, grid): the window as a triple and the count of windows
    along each axis of `spatial`, which the window must tile exactly."""
    dims, win = _triple(spatial), _triple(window)
    if any(d % w for d, w in zip(dims, win)):
        raise ValueError(f"spatial dims {dims} not divisible by window {win}")
    return win, tuple(d // w for d, w in zip(dims, win))


# ---------------------------------------------------------------------------
# Specs and parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
        for name in ("kernel", "stride", "dilation", "padding"):
            object.__setattr__(self, name, _triple(getattr(self, name)))
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
    """Per-channel running statistics of one batchnorm layer; the learnable
    gain and offset are passed to batchnorm3d by the layer that owns them.

    Normalization uses the biased variance estimator. Running stats are
    updated in train mode only: new = (1 - momentum) * old + momentum * batch.
    """

    running_mean: np.ndarray
    running_var: np.ndarray


# ---------------------------------------------------------------------------
# Convolution family: one shift-and-GEMM kernel and its adjoints
# ---------------------------------------------------------------------------

class _TapPlan(NamedTuple):
    out: tuple    # forward output dims
    M: tuple      # phase lengths; each padded axis is M * stride long
    L: int        # pitched columns up to and including the last output voxel
    taps: tuple   # (phase, flat offset into that phase), in kernel order
    lead: int     # zero columns before pitched grad_out: the largest offset
    reads: tuple  # per read phase: (phase, its taps, span a, e, gy offsets)


@functools.lru_cache(maxsize=256)
def _tap_plan(spec: ConvSpec, spatial: tuple) -> _TapPlan:
    """Where every kernel tap of a conv over `spatial` input voxels reads."""
    out, stride, padding = spec.out_dims(spatial), spec.stride, spec.padding
    M = tuple(-(-(n + 2 * p) // s) for n, p, s in zip(spatial, padding, stride))
    pitch = (M[1] * M[2], M[2], 1)
    taps = []
    for k in np.ndindex(*spec.kernel):
        q, r = np.divmod(np.multiply(k, spec.dilation), stride)
        taps.append((tuple(int(i) for i in r), int(np.dot(q, pitch))))
    lead, reads = max(off for _, off in taps), []
    for r in dict.fromkeys(r for r, _ in taps):
        # the first and last m of phase r's padded voxels r + s*m in the input
        lo = -(np.subtract(r, padding) // stride)
        hi = (np.add(padding, spatial) - 1 - r) // stride
        if (lo <= hi).all():
            a = int(np.dot(lo, pitch))
            idx = tuple(t for t, (q, _) in enumerate(taps) if q == r)
            reads.append((r, idx if len(idx) < len(taps) else slice(None), a,
                          1 + int(np.dot(hi, pitch)),
                          tuple(lead - taps[t][1] + a for t in idx)))
    return _TapPlan(out, M, 1 + sum((o - 1) * c for o, c in zip(out, pitch)),
                    tuple(taps), lead, tuple(reads))


def _phases(x, spec: ConvSpec, plan: _TapPlan) -> dict:
    """Pad x once; return the flat (B, C, Md*Mh*Mw) phase buffers taps read."""
    xq = np.zeros(x.shape[:2] + tuple(np.multiply(plan.M, spec.stride)),
                  dtype=x.dtype)
    xq[(..., *map(slice, spec.padding, np.add(spec.padding, x.shape[2:])))] = x
    sd, sh, sw = spec.stride
    return {r: np.ascontiguousarray(xq[:, :, r[0]::sd, r[1]::sh, r[2]::sw])
            .reshape(x.shape[:2] + (-1,)) for r in {r for r, _ in plan.taps}}


def _pitched(g, plan: _TapPlan) -> np.ndarray:
    """g (B, C, *plan.out) pitched after plan.lead zero columns, zero gaps."""
    gp = np.zeros(g.shape[:2] + (plan.lead + int(np.prod(plan.M)),), g.dtype)
    gp[..., plan.lead:].reshape(g.shape[:2] + plan.M)[
        (..., *map(slice, plan.out))] = g
    return gp


def _block_cols(acc_rows: int, in_rows: int, itemsize: int) -> int:
    """Columns per block of the GEMM loops: destination columns of the
    shift-GEMM, reduction columns of the weight gradient (grad_out rows
    count as acc_rows and input rows as in_rows).

    A block's accumulator, scratch and input rows fit in about 512 KiB of L2;
    below 4096 columns a call costs more in dispatch than the cache saves.
    Blocks are whole multiples of 1024 columns, so a block ends inside a BLAS
    vector group only where the unblocked call ended: OpenBLAS rounds the
    columns of such a tail group differently.
    """
    col_bytes = (2 * acc_rows + in_rows) * itemsize
    return 1024 * max(4, (512 << 10) // (1024 * col_bytes))


def _one_gemm(B: int, T: int, C: int, L: int, itemsize: int) -> bool:
    """Whether a layer is small: its tap stack fits one core's 2 MiB L2."""
    return B * T * C * L * itemsize <= 2 << 20


def _stack(views) -> np.ndarray:
    """Row c*T + t of this (B, C*T, n) stack is channel c of tap t's view;
    a single tap's view is read in place."""
    B, _, n = views[0].shape
    return views[0] if len(views) == 1 else np.stack(views, axis=2).reshape(
        B, -1, n)


def _tap_group(C: int, O: int) -> int:
    """Taps per GEMM of the shift-GEMM, for C input and O output channels
    per tap.

    Stacking copies g*C rows per column to save g - 1 += passes over O rows.
    With O < C the copy costs more than it saves (a one-row GEMM is a GEMV
    that streams its operand), and from C = 5 up a tap's GEMM is wide enough.
    """
    return max(1, 9 // C) if O >= C else 1


def _shift_gemm(views, wk, out) -> None:
    """Fill out (B, O, n) with sum_t wk[:, :, t] @ views[t], for the (O, C, T)
    tap matrices wk and each tap's (B, C, n) view of its shifted input."""
    (B, O, n), C = out.shape, wk.shape[1]
    if _one_gemm(B, len(views), C, n, out.itemsize):
        np.matmul(wk.reshape(O, -1), _stack(views), out=out)
        return
    wt = np.ascontiguousarray(np.moveaxis(wk, 2, 0))
    g = _tap_group(C, O)
    nb = min(n, _block_cols(B * O, B * g * C, out.itemsize))
    tmp = np.empty((B, O, nb), dtype=out.dtype)
    # Taps go in groups of g, in order: one (O, g*C) weight block per group
    # and, per column block, one (B, g*C, nb) operand copied from the group's
    # views (the block rule counts its rows as input rows). A one-tap group
    # reads its view in place: with g = 1, one GEMM and one += per tap.
    stack = np.empty((B, g * C, nb), dtype=out.dtype) if g > 1 else None
    groups = [(np.concatenate(wt[i:i + g], axis=1), views[i:i + g])
              for i in range(0, len(views), g)]

    def operand(grp, a, e):
        if len(grp) == 1:
            return grp[0][..., a:e]
        xs = stack[:, :len(grp) * C, :e - a]
        for j, v in enumerate(grp):
            xs[:, j * C: (j + 1) * C] = v[..., a:e]
        return xs

    (w0, x0), *rest = groups
    for a in range(0, n, nb):
        e = min(a + nb, n)
        yb, tb = out[..., a:e], tmp if e - a == nb else tmp[..., :e - a]
        np.matmul(w0, operand(x0, a, e), out=yb)
        for wg, grp in rest:
            yb += np.matmul(wg, operand(grp, a, e), out=tb)


def _forward(xph: dict, w, plan: _TapPlan) -> np.ndarray:
    """Conv without bias from the phase buffers, cropped to plan.out."""
    x0, O = next(iter(xph.values())), w.shape[0]
    (B, C, _), (od, oh, ow), (_, Mh, Mw) = x0.shape, plan.out, plan.M
    yp = np.empty((B, O, od * Mh * Mw), dtype=x0.dtype)
    _shift_gemm([xph[r][..., off: off + plan.L] for r, off in plan.taps],
                w.reshape(O, C, -1), yp[..., :plan.L])
    return yp.reshape(B, O, od, Mh, Mw)[..., :oh, :ow]


def _adjoint(gp, w, spec: ConvSpec, plan: _TapPlan, spatial) -> np.ndarray:
    """Adjoint of _forward from gp = _pitched(gy): phase r of the padded
    result is sum_t W_t^T @ gy[n - off_t] over the taps t that read r."""
    B, (O, C), M, s = gp.shape[0], w.shape[:2], plan.M, spec.stride
    g = np.zeros(s + (B, C, M[0] * M[1] * M[2]), dtype=gp.dtype)
    wt = np.ascontiguousarray(w.swapaxes(0, 1)).reshape(C, O, -1)
    for r, idx, a, e, offs in plan.reads:
        _shift_gemm([gp[..., o: o + e - a] for o in offs], wt[..., idx],
                    g[r][..., a:e])
    g = g.reshape(s + (B, C) + M).transpose(3, 4, 5, 0, 6, 1, 7, 2).reshape(
        (B, C) + tuple(m * t for m, t in zip(M, s)))
    return g[(..., *(slice(p, p + n) for p, n in zip(spec.padding, spatial)))]


def _weight_gemm(gp, xph: dict, plan: _TapPlan, w) -> np.ndarray:
    """gw_t = gy @ x_phase[off_t: off_t + L]^T, summed over the batch, from
    gp = _pitched(gy)."""
    gyp = gp[..., plan.lead: plan.lead + plan.L]
    views = [xph[r][..., off: off + plan.L] for r, off in plan.taps]
    (B, O, L), C = gyp.shape, w.shape[1]
    if _one_gemm(B, len(views), C, L, gyp.itemsize):
        st = _stack(views).transpose(0, 2, 1)
        return np.matmul(gyp, st).sum(axis=0, dtype=w.dtype).reshape(w.shape)
    acc = np.zeros((len(views), O, C), dtype=w.dtype)
    tmp = np.empty((O, C), dtype=gyp.dtype)
    nb = min(L, _block_cols(B * O, B * C, gyp.itemsize))
    for a in range(0, L, nb):
        e = min(a + nb, L)
        for b in range(B):
            gb = gyp[b, :, a:e]
            for t, v in enumerate(views):
                acc[t] += np.matmul(gb, v[b, :, a:e].T, out=tmp)
    return acc.transpose(1, 2, 0).reshape(w.shape)


def conv3d(x, p: LayerParams) -> np.ndarray:
    """Strided, dilated 3D cross-correlation with zero padding and bias."""
    spec = p.spec
    B, C, D, H, W = x.shape
    if C != spec.in_channels:
        raise ValueError(f"input has {C} channels, layer expects {spec.in_channels}")
    plan = _tap_plan(spec, (D, H, W))
    if min(plan.out) < 1:
        raise ValueError(f"conv output dims {plan.out} must all be >= 1")
    # Reserving the output before the temporaries keeps them from leaving
    # heap holes under it; its pages are first touched after they are freed.
    y = np.empty((B, spec.out_channels) + plan.out, dtype=x.dtype)
    return np.add(_forward(_phases(x, spec, plan), p.weight, plan),
                  p.bias[None, :, None, None, None], out=y)


def conv3d_backward(x, p: LayerParams, grad_out):
    """Gradients of conv3d w.r.t. input, weight and bias."""
    spec = p.spec
    B, C, D, H, W = x.shape
    plan = _tap_plan(spec, (D, H, W))
    if grad_out.shape != (B, spec.out_channels) + plan.out:
        raise ValueError(f"grad_out shape {grad_out.shape} does not match "
                         f"conv output {(B, spec.out_channels) + plan.out}")
    gp = _pitched(grad_out, plan)
    gx = _adjoint(gp, p.weight, spec, plan, (D, H, W))
    gw = _weight_gemm(gp, _phases(x, spec, plan), plan, p.weight)
    return np.ascontiguousarray(gx), gw, grad_out.sum(axis=(0, 2, 3, 4))


def tconv3d(x, p: LayerParams) -> np.ndarray:
    """Transposed convolution: the adjoint of conv3d plus a bias.

    Weight axes are (in_channels, out_channels, kd, kh, kw), so passing a
    conv3d weight unchanged yields that convolution's exact adjoint.
    """
    spec = p.spec
    B, C, D, H, W = x.shape
    if C != spec.in_channels:
        raise ValueError(f"input has {C} channels, layer expects {spec.in_channels}")
    out = spec.tconv_out_dims((D, H, W))
    if min(out) < 1:
        raise ValueError(f"tconv output dims {out} must all be >= 1")
    plan = _tap_plan(spec, out)
    y = _adjoint(_pitched(x, plan), p.weight, spec, plan, out)
    return y + p.bias[None, :, None, None, None]


def tconv3d_backward(x, p: LayerParams, grad_out):
    """Gradients of tconv3d w.r.t. input, weight and bias."""
    spec = p.spec
    B, C, D, H, W = x.shape
    out = spec.tconv_out_dims((D, H, W))
    if grad_out.shape != (B, spec.out_channels) + out:
        raise ValueError(f"grad_out shape {grad_out.shape} does not match "
                         f"tconv output {(B, spec.out_channels) + out}")
    plan = _tap_plan(spec, out)
    gyph = _phases(grad_out, spec, plan)
    gx = np.ascontiguousarray(_forward(gyph, p.weight, plan))
    gw = _weight_gemm(_pitched(x, plan), gyph, plan, p.weight)
    return gx, gw, grad_out.sum(axis=(0, 2, 3, 4))


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def maxpool3d(x, window):
    """Non-overlapping max pooling; returns (pooled, argmax indices).

    Ties go to the first index in (d, h, w) scan order, so the backward
    routing is deterministic.
    """
    (wd, wh, ww), (od, oh, ow) = _window_grid(x.shape[2:], window)
    B, C = x.shape[:2]
    flat = (x.reshape(B, C, od, wd, oh, wh, ow, ww)
            .transpose(0, 1, 2, 4, 6, 3, 5, 7)
            .reshape(B, C, od, oh, ow, wd * wh * ww))
    idx = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    return y, idx


def maxpool3d_backward(idx, in_shape, window, grad_out):
    """Route grad_out to the argmax voxel of each pooling window."""
    B, C, D, H, W = in_shape
    (wd, wh, ww), (od, oh, ow) = _window_grid(in_shape[2:], window)
    flat = np.zeros((B, C, od, oh, ow, wd * wh * ww), dtype=grad_out.dtype)
    np.put_along_axis(flat, idx[..., None], grad_out[..., None], axis=-1)
    gx = (flat.reshape(B, C, od, oh, ow, wd, wh, ww)
          .transpose(0, 1, 2, 5, 3, 6, 4, 7)
          .reshape(B, C, D, H, W))
    return np.ascontiguousarray(gx)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

_BN_AXES = (0, 2, 3, 4)
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def _ch(v):
    return v[None, :, None, None, None]


def batchnorm3d(x, gamma, beta, state: BatchNormState, mode: str,
                out=None):
    """Per-channel batch normalization y = gamma * xhat + beta; returns
    (y, cache).

    Train mode normalizes by batch statistics over (B, D, H, W) and updates
    the running stats in place; eval mode normalizes by the running stats.
    With `out` (NumPy-style) both xhat and y are written there, so the
    cache then holds y.
    """
    C = x.shape[1]
    if gamma.shape[0] != C:
        raise ValueError(f"batchnorm has {gamma.shape[0]} channels, input has {C}")
    if mode == "train":
        mu = x.mean(axis=_BN_AXES)
        var = x.var(axis=_BN_AXES)
        invstd = 1.0 / np.sqrt(var + BN_EPS)
        m = BN_MOMENTUM
        state.running_mean = ((1 - m) * state.running_mean + m * mu).astype(
            state.running_mean.dtype)
        state.running_var = ((1 - m) * state.running_var + m * var).astype(
            state.running_var.dtype)
    elif mode == "eval":
        mu = state.running_mean
        invstd = 1.0 / np.sqrt(state.running_var + BN_EPS)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # (x - mu) * invstd and gamma * xhat + beta in place, one full-size
    # array each (or both in out); the operations and their order are those
    # of the expressions, so the bytes are too
    xhat = np.subtract(x, _ch(mu), out=out)
    xhat *= _ch(invstd)
    y = np.multiply(_ch(gamma), xhat, out=out)
    y += _ch(beta)
    cache = (xhat, invstd, gamma, mode)
    return y, cache


def batchnorm3d_backward(cache, grad_out):
    """Gradients of batchnorm3d w.r.t. input, gamma and beta."""
    xhat, invstd, gamma, mode = cache
    dgamma = (grad_out * xhat).sum(axis=_BN_AXES)
    dbeta = grad_out.sum(axis=_BN_AXES)
    gxhat = grad_out * _ch(gamma)
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

def relu(x, out=None):
    return np.maximum(x, 0, out=out)


def relu_backward(x, grad_out):
    return grad_out * (x > 0)


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(y, grad_out):
    """Backward from the forward output y = sigmoid(x)."""
    return grad_out * y * (1.0 - y)


def softmax_lastdim(scores):
    """Row-wise softmax over the last axis with max-subtraction."""
    if scores.shape[-1] < 1:
        raise ValueError("softmax needs at least one column")
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_lastdim_backward(y, grad_out):
    """Backward from the forward output y = softmax(scores)."""
    dot = (grad_out * y).sum(axis=-1, keepdims=True)
    return y * (grad_out - dot)


def dropout(x, rate: float, mode: str, rng):
    """Inverted dropout; returns (y, keep_mask). Eval mode is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if mode == "eval" or rate == 0.0:
        return x, None
    if mode != "train":
        raise ValueError(f"unknown mode {mode!r}")
    keep = rng.random(x.shape) >= rate
    return x * keep / (1.0 - rate), keep


def dropout_backward(keep, rate: float, grad_out):
    if keep is None:
        return grad_out
    return grad_out * keep / (1.0 - rate)


# ---------------------------------------------------------------------------
# Channel / spatial rearrangement
# ---------------------------------------------------------------------------

def concat_channels(a, b) -> np.ndarray:
    """Concatenate along the channel axis; a's channels come first."""
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ValueError(f"batch/spatial mismatch: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1)


def concat_channels_backward(c_a: int, grad_out):
    return grad_out[:, :c_a], grad_out[:, c_a:]


def center_crop3d(x, target):
    """Spatially centered crop; odd margins drop the extra high-index voxel."""
    td, th, tw = _triple(target)
    B, C, D, H, W = x.shape
    if td > D or th > H or tw > W:
        raise ValueError(f"crop target {(td, th, tw)} exceeds input {(D, H, W)}")
    od, oh, ow = (D - td) // 2, (H - th) // 2, (W - tw) // 2
    return np.ascontiguousarray(
        x[:, :, od: od + td, oh: oh + th, ow: ow + tw])


def center_crop3d_backward(in_shape, target, grad_out):
    td, th, tw = _triple(target)
    B, C, D, H, W = in_shape
    od, oh, ow = (D - td) // 2, (H - th) // 2, (W - tw) // 2
    gx = np.zeros(in_shape, dtype=grad_out.dtype)
    gx[:, :, od: od + td, oh: oh + th, ow: ow + tw] = grad_out
    return gx


def pad3d(x, pad):
    """Zero-pad spatial axes; pad is ((lo, hi), (lo, hi), (lo, hi))."""
    (d0, d1), (h0, h1), (w0, w1) = pad
    return np.pad(x, ((0, 0), (0, 0), (d0, d1), (h0, h1), (w0, w1)))


def pad3d_backward(pad, grad_out):
    (d0, d1), (h0, h1), (w0, w1) = pad
    _, _, D, H, W = grad_out.shape
    return np.ascontiguousarray(
        grad_out[:, :, d0: D - d1, h0: H - h1, w0: W - w1])


def channel_scale(x, s):
    """Multiply x (B, C, D, H, W) by a one-channel map s (B, 1, D, H, W)."""
    if s.shape[1] != 1 or s.shape[0] != x.shape[0] or s.shape[2:] != x.shape[2:]:
        raise ValueError(f"scale map shape {s.shape} incompatible with {x.shape}")
    return x * s


def channel_scale_backward(x, s, grad_out):
    gx = grad_out * s
    gs = (grad_out * x).sum(axis=1, keepdims=True)
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
    (wd, wh, ww), (nd, nh, nw) = _window_grid(x.shape[2:], window)
    B, C = x.shape[:2]
    t = x.reshape(B, C, nd, wd, nh, wh, nw, ww)
    t = t.transpose(0, 2, 4, 6, 3, 5, 7, 1)
    return np.ascontiguousarray(t.reshape(B, nd * nh * nw, wd * wh * ww, C))


def fold_windows(tokens, window, spatial) -> np.ndarray:
    """Exact inverse of unfold_windows."""
    (wd, wh, ww), (nd, nh, nw) = _window_grid(spatial, window)
    D, H, W = _triple(spatial)
    B, N, NW, C = tokens.shape
    if N != nd * nh * nw or NW != wd * wh * ww:
        raise ValueError(
            f"token tensor {(N, NW)} inconsistent with window {(wd, wh, ww)} "
            f"over {(D, H, W)}")
    t = tokens.reshape(B, nd, nh, nw, wd, wh, ww, C)
    t = t.transpose(0, 7, 1, 4, 2, 5, 3, 6)
    return np.ascontiguousarray(t.reshape(B, C, D, H, W))
