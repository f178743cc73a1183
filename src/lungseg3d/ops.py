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

The two accumulating loops, the forward shift-GEMM and its scatter adjoint,
run over blocks of destination columns with the taps inside. Each tap's GEMM
and its += then touch one block that stays in L2, instead of streaming the
whole accumulator through memory once per tap. The scatter's destination is
the phase buffers; each tap's part of a block is clipped to the columns that
tap writes. Because the blocks split the destination and not the taps, every
output element still receives its tap terms one at a time in tap order, as in
one unblocked pass, so blocking moves no result bit. The exception is inside
BLAS: a one-row GEMM runs as a GEMV, and OpenBLAS splits a long f32 GEMV
across threads in a way that rounds some columns differently from shorter
calls, so a layer with one output channel can differ in the last bit from an
unblocked pass.

The weight gradient is a sum over the L columns, and it is blocked over
them: per block and batch item, one (O x nb) @ (nb x C) GEMM per tap on
views adds into a (taps, O, C) accumulator, so the block of grad_out and each
tap's phase slice stay in L2. Blocking reorders that sum. The weight gradient
therefore rounds differently from one GEMM per tap over all L columns (about
5e-7 relative in f32), but it is the same bytes from one run to the next.

Thin layers stack taps. When a tap has fewer than 5 input channels C (and
at least as many output channels), its GEMM is a rank-C update, dominated by
the += that follows it. The forward shift-GEMM then takes the taps in plan
order in groups of g = 9 // C, copies a group's phase slices into one
(g*C)-row operand per column block and issues one GEMM with the group's
(O x g*C) weight block: at C = 1 a whole kh x kw plane of a 3x3x3 kernel
is one GEMM. Within a group the tap terms are summed inside BLAS, so such a
layer rounds differently from one GEMM per tap. Every other layer (g = 1)
reads its phase slices in place, one GEMM per tap, exactly as above. The
scatter adjoint does not stack: its destination is the phase buffers, and
each tap writes a different slice of them.

Small layers skip all of the above: when the B*T*C*L-element stack of all T
taps (C the weight's axis-1 channels) fits one core's 2 MiB L2, each loop is
one GEMM against the free view w.reshape(O, C*T), whose column c*T + t meets
the stack's row for channel c of tap t: forward view @ stack, weight gradient
gy @ stack^T over the batch, input gradient view^T @ gy added into the phases
tap by tap. Below that budget, T GEMMs and += passes cost more than the copy.

tconv3d is the conv input gradient plus a bias; its input gradient is the
conv forward, and its weight gradient is the conv weight gradient with x and
grad_out swapped.
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
    """Per-channel running statistics of one batchnorm layer; the learnable
    gain and offset are passed to batchnorm3d by the layer that owns them.

    Normalization uses the biased variance estimator. Running stats are
    updated in train mode only: new = (1 - momentum) * old + momentum * batch.
    """

    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1


# ---------------------------------------------------------------------------
# Convolution family: one shift-and-GEMM kernel and its adjoints
# ---------------------------------------------------------------------------

class _TapPlan(NamedTuple):
    out: tuple   # forward output dims
    M: tuple     # phase lengths; each padded axis is M * stride long
    L: int       # pitched columns up to and including the last output voxel
    taps: tuple  # (kernel index, phase, flat offset into that phase)


def _tap_plan(spec: ConvSpec, spatial) -> _TapPlan:
    """Where every kernel tap of a conv over `spatial` input voxels reads."""
    return _cached_tap_plan(spec.kernel, spec.stride, spec.dilation,
                            spec.padding, tuple(spatial))


@functools.lru_cache(maxsize=256)
def _cached_tap_plan(kernel, stride, dilation, padding, spatial) -> _TapPlan:
    out = ConvSpec(1, 1, kernel, stride, dilation, padding).out_dims(spatial)
    M = tuple(-(-(n + 2 * p) // s) for n, p, s in zip(spatial, padding, stride))
    pitch = (M[1] * M[2], M[2], 1)
    taps = []
    for k in np.ndindex(*kernel):
        qr = [divmod(t * d, s) for t, d, s in zip(k, dilation, stride)]
        taps.append((k, tuple(r for _, r in qr),
                     sum(q * c for (q, _), c in zip(qr, pitch))))
    return _TapPlan(out, M, 1 + sum((o - 1) * c for o, c in zip(out, pitch)),
                    tuple(taps))


def _phases(x, spec: ConvSpec, plan: _TapPlan) -> dict:
    """Pad x once; return the flat (B, C, Md*Mh*Mw) phase buffers taps read."""
    xq = np.zeros(x.shape[:2] + tuple(np.multiply(plan.M, spec.stride)),
                  dtype=x.dtype)
    xq[(..., *map(slice, spec.padding, np.add(spec.padding, x.shape[2:])))] = x
    sd, sh, sw = spec.stride
    return {r: np.ascontiguousarray(xq[:, :, r[0]::sd, r[1]::sh, r[2]::sw])
            .reshape(x.shape[:2] + (-1,)) for r in {r for _, r, _ in plan.taps}}


def _pitched(g, plan: _TapPlan) -> np.ndarray:
    """g (B, C, *plan.out) in the pitched flat layout, zero in the gaps."""
    gp = np.zeros(g.shape[:3] + plan.M[1:], dtype=g.dtype)
    gp[..., :plan.out[1], :plan.out[2]] = g
    return gp.reshape(g.shape[:2] + (-1,))[..., :plan.L]


def _block_cols(acc_rows: int, in_rows: int, itemsize: int) -> int:
    """Columns per block of the GEMM loops: destination columns of the two
    accumulating loops, reduction columns of the weight gradient (which
    counts grad_out rows as acc_rows and input rows as in_rows).

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


def _stack(xph: dict, plan: _TapPlan) -> np.ndarray:
    """Row c*T + t of this (B, C*T, L) stack is channel c of tap t's slice;
    a single tap's slice is read in place."""
    sl = [xph[r][..., off: off + plan.L] for _, r, off in plan.taps]
    return sl[0] if len(sl) == 1 else np.stack(sl, axis=2).reshape(
        sl[0].shape[0], -1, plan.L)


def _tap_group(C: int, O: int) -> int:
    """Taps per GEMM of the forward shift-GEMM, for C input and O output
    channels per tap.

    Stacking copies g*C rows per column to save g - 1 += passes over O rows.
    With O < C the copy costs more than it saves (a one-row GEMM is a GEMV
    that streams its operand), and from C = 5 up a tap's GEMM is wide enough.
    """
    return max(1, 9 // C) if O >= C else 1


def _shift_gemm(xph: dict, w, plan: _TapPlan, dtype) -> np.ndarray:
    """Conv without bias: pitched y = sum_t W_t @ x_phase[off_t: off_t + L]."""
    (B, C, _), O, L = next(iter(xph.values())).shape, w.shape[0], plan.L
    (od, oh, ow), (_, Mh, Mw) = plan.out, plan.M
    yp = np.empty((B, O, od * Mh * Mw), dtype=dtype)
    if _one_gemm(B, len(plan.taps), C, L, yp.itemsize):
        np.matmul(w.reshape(O, -1), _stack(xph, plan), out=yp[..., :L])
        return yp.reshape(B, O, od, Mh, Mw)[..., :oh, :ow]
    wt = np.ascontiguousarray(np.moveaxis(w, (0, 1), (3, 4)))
    g = _tap_group(C, O)
    nb = min(L, _block_cols(B * O, B * g * C, yp.itemsize))
    # The scratch is one (B, O, nb) block, but it is carved from a buffer of
    # the unblocked loop's (B, O, L) size; the untouched rest never becomes
    # resident. With a block-sized allocation glibc stopped trimming its heap
    # before the full-resolution decoder, and the lung-eval peak RSS rose by
    # 45-60 MB. The reservations that matter are the mid-size ones, below
    # glibc's 32 MB mmap ceiling.
    tmp = np.empty(B * O * L, dtype=dtype)[:B * O * nb].reshape(B, O, nb)
    # Taps go in groups of g, in plan order: one (O, g*C) weight block per
    # group and, per column block, one (B, g*C, nb) operand copied from the
    # group's phase slices (the block rule counts its rows as input rows). A
    # one-tap group reads its phase slice in place, so with g = 1 this is one
    # GEMM and one += per tap, bit-identical to the loop before grouping.
    stack = np.empty((B, g * C, nb), dtype=dtype) if g > 1 else None
    groups = [(np.concatenate([wt[k] for k, _, _ in grp], axis=1),
               [(xph[r], off) for _, r, off in grp])
              for grp in (plan.taps[i:i + g]
                          for i in range(0, len(plan.taps), g))]

    def operand(srcs, a, e):
        if len(srcs) == 1:
            xr, off = srcs[0]
            return xr[..., off + a: off + e]
        xs = stack[:, :len(srcs) * C, :e - a]
        for j, (xr, off) in enumerate(srcs):
            xs[:, j * C: (j + 1) * C] = xr[..., off + a: off + e]
        return xs

    (w0, x0), *rest = groups
    for a in range(0, L, nb):
        e = min(a + nb, L)
        yb, tb = yp[..., a:e], tmp if e - a == nb else tmp[..., :e - a]
        np.matmul(w0, operand(x0, a, e), out=yb)
        for wk, srcs in rest:
            yb += np.matmul(wk, operand(srcs, a, e), out=tb)
    return yp.reshape(B, O, od, Mh, Mw)[..., :oh, :ow]


def _scatter_gemm(gyp, w, spec: ConvSpec, plan: _TapPlan, spatial, dtype):
    """Adjoint of _shift_gemm: W_t^T @ gy into the phases, re-interleaved."""
    B, (O, C), L, M, s = gyp.shape[0], w.shape[:2], plan.L, plan.M, spec.stride
    T, N = len(plan.taps), M[0] * M[1] * M[2]
    g = np.zeros(s + (B, C, N), dtype=dtype)
    if _one_gemm(B, T, C, L, g.itemsize):
        gs = np.matmul(w.reshape(O, C * T).T, gyp).reshape(B, C, T, L)
        for t, (_, r, off) in enumerate(plan.taps):
            g[r][..., off: off + L] += gs[:, :, t]
    else:
        wt = np.ascontiguousarray(np.moveaxis(w, (0, 1), (3, 4)))
        nb = min(N, _block_cols(B * C, B * O, g.itemsize))
        nt = min(nb, L)
        tmp = np.empty((B, C, nt), dtype=dtype)
        taps = [(wt[k].T, g[r], off) for k, r, off in plan.taps]
        for a in range(0, N, nb):
            for wk, gr, off in taps:
                lo, hi = max(a, off), min(a + nb, off + L)
                if lo < hi:
                    t = tmp if hi - lo == nt else tmp[..., :hi - lo]
                    d = gr[..., lo:hi]
                    d += np.matmul(wk, gyp[..., lo - off: hi - off], out=t)
    g = g.reshape(s + (B, C) + M).transpose(3, 4, 5, 0, 6, 1, 7, 2).reshape(
        (B, C) + tuple(m * t for m, t in zip(M, s)))
    return g[(..., *(slice(p, p + n) for p, n in zip(spec.padding, spatial)))]


def _weight_gemm(gyp, xph: dict, plan: _TapPlan, w) -> np.ndarray:
    """gw_t = gy @ x_phase[off_t: off_t + L]^T, summed over the batch."""
    (B, O, L), C = gyp.shape, w.shape[1]
    if _one_gemm(B, len(plan.taps), C, L, gyp.itemsize):
        st = _stack(xph, plan).transpose(0, 2, 1)
        return np.matmul(gyp, st).sum(axis=0, dtype=w.dtype).reshape(w.shape)
    acc = np.zeros((len(plan.taps), O, C), dtype=w.dtype)
    tmp = np.empty((O, C), dtype=gyp.dtype)
    nb = min(L, _block_cols(B * O, B * C, gyp.itemsize))
    for a in range(0, L, nb):
        e = min(a + nb, L)
        for b in range(B):
            gb = gyp[b, :, a:e]
            for t, (_, r, off) in enumerate(plan.taps):
                acc[t] += np.matmul(gb, xph[r][b, :, off + a: off + e].T,
                                    out=tmp)
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
    return np.add(_shift_gemm(_phases(x, spec, plan), p.weight, plan, x.dtype),
                  p.bias[None, :, None, None, None], out=y)


def conv3d_backward(x, p: LayerParams, grad_out):
    """Gradients of conv3d w.r.t. input, weight and bias."""
    spec = p.spec
    B, C, D, H, W = x.shape
    plan = _tap_plan(spec, (D, H, W))
    if grad_out.shape != (B, spec.out_channels) + plan.out:
        raise ValueError(f"grad_out shape {grad_out.shape} does not match "
                         f"conv output {(B, spec.out_channels) + plan.out}")
    gyp = _pitched(grad_out, plan)
    gx = _scatter_gemm(gyp, p.weight, spec, plan, (D, H, W), x.dtype)
    gw = _weight_gemm(gyp, _phases(x, spec, plan), plan, p.weight)
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
    y = _scatter_gemm(_pitched(x, plan), p.weight, spec, plan, out, x.dtype)
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
    gx = np.ascontiguousarray(_shift_gemm(gyph, p.weight, plan, x.dtype))
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
    wd, wh, ww = _triple(window)
    B, C, D, H, W = in_shape
    od, oh, ow = D // wd, H // wh, W // ww
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


def _ch(v):
    return v[None, :, None, None, None]


def batchnorm3d(x, gamma, beta, state: BatchNormState, mode: str):
    """Per-channel batch normalization y = gamma * xhat + beta; returns
    (y, cache).

    Train mode normalizes by batch statistics over (B, D, H, W) and updates
    the running stats in place; eval mode normalizes by the running stats.
    """
    C = x.shape[1]
    if gamma.shape[0] != C:
        raise ValueError(f"batchnorm has {gamma.shape[0]} channels, input has {C}")
    if mode == "train":
        mu = x.mean(axis=_BN_AXES)
        var = x.var(axis=_BN_AXES)
        invstd = 1.0 / np.sqrt(var + state.eps)
        m = state.momentum
        state.running_mean = ((1 - m) * state.running_mean + m * mu).astype(
            state.running_mean.dtype)
        state.running_var = ((1 - m) * state.running_var + m * var).astype(
            state.running_var.dtype)
    elif mode == "eval":
        mu = state.running_mean
        invstd = 1.0 / np.sqrt(state.running_var + state.eps)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # (x - mu) * invstd and gamma * xhat + beta in place, one full-size
    # array each; the operations and their order are those of the
    # expressions, so the bytes are too
    xhat = np.subtract(x, _ch(mu))
    xhat *= _ch(invstd)
    y = np.multiply(_ch(gamma), xhat)
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

def relu(x):
    return np.maximum(x, 0)


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
    wd, wh, ww = _triple(window)
    D, H, W = _triple(spatial)
    nd, nh, nw = D // wd, H // wh, W // ww
    B, N, NW, C = tokens.shape
    if D % wd or H % wh or W % ww:
        raise ValueError(f"spatial dims {(D, H, W)} not divisible by window {(wd, wh, ww)}")
    if N != nd * nh * nw or NW != wd * wh * ww:
        raise ValueError(
            f"token tensor {(N, NW)} inconsistent with window {(wd, wh, ww)} "
            f"over {(D, H, W)}")
    t = tokens.reshape(B, nd, nh, nw, wd, wh, ww, C)
    t = t.transpose(0, 7, 1, 4, 2, 5, 3, 6)
    return np.ascontiguousarray(t.reshape(B, C, D, H, W))
