"""Finite-difference certification of every analytic backward pass.

The oracle is central differences in f64. Each registered check builds a
micro instance of an op, block, or network, projects its output to a scalar
with a fixed random weighting, backprops analytically, and compares against
numeric derivatives element by element (or over sampled coordinates for the
full networks).

The registry doubles as a coverage gate: the test suite fails if a tape op
exists without a registered check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import losses, ops
from .autograd import Var, accumulate, from_op
from .blocks import (AttentionGate3d, DoubleConvBlock3d, ResidualBlock3d,
                     WindowAttention3d)
from .networks import NetworkConfig, build_network
from .ops import ConvSpec, LayerParams

# Differences below ABS_FLOOR sit at the oracle's own noise level (forward
# round-off divided by 2h) and carry no signal about backward correctness;
# real gradients in these checks are many orders of magnitude larger.
ABS_FLOOR = 1e-8
REL_DENOM_FLOOR = 1e-8
H_SHALLOW = 1e-5
# Block checks run through ReLUs. A step of 1e-4 let central differences
# straddle ReLU kinks (false failures of residual_block at seeds 1 and 2 and
# of attention_gate at seed 2); at 1e-7 round-off breaks the bias checks
# that batchnorm cancels.
H_DEEP = 1e-6
TOL_DEFAULT = 1e-4
TOL_NETWORK = 1e-3


@dataclass
class GradReport:
    op_name: str
    tensor: str
    max_rel_err: float
    max_abs_err: float
    worst_index: int
    passed: bool
    tol: float
    note: str = ""

    def as_dict(self):
        return {"op": self.op_name, "tensor": self.tensor,
                "max_rel_err": self.max_rel_err,
                "max_abs_err": self.max_abs_err,
                "worst_index": self.worst_index, "pass": self.passed,
                "tol": self.tol, "note": self.note}


def finite_diff_grad(f, x, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function at x (f64).

    x is perturbed in place one coordinate at a time and restored, so f may
    either use its argument or close over the same buffer.
    """
    x = ops.as_nd(x)
    if x.dtype != np.float64:
        raise ValueError("finite differences require f64 inputs")
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        gflat[i] = _probe(f, x, flat, i, h)
    return grad


def _probe(f, x, flat, i, h: float) -> float:
    orig = flat[i]
    flat[i] = orig + h
    fp = float(f(x))
    flat[i] = orig - h
    fm = float(f(x))
    flat[i] = orig
    if not (math.isfinite(fp) and math.isfinite(fm)):
        raise FloatingPointError(f"non-finite probe at flat index {i}")
    return (fp - fm) / (2.0 * h)


def compare_grads(op_name: str, tensor: str, analytic, numeric,
                  tol: float, note: str = "") -> GradReport:
    """Elementwise relative comparison with an absolute floor escape.

    A coordinate whose two values already agree to within ABS_FLOOR is
    satisfied by the absolute prong (this covers directions with exactly
    zero true gradient, where both sides are pure round-off), so it is left
    out of the relative maximum.  Each coordinate therefore passes either
    the relative or the absolute test, which is what the reported
    ``max_rel_err <= tol or max_abs_err <= ABS_FLOOR`` rule states.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise ValueError(f"gradient shapes differ: {a.shape} vs {n.shape}")
    diff = np.abs(a - n)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_DENOM_FLOOR)
    rel = np.where(diff <= ABS_FLOOR, 0.0, diff / denom)
    if rel.size == 0:
        return GradReport(op_name, tensor, 0.0, 0.0, 0, True, tol, note)
    max_rel = float(rel.max())
    max_abs = float(diff.max())
    if max_rel > 0.0:
        worst = int(rel.reshape(-1).argmax())
    else:
        worst = int(diff.reshape(-1).argmax())
    passed = (max_rel <= tol) or (max_abs <= ABS_FLOOR)
    return GradReport(op_name, tensor, max_rel, max_abs, worst, passed, tol,
                      note)


def _project(y: Var, r: np.ndarray) -> Var:
    """Tape-scalar <y, r> so tests exercise non-uniform output gradients."""
    val = (y.data * r).sum()

    def bw(g):
        accumulate(y, g * r)

    return from_op(np.asarray(val), (y,), bw)


def _rand(rng, shape):
    return rng.standard_normal(shape)


def _check_tensors(op_name, loss_fn, tensors, tol, h, note=""):
    """FD each (name, Var) against its tape gradient from one backward."""
    ag.zero_grads([v for _, v in tensors])
    loss = loss_fn()
    ag.run_backward(loss)
    reports = []
    for name, var in tensors:
        analytic = var.grad if var.grad is not None else np.zeros_like(var.data)

        def f(_buf):
            with ag.no_grad():
                return float(loss_fn().data)

        numeric = finite_diff_grad(f, var.data, h)
        reports.append(compare_grads(op_name, name, analytic, numeric, tol,
                                     note))
    return reports


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

CHECKS = {}
DEFAULT_TOLS = {}

# Tape op (autograd/losses function) -> gradcheck target covering it.
TAPE_OP_TARGETS = {
    "conv": "conv3d",
    "tconv": "tconv3d",
    "batchnorm": "batchnorm3d",
    "relu": "relu",
    "sigmoid": "sigmoid",
    "maxpool": "maxpool3d",
    "dropout": "dropout",
    "concat": "concat",
    "slice_channels": "slice_channels",
    "center_crop": "center_crop",
    "pad": "pad",
    "add": "add",
    "scale_by": "scale_by",
    "const_mul": "const_mul",
    "channel_scale": "channel_scale",
    "softmax_lastdim": "softmax",
    "unfold": "unfold",
    "fold": "fold",
    "matmul_qk": "matmul_qk",
    "matmul_av": "matmul_av",
    "bce_term": "bce_loss",
    "dice_term": "dice_loss",
    "combined_term": "combined_loss",
}

BLOCK_TARGETS = ("residual_block", "attention_gate", "window_attention",
                 "conv_block")
NETWORK_TARGETS = ("lung_net", "nodule_net")


def register(name: str, tol: float = TOL_DEFAULT):
    def deco(fn):
        CHECKS[name] = fn
        DEFAULT_TOLS[name] = tol
        return fn
    return deco


def all_targets():
    return sorted(CHECKS)


def check_gradients(target: str, seed: int = 0, tol: float = None):
    """Run one registered check (or 'all'); returns a list of GradReports."""
    if target == "all":
        reports = []
        for name in all_targets():
            reports.extend(check_gradients(name, seed=seed, tol=tol))
        return reports
    if target not in CHECKS:
        raise ValueError(f"unknown gradcheck target {target!r}; known: "
                         f"{', '.join(all_targets())}")
    use_tol = DEFAULT_TOLS[target] if tol is None else tol
    return CHECKS[target](seed, use_tol)


# ---------------------------------------------------------------------------
# Oracle self-test on closed forms
# ---------------------------------------------------------------------------

def oracle_selftest(seed: int = 0):
    """Validate the FD oracle against three hand-differentiated functions."""
    rng = np.random.default_rng([int(seed), 0x0F1D])
    reports = []

    x = _rand(rng, (7,))
    numeric = finite_diff_grad(lambda v: float((v ** 2).sum()), x, H_SHALLOW)
    reports.append(compare_grads("oracle.quadratic", "x", 2.0 * x, numeric,
                                 1e-6))

    z = _rand(rng, (9,))
    m = (rng.random(9) < 0.5).astype(np.float64)
    s = 1.0 / (1.0 + np.exp(-z))

    def logloss(v):
        sv = 1.0 / (1.0 + np.exp(-v))
        return float(-(m * np.log(sv) + (1 - m) * np.log(1 - sv)).sum())

    numeric = finite_diff_grad(logloss, z, H_SHALLOW)
    reports.append(compare_grads("oracle.logloss", "z", s - m, numeric, 1e-6))

    w = rng.uniform(0.5, 1.5, size=6)
    prod = float(np.prod(w))
    numeric = finite_diff_grad(lambda v: float(np.prod(v)), w, H_SHALLOW)
    reports.append(compare_grads("oracle.product", "w", prod / w, numeric,
                                 1e-6))
    return reports


# ---------------------------------------------------------------------------
# Elementary op checks
# ---------------------------------------------------------------------------

@register("conv3d")
def _check_conv(seed, tol):
    reports = []
    cases = [
        (0, "s1d1p1", (1, 2, 6, 6, 6),
         ConvSpec(2, 3, kernel=(3, 3, 3), padding=(1, 1, 1))),
        (1, "s2d2p2", (1, 2, 8, 6, 6),
         ConvSpec(2, 2, kernel=(3, 3, 3), stride=(2, 2, 2),
                  dilation=(2, 2, 2), padding=(2, 2, 2))),
    ]
    for tag, label, shape, spec in cases:
        rng = np.random.default_rng([seed, 0xC0, tag])
        x = Var(_rand(rng, shape))
        w = Var(_rand(rng, (spec.out_channels, spec.in_channels) + spec.kernel)
                * 0.5)
        b = Var(_rand(rng, (spec.out_channels,)))
        out = ops.conv3d(x.data, LayerParams(w.data, b.data, spec))
        r = _rand(rng, out.shape)
        loss_fn = lambda: _project(ag.conv(x, w, b, spec), r)
        reports.extend(_check_tensors(
            f"conv3d[{label}]", loss_fn,
            [("x", x), ("weight", w), ("bias", b)], tol, H_SHALLOW))
    return reports


@register("tconv3d")
def _check_tconv(seed, tol):
    reports = []
    cases = [
        (0, "s2k2", (1, 2, 4, 4, 4),
         ConvSpec(2, 3, kernel=(2, 2, 2), stride=(2, 2, 2))),
        (1, "s1d2p2", (1, 2, 4, 4, 4),
         ConvSpec(2, 2, kernel=(3, 3, 3), dilation=(2, 2, 2),
                  padding=(2, 2, 2))),
    ]
    for tag, label, shape, spec in cases:
        rng = np.random.default_rng([seed, 0xC1, tag])
        x = Var(_rand(rng, shape))
        w = Var(_rand(rng, (spec.in_channels, spec.out_channels) + spec.kernel)
                * 0.5)
        b = Var(_rand(rng, (spec.out_channels,)))
        out = ops.tconv3d(x.data, LayerParams(w.data, b.data, spec))
        r = _rand(rng, out.shape)
        loss_fn = lambda: _project(ag.tconv(x, w, b, spec), r)
        reports.extend(_check_tensors(
            f"tconv3d[{label}]", loss_fn,
            [("x", x), ("weight", w), ("bias", b)], tol, H_SHALLOW))
    return reports


@register("batchnorm3d")
def _check_batchnorm(seed, tol):
    reports = []
    for mode in ("train", "eval"):
        rng = np.random.default_rng([seed, 0xB0, 0 if mode == "train" else 1])
        x = Var(_rand(rng, (2, 3, 4, 4, 4)))
        gamma = Var(rng.uniform(0.5, 1.5, size=3))
        beta = Var(_rand(rng, (3,)))
        bn = ops.BatchNormState(running_mean=_rand(rng, (3,)) * 0.1,
                                running_var=rng.uniform(0.5, 1.5, size=3))
        r = _rand(rng, x.data.shape)
        rm, rv = bn.running_mean.copy(), bn.running_var.copy()

        def loss_fn():
            # Freeze running stats so train-mode probes stay repeatable.
            bn.running_mean = rm.copy()
            bn.running_var = rv.copy()
            return _project(ag.batchnorm(x, gamma, beta, bn, mode), r)

        reports.extend(_check_tensors(
            f"batchnorm3d[{mode}]", loss_fn,
            [("x", x), ("gamma", gamma), ("beta", beta)], tol, H_SHALLOW))
    return reports


@register("relu")
def _check_relu(seed, tol):
    rng = np.random.default_rng([seed, 0xA0])
    x = _rand(rng, (1, 2, 4, 4, 4))
    near = np.abs(x) < 0.05
    x = x + 0.1 * np.where(x >= 0, 1.0, -1.0) * near
    xv = Var(x)
    r = _rand(rng, x.shape)
    loss_fn = lambda: _project(ag.relu(xv), r)
    return _check_tensors("relu", loss_fn, [("x", xv)], tol, H_SHALLOW,
                          note="inputs within 0.05 of zero nudged by 0.1")


@register("sigmoid")
def _check_sigmoid(seed, tol):
    rng = np.random.default_rng([seed, 0xA1])
    xv = Var(_rand(rng, (1, 2, 4, 4, 4)))
    r = _rand(rng, xv.data.shape)
    loss_fn = lambda: _project(ag.sigmoid(xv), r)
    return _check_tensors("sigmoid", loss_fn, [("x", xv)], tol, H_SHALLOW)


@register("softmax")
def _check_softmax(seed, tol):
    rng = np.random.default_rng([seed, 0xA2])
    xv = Var(_rand(rng, (2, 3, 5, 7)))
    r = _rand(rng, xv.data.shape)
    loss_fn = lambda: _project(ag.softmax_lastdim(xv), r)
    return _check_tensors("softmax", loss_fn, [("x", xv)], tol, H_SHALLOW)


@register("maxpool3d")
def _check_maxpool(seed, tol):
    rng = np.random.default_rng([seed, 0xA3])
    xv = Var(_rand(rng, (1, 2, 4, 4, 6)))
    r = _rand(rng, (1, 2, 2, 2, 3))
    loss_fn = lambda: _project(ag.maxpool(xv, (2, 2, 2)), r)
    return _check_tensors("maxpool3d", loss_fn, [("x", xv)], tol, H_SHALLOW)


@register("dropout")
def _check_dropout(seed, tol):
    rng = np.random.default_rng([seed, 0xA4])
    xv = Var(_rand(rng, (1, 2, 4, 4, 4)))
    r = _rand(rng, xv.data.shape)
    rate = 0.3

    def loss_fn():
        # Same generator seed every call keeps the mask fixed across probes.
        drop_rng = np.random.default_rng([seed, 0xA5])
        return _project(ag.dropout(xv, rate, "train", drop_rng), r)

    reports = _check_tensors("dropout[train]", loss_fn, [("x", xv)], tol,
                             H_SHALLOW, note="mask fixed via seeded rng")
    loss_eval = lambda: _project(ag.dropout(xv, rate, "eval", None), r)
    reports.extend(_check_tensors("dropout[eval]", loss_eval, [("x", xv)],
                                  tol, H_SHALLOW))
    return reports


@register("concat")
def _check_concat(seed, tol):
    rng = np.random.default_rng([seed, 0xA6])
    a = Var(_rand(rng, (1, 2, 3, 3, 3)))
    b = Var(_rand(rng, (1, 3, 3, 3, 3)))
    r = _rand(rng, (1, 5, 3, 3, 3))
    loss_fn = lambda: _project(ag.concat(a, b), r)
    return _check_tensors("concat", loss_fn, [("a", a), ("b", b)], tol,
                          H_SHALLOW)


@register("slice_channels")
def _check_slice(seed, tol):
    rng = np.random.default_rng([seed, 0xA7])
    xv = Var(_rand(rng, (1, 6, 3, 3, 3)))
    r = _rand(rng, (1, 2, 3, 3, 3))
    loss_fn = lambda: _project(ag.slice_channels(xv, 2, 4), r)
    return _check_tensors("slice_channels", loss_fn, [("x", xv)], tol,
                          H_SHALLOW)


@register("center_crop")
def _check_crop(seed, tol):
    rng = np.random.default_rng([seed, 0xA8])
    xv = Var(_rand(rng, (1, 2, 6, 7, 6)))
    r = _rand(rng, (1, 2, 3, 4, 4))
    loss_fn = lambda: _project(ag.center_crop(xv, (3, 4, 4)), r)
    return _check_tensors("center_crop", loss_fn, [("x", xv)], tol, H_SHALLOW)


@register("pad")
def _check_pad(seed, tol):
    rng = np.random.default_rng([seed, 0xA9])
    xv = Var(_rand(rng, (1, 2, 3, 3, 3)))
    spec = ((1, 2), (0, 1), (2, 0))
    r = _rand(rng, (1, 2, 6, 4, 5))
    loss_fn = lambda: _project(ag.pad(xv, spec), r)
    return _check_tensors("pad", loss_fn, [("x", xv)], tol, H_SHALLOW)


@register("add")
def _check_add(seed, tol):
    rng = np.random.default_rng([seed, 0xAA])
    a = Var(_rand(rng, (1, 2, 3, 3, 3)))
    b = Var(_rand(rng, (1, 2, 3, 3, 3)))
    r = _rand(rng, a.data.shape)
    loss_fn = lambda: _project(ag.add(a, b), r)
    return _check_tensors("add", loss_fn, [("a", a), ("b", b)], tol, H_SHALLOW)


@register("scale_by")
def _check_scale_by(seed, tol):
    rng = np.random.default_rng([seed, 0xAB])
    xv = Var(_rand(rng, (1, 2, 3, 3, 3)))
    s = Var(np.asarray(0.7))
    r = _rand(rng, xv.data.shape)
    loss_fn = lambda: _project(ag.scale_by(xv, s), r)
    return _check_tensors("scale_by", loss_fn, [("x", xv), ("scale", s)], tol,
                          H_SHALLOW)


@register("const_mul")
def _check_const_mul(seed, tol):
    rng = np.random.default_rng([seed, 0xAC])
    xv = Var(_rand(rng, (1, 2, 3, 3, 3)))
    r = _rand(rng, xv.data.shape)
    loss_fn = lambda: _project(ag.const_mul(xv, 0.37), r)
    return _check_tensors("const_mul", loss_fn, [("x", xv)], tol, H_SHALLOW)


@register("channel_scale")
def _check_channel_scale(seed, tol):
    rng = np.random.default_rng([seed, 0xAD])
    xv = Var(_rand(rng, (1, 3, 3, 3, 3)))
    s = Var(rng.uniform(0.1, 0.9, size=(1, 1, 3, 3, 3)))
    r = _rand(rng, xv.data.shape)
    loss_fn = lambda: _project(ag.channel_scale(xv, s), r)
    return _check_tensors("channel_scale", loss_fn,
                          [("x", xv), ("scale_map", s)], tol, H_SHALLOW)


@register("unfold")
def _check_unfold(seed, tol):
    rng = np.random.default_rng([seed, 0xAE])
    xv = Var(_rand(rng, (1, 3, 4, 4, 4)))
    r = _rand(rng, (1, 8, 8, 3))
    loss_fn = lambda: _project(ag.unfold(xv, (2, 2, 2)), r)
    return _check_tensors("unfold", loss_fn, [("x", xv)], tol, H_SHALLOW)


@register("fold")
def _check_fold(seed, tol):
    rng = np.random.default_rng([seed, 0xAF])
    tv = Var(_rand(rng, (1, 8, 8, 3)))
    r = _rand(rng, (1, 3, 4, 4, 4))
    loss_fn = lambda: _project(ag.fold(tv, (2, 2, 2), (4, 4, 4)), r)
    return _check_tensors("fold", loss_fn, [("tokens", tv)], tol, H_SHALLOW)


@register("matmul_qk")
def _check_matmul_qk(seed, tol):
    rng = np.random.default_rng([seed, 0xB1])
    q = Var(_rand(rng, (1, 3, 4, 2)))
    k = Var(_rand(rng, (1, 3, 4, 2)))
    r = _rand(rng, (1, 3, 4, 4))
    loss_fn = lambda: _project(ag.matmul_qk(q, k), r)
    return _check_tensors("matmul_qk", loss_fn, [("q", q), ("k", k)], tol,
                          H_SHALLOW)


@register("matmul_av")
def _check_matmul_av(seed, tol):
    rng = np.random.default_rng([seed, 0xB2])
    a = Var(_rand(rng, (1, 3, 4, 4)))
    v = Var(_rand(rng, (1, 3, 4, 2)))
    r = _rand(rng, (1, 3, 4, 2))
    loss_fn = lambda: _project(ag.matmul_av(a, v), r)
    return _check_tensors("matmul_av", loss_fn, [("attn", a), ("v", v)], tol,
                          H_SHALLOW)


# ---------------------------------------------------------------------------
# Loss checks
# ---------------------------------------------------------------------------

@register("bce_loss", tol=1e-6)
def _check_bce(seed, tol):
    rng = np.random.default_rng([seed, 0xBE])
    p = Var(rng.uniform(0.05, 0.95, size=(1, 1, 4, 4, 4)))
    m = (rng.random((1, 1, 4, 4, 4)) < 0.4).astype(np.float64)
    loss_fn = lambda: losses.bce_term(p, m)
    return _check_tensors("bce_loss", loss_fn, [("p", p)], tol, H_SHALLOW)


@register("dice_loss", tol=1e-6)
def _check_dice(seed, tol):
    rng = np.random.default_rng([seed, 0xD1])
    p = Var(rng.uniform(0.05, 0.95, size=(1, 1, 4, 4, 4)))
    m = (rng.random((1, 1, 4, 4, 4)) < 0.4).astype(np.float64)
    loss_fn = lambda: losses.dice_term(p, m)
    return _check_tensors("dice_loss", loss_fn, [("p", p)], tol, H_SHALLOW)


@register("combined_loss", tol=1e-6)
def _check_combined(seed, tol):
    rng = np.random.default_rng([seed, 0xC2])
    p = Var(rng.uniform(0.05, 0.95, size=(1, 1, 4, 4, 4)))
    m = (rng.random((1, 1, 4, 4, 4)) < 0.4).astype(np.float64)
    loss_fn = lambda: losses.combined_term(p, m)
    return _check_tensors("combined_loss", loss_fn, [("p", p)], tol, H_SHALLOW)


# ---------------------------------------------------------------------------
# Block checks
# ---------------------------------------------------------------------------

def _block_tensors(block, x_vars):
    tensors = list(x_vars)
    for var in block.params():
        tensors.append((var.name, var))
    return tensors


@register("residual_block")
def _check_residual_block(seed, tol):
    reports = []
    for label, stride in (("s1", 1), ("s2", 2)):
        rng = np.random.default_rng([seed, 0xE0, stride])
        block = ResidualBlock3d("rb", 2, 3, stride, rng, dtype=np.float64)
        xv = Var(_rand(rng, (1, 2, 4, 4, 4)))
        out = block.forward(xv, "train")
        r = _rand(rng, out.data.shape)
        loss_fn = lambda: _project(block.forward(xv, "train"), r)
        reports.extend(_check_tensors(
            f"residual_block[{label}]", loss_fn,
            _block_tensors(block, [("x", xv)]), tol, H_DEEP))
    return reports


@register("attention_gate")
def _check_attention_gate(seed, tol):
    rng = np.random.default_rng([seed, 0xE1])
    gate = AttentionGate3d("gate", 2, 3, rng, dtype=np.float64)
    xv = Var(_rand(rng, (1, 2, 4, 4, 4)))
    gv = Var(_rand(rng, (1, 3, 2, 2, 2)))
    out = gate.forward(xv, gv)
    r = _rand(rng, out.data.shape)
    loss_fn = lambda: _project(gate.forward(xv, gv), r)
    return _check_tensors("attention_gate", loss_fn,
                          _block_tensors(gate, [("x_enc", xv), ("g_dec", gv)]),
                          tol, H_DEEP)


@register("window_attention")
def _check_window_attention(seed, tol):
    rng = np.random.default_rng([seed, 0xE2])
    block = WindowAttention3d("wa", 2, (2, 2, 2), rng, dtype=np.float64)
    block.gamma.data[...] = 0.7  # zero gamma would null the param grads
    xv = Var(_rand(rng, (1, 2, 4, 4, 4)))
    out = block.forward(xv)
    r = _rand(rng, out.data.shape)
    loss_fn = lambda: _project(block.forward(xv), r)
    return _check_tensors("window_attention", loss_fn,
                          _block_tensors(block, [("x", xv)]), tol, H_DEEP)


@register("conv_block")
def _check_conv_block(seed, tol):
    rng = np.random.default_rng([seed, 0xE3])
    block = DoubleConvBlock3d("cb", 2, 3, 0.0, rng, dtype=np.float64)
    xv = Var(_rand(rng, (1, 2, 4, 4, 4)))
    out = block.forward(xv, "train", None)
    r = _rand(rng, out.data.shape)
    loss_fn = lambda: _project(block.forward(xv, "train", None), r)
    return _check_tensors("conv_block", loss_fn,
                          _block_tensors(block, [("x", xv)]), tol, H_DEEP,
                          note="dropout rate 0")


# ---------------------------------------------------------------------------
# Whole-network sampled checks
# ---------------------------------------------------------------------------

# Whole networks need the small probe step: at h=1e-4 the loss along a deep
# parameter is no longer locally linear (curvature compounds through the
# batch-norm statistic chains), so central differences misreport the slope
# even though every constituent op and block verifies cleanly.
H_NETWORK = H_SHALLOW


def _sampled_network_check(op_name, net, loss_fn, seed, tol,
                           n_coords: int = 60):
    params = list(net.params())
    ag.zero_grads(params)
    loss = loss_fn()
    ag.run_backward(loss)

    rng = np.random.default_rng([seed, 0x5A])
    sizes = np.array([p.data.size for p in params], dtype=np.float64)
    probs = sizes / sizes.sum()

    def f(_buf):
        with ag.no_grad():
            return float(loss_fn().data)

    # Probe every coordinate at two step sizes.  On a smooth stretch the two
    # estimates agree to truncation error; a pooling argmax flip or a ReLU
    # crossing inside the probe window makes them disagree by the size of
    # the slope jump.  Those coordinates are genuinely non-differentiable
    # points of the sampled loss, where no difference scheme measures the
    # analytic one-sided gradient, so they are resampled — the coordinate
    # analogue of the op-level generators nudging inputs away from kinks.
    picks = {}
    accepted = 0
    skipped = 0
    tried = set()
    attempts = 0
    while accepted < n_coords:
        attempts += 1
        if attempts > 50 * n_coords:
            raise RuntimeError(f"{op_name}: could not find {n_coords} "
                               "smooth coordinates to probe")
        ti = int(rng.choice(len(params), p=probs))
        ci = int(rng.integers(params[ti].data.size))
        if (ti, ci) in tried:
            continue
        tried.add((ti, ci))
        var = params[ti]
        flat = var.data.reshape(-1)
        n1 = _probe(f, var.data, flat, ci, H_NETWORK)
        n2 = _probe(f, var.data, flat, ci, H_NETWORK / 2)
        guard = max(ABS_FLOOR, (tol / 3.0) * max(abs(n1), abs(n2)))
        if abs(n1 - n2) > guard:
            skipped += 1
            continue
        picks.setdefault(ti, {})[ci] = n2
        accepted += 1

    suffix = f", {skipped} kink probes resampled" if skipped else ""
    reports = []
    for ti in sorted(picks):
        var = params[ti]
        analytic_full = (var.grad if var.grad is not None
                         else np.zeros_like(var.data))
        coords = sorted(picks[ti])
        analytic = np.array([analytic_full.reshape(-1)[c] for c in coords])
        numeric = np.array([picks[ti][c] for c in coords])
        reports.append(compare_grads(
            op_name, var.name, analytic, numeric, tol,
            note=f"sampled {len(coords)} coords{suffix}"))
    return reports


@register("lung_net", tol=TOL_NETWORK)
def _check_lung_net(seed, tol):
    config = NetworkConfig(stage_channels=[2, 4, 8, 16],
                           input_geometry=(1, 16, 16, 16))
    net = build_network("lung", config, seed, dtype=np.float64)
    rng = np.random.default_rng([seed, 0xF0])
    # Batch 4: the deepest stages collapse to one voxel per channel, and a
    # batch norm over fewer samples degenerates (one sample maps everything
    # to its offset; two behave like a sign function), leaving nothing but
    # structurally dead gradients to sample.  The probe scalar is a random
    # projection of the output probabilities: smooth everywhere, unlike the
    # clamped cross-entropy, whose clamp boundary is a kink that random
    # init can land on.  The loss backwards have their own checks.
    xv = Var(_rand(rng, (4, 1, 16, 16, 16)))
    r = _rand(rng, (4, 1, 16, 16, 16))

    loss_fn = lambda: _project(net.forward(xv, "train"), r)
    return _sampled_network_check("lung_net", net, loss_fn, seed, tol)


@register("nodule_net", tol=TOL_NETWORK)
def _check_nodule_net(seed, tol):
    config = NetworkConfig(stage_channels=[2, 4, 8, 16],
                           input_geometry=(1, 16, 16, 16),
                           attn_window=(1, 1, 1), dropout_rate=0.0)
    net = build_network("nodule", config, seed, dtype=np.float64)
    net.attn.gamma.data[...] = 0.5
    rng = np.random.default_rng([seed, 0xF1])
    xv = Var(_rand(rng, (4, 1, 16, 16, 16)))
    r = _rand(rng, (4, 1, 16, 16, 16))

    loss_fn = lambda: _project(net.forward(xv, "train"), r)
    return _sampled_network_check("nodule_net", net, loss_fn, seed, tol)
