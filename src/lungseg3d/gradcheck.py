"""Finite-difference certification of every analytic backward pass.

The oracle is central differences in f64. Each check builds a micro
instance of an op, block, or network, projects its output to a scalar with a
fixed random weighting, backprops analytically, and compares against numeric
derivatives element by element (or over sampled coordinates for the full
networks). Op, loss and block checks are rows of one table run by one
runner; dropout and the two networks have their own functions.

The registry doubles as a coverage gate: the test suite fails if a tape op
exists without a registered check.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autograd as ag
from . import losses
from .autograd import Var, from_op
from .blocks import (AttentionGate3d, DoubleConvBlock3d, ResidualBlock3d,
                     WindowAttention3d)
from .networks import NetworkConfig, build_network
from .ops import BatchNormState, ConvSpec

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
    x = np.asarray(x)
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
    return from_op(np.asarray((y.data * r).sum()), (y,), lambda g: g * r)


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
    try:
        return CHECKS[target](seed, use_tol)
    except FloatingPointError as exc:
        raise FloatingPointError(f"gradcheck {target!r}: {exc}") from None


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
# The check table: elementary op, loss and block checks as rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Row:
    """One checked tape call.

    The runner seeds an RNG from (seed, *tag) and draws, in this order: the
    block (if `build` is set), the checked inputs, the constants and the
    output projection. `call` gets them in the same order and must look its
    kernel up when it runs, so that a rebound module attribute is honoured.
    """

    name: str                   # op name in the reports
    tag: tuple
    inputs: tuple               # (tensor name, draw(rng)) per checked input
    call: Callable              # call([block,] *inputs, *consts) -> Var
    consts: tuple = ()          # draw(rng) per unchecked argument
    build: Callable = None      # build(rng) -> block; its params are checked
    h: float = H_SHALLOW
    tol: float = TOL_DEFAULT
    note: str = ""

    @property
    def target(self) -> str:
        return self.name.split("[")[0]


def _normal(shape, scale=1.0):
    return lambda rng: _rand(rng, shape) * scale


def _uniform(lo, hi, shape):
    return lambda rng: rng.uniform(lo, hi, size=shape)


def _mask(shape):
    return lambda rng: (rng.random(shape) < 0.4).astype(np.float64)


def _off_kink(shape):
    def draw(rng):
        x = _rand(rng, shape)
        near = np.abs(x) < 0.05
        return x + 0.1 * np.where(x >= 0, 1.0, -1.0) * near
    return draw


def _run_row(row: Row, seed, tol):
    rng = np.random.default_rng([seed, *row.tag])
    args = [row.build(rng)] if row.build else []
    tensors = [(name, Var(draw(rng))) for name, draw in row.inputs]
    args += [v for _, v in tensors] + [draw(rng) for draw in row.consts]
    if row.build:
        tensors += [(v.name, v) for v in args[0].params()]
    out = lambda: row.call(*args)
    with ag.no_grad():
        shape = out().data.shape
    loss_fn = out
    if shape:  # a 0-d output is already the probe scalar
        r = _rand(rng, shape)
        loss_fn = lambda: _project(out(), r)
    return _check_tensors(row.name, loss_fn, tensors, tol, row.h, row.note)


def _conv_rows(target, op, tag, cases):
    """One row per (label, input shape, spec); tconv weights are (in, out)."""
    rows = []
    for i, (label, shape, spec) in enumerate(cases):
        io = (spec.in_channels, spec.out_channels)
        w_shape = (io if op == "tconv" else io[::-1]) + spec.kernel
        rows.append(Row(
            f"{target}[{label}]", (tag, i),
            (("x", _normal(shape)), ("weight", _normal(w_shape, 0.5)),
             ("bias", _normal((spec.out_channels,)))),
            lambda x, w, b, op=op, spec=spec: getattr(ag, op)(x, w, b, spec)))
    return rows


def _window_attention(rng):
    block = WindowAttention3d("wa", 2, (2, 2, 2), rng, dtype=np.float64)
    block.gamma.data[...] = 0.7  # zero gamma would null the param grads
    return block


_X = (1, 2, 4, 4, 4)
_X3 = (1, 2, 3, 3, 3)
_P = (1, 1, 4, 4, 4)  # loss probabilities and mask
_F64 = np.float64

TABLE = (
    *_conv_rows("conv3d", "conv", 0xC0, (
        ("s1d1p1", (1, 2, 6, 6, 6),
         ConvSpec(2, 3, kernel=(3, 3, 3), padding=(1, 1, 1))),
        ("s2d2p2", (1, 2, 8, 6, 6),
         ConvSpec(2, 2, kernel=(3, 3, 3), stride=(2, 2, 2),
                  dilation=(2, 2, 2), padding=(2, 2, 2))))),
    *_conv_rows("tconv3d", "tconv", 0xC1, (
        ("s2k2", _X, ConvSpec(2, 3, kernel=(2, 2, 2), stride=(2, 2, 2))),
        ("s1d2p2", _X, ConvSpec(2, 2, kernel=(3, 3, 3), dilation=(2, 2, 2),
                                padding=(2, 2, 2))))),
    # A fresh state per call keeps the running stats fixed across probes.
    *(Row(f"batchnorm3d[{mode}]", (0xB0, i),
          (("x", _normal((2, 3, 4, 4, 4))),
           ("gamma", _uniform(0.5, 1.5, (3,))), ("beta", _normal((3,)))),
          lambda x, g, b, rm, rv, mode=mode: ag.batchnorm(
              x, g, b, BatchNormState(rm, rv), mode),
          consts=(_normal((3,), 0.1), _uniform(0.5, 1.5, (3,))))
      for i, mode in enumerate(("train", "eval"))),
    Row("relu", (0xA0,), (("x", _off_kink(_X)),), lambda x: ag.relu(x),
        note="inputs within 0.05 of zero nudged by 0.1"),
    Row("sigmoid", (0xA1,), (("x", _normal(_X)),), lambda x: ag.sigmoid(x)),
    Row("softmax", (0xA2,), (("x", _normal((2, 3, 5, 7))),),
        lambda x: ag.softmax_lastdim(x)),
    Row("maxpool3d", (0xA3,), (("x", _normal((1, 2, 4, 4, 6))),),
        lambda x: ag.maxpool(x, (2, 2, 2))),
    Row("concat", (0xA6,), (("a", _normal(_X3)),
                            ("b", _normal((1, 3, 3, 3, 3)))),
        lambda a, b: ag.concat(a, b)),
    Row("slice_channels", (0xA7,), (("x", _normal((1, 6, 3, 3, 3))),),
        lambda x: ag.slice_channels(x, 2, 4)),
    Row("center_crop", (0xA8,), (("x", _normal((1, 2, 6, 7, 6))),),
        lambda x: ag.center_crop(x, (3, 4, 4))),
    Row("pad", (0xA9,), (("x", _normal(_X3)),),
        lambda x: ag.pad(x, ((1, 2), (0, 1), (2, 0)))),
    Row("add", (0xAA,), (("a", _normal(_X3)), ("b", _normal(_X3))),
        lambda a, b: ag.add(a, b)),
    Row("scale_by", (0xAB,), (("x", _normal(_X3)),
                              ("scale", lambda rng: np.asarray(0.7))),
        lambda x, s: ag.scale_by(x, s)),
    Row("const_mul", (0xAC,), (("x", _normal(_X3)),),
        lambda x: ag.const_mul(x, 0.37)),
    Row("channel_scale", (0xAD,),
        (("x", _normal((1, 3, 3, 3, 3))),
         ("scale_map", _uniform(0.1, 0.9, (1, 1, 3, 3, 3)))),
        lambda x, s: ag.channel_scale(x, s)),
    Row("unfold", (0xAE,), (("x", _normal((1, 3, 4, 4, 4))),),
        lambda x: ag.unfold(x, (2, 2, 2))),
    Row("fold", (0xAF,), (("tokens", _normal((1, 8, 8, 3))),),
        lambda t: ag.fold(t, (2, 2, 2), (4, 4, 4))),
    Row("matmul_qk", (0xB1,), (("q", _normal((1, 3, 4, 2))),
                               ("k", _normal((1, 3, 4, 2)))),
        lambda q, k: ag.matmul_qk(q, k)),
    Row("matmul_av", (0xB2,), (("attn", _normal((1, 3, 4, 4))),
                               ("v", _normal((1, 3, 4, 2)))),
        lambda a, v: ag.matmul_av(a, v)),
    Row("bce_loss", (0xBE,), (("p", _uniform(0.05, 0.95, _P)),),
        lambda p, m: losses.bce_term(p, m), consts=(_mask(_P),), tol=1e-6),
    Row("dice_loss", (0xD1,), (("p", _uniform(0.05, 0.95, _P)),),
        lambda p, m: losses.dice_term(p, m), consts=(_mask(_P),), tol=1e-6),
    Row("combined_loss", (0xC2,), (("p", _uniform(0.05, 0.95, _P)),),
        lambda p, m: losses.combined_term(p, m), consts=(_mask(_P),),
        tol=1e-6),
    *(Row(f"residual_block[s{s}]", (0xE0, s), (("x", _normal(_X)),),
          lambda blk, x: blk.forward(x, "train"), h=H_DEEP,
          build=lambda rng, s=s: ResidualBlock3d("rb", 2, 3, s, rng,
                                                 dtype=_F64))
      for s in (1, 2)),
    Row("attention_gate", (0xE1,),
        (("x_enc", _normal(_X)), ("g_dec", _normal((1, 3, 2, 2, 2)))),
        lambda blk, x, g: blk.forward(x, g), h=H_DEEP,
        build=lambda rng: AttentionGate3d("gate", 2, 3, rng, dtype=_F64)),
    Row("window_attention", (0xE2,), (("x", _normal(_X)),),
        lambda blk, x: blk.forward(x), build=_window_attention, h=H_DEEP),
    Row("conv_block", (0xE3,), (("x", _normal(_X)),),
        lambda blk, x: blk.forward(x, "train", None), h=H_DEEP,
        build=lambda rng: DoubleConvBlock3d("cb", 2, 3, 0.0, rng, dtype=_F64),
        note="dropout rate 0"),
)


def _run_target(target, seed, tol):
    return [rep for row in TABLE if row.target == target
            for rep in _run_row(row, seed, tol)]


for _row in TABLE:
    register(_row.target, _row.tol)(functools.partial(_run_target,
                                                      _row.target))


@register("dropout")
def _check_dropout(seed, tol):
    # Not a row: the eval case reuses the train case's projection.
    rng = np.random.default_rng([seed, 0xA4])
    xv = Var(_rand(rng, _X))
    r = _rand(rng, _X)
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


# ---------------------------------------------------------------------------
# Whole-network sampled checks
# ---------------------------------------------------------------------------

# Whole networks need a small probe step: at h=1e-4 the loss along a deep
# parameter is no longer locally linear (curvature compounds through the
# batch-norm statistic chains), so central differences misreport the slope
# even though every constituent op and block verifies cleanly. The lung net
# is built from the residual blocks and gates that need H_DEEP themselves:
# at 1e-5 probes straddle ReLU kinks (enc4.conv2.weight and up4.weight fail
# at seed 2).
H_NETWORK = {"lung": H_DEEP, "nodule": H_SHALLOW}


def _sampled_network_check(op_name, net, loss_fn, seed, tol, h,
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
        n1 = _probe(f, var.data, flat, ci, h)
        n2 = _probe(f, var.data, flat, ci, h / 2)
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




def _half_gamma(net):
    net.attn.gamma.data[...] = 0.5


# kind -> (config, RNG tag, set-up of the freshly built net)
NETWORKS = {
    "lung": (NetworkConfig(stage_channels=[2, 4, 8, 16],
                           input_geometry=(1, 16, 16, 16)), 0xF0, None),
    "nodule": (NetworkConfig(stage_channels=[2, 4, 8, 16],
                             input_geometry=(1, 16, 16, 16),
                             attn_window=(1, 1, 1), dropout_rate=0.0),
               0xF1, _half_gamma),
}


def _check_network(kind, seed, tol):
    config, tag, setup = NETWORKS[kind]
    net = build_network(kind, config, seed, dtype=np.float64)
    if setup is not None:
        setup(net)
    rng = np.random.default_rng([seed, tag])
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
    return _sampled_network_check(f"{kind}_net", net, loss_fn, seed, tol,
                                  H_NETWORK[kind])


for _kind in NETWORKS:
    register(f"{_kind}_net", TOL_NETWORK)(functools.partial(_check_network,
                                                            _kind))
