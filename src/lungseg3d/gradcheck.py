"""Finite-difference certification of every analytic backward pass.

The oracle is central differences in f64. Each check builds a micro
instance of an op, block, or network, projects its output to a scalar with a
fixed random weighting, backprops analytically, and compares against numeric
derivatives element by element (or over sampled coordinates for the full
networks). Every check is a row of one table, run by one runner.

The table doubles as a coverage gate: the test suite fails if a tape op
exists without a row that checks it.
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


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

BLOCK_TARGETS = ("residual_block", "attention_gate", "window_attention",
                 "conv_block")
NETWORK_TARGETS = ("lung_net", "nodule_net")


def all_targets():
    return sorted(CHECKS)


def check_gradients(target: str, seed: int = 0):
    """Run one target's rows (or 'all'), each at its own `Row.tol`;
    returns a list of GradReports."""
    if target == "all":
        reports = []
        for name in all_targets():
            reports.extend(check_gradients(name, seed=seed))
        return reports
    if target not in CHECKS:
        raise ValueError(f"unknown gradcheck target {target!r}; known: "
                         f"{', '.join(all_targets())}")
    try:
        return CHECKS[target](seed)
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
# The check table: every op, loss, block and network check as a row
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Row:
    """One checked tape call.

    The runner seeds an RNG from (seed, *tag) and draws, in this order: the
    block (if `build` is set), the checked inputs, the constants and the
    output projection. `call` gets them in the same order and must look its
    kernel up when it runs, so that a rebound module attribute is honoured.
    With `sample` set, the runner probes that many coordinates drawn across
    the checked tensors instead of every coordinate of each.
    """

    name: str                   # op name in the reports
    tag: tuple
    inputs: tuple               # (tensor name, draw(rng)) per checked input
    call: Callable              # call([block,] *inputs, *consts) -> Var
    consts: tuple = ()          # draw(rng) per unchecked argument
    build: Callable = None      # build(rng, seed) -> block; params checked
    h: float = H_SHALLOW
    tol: float = TOL_DEFAULT
    sample: int = 0
    note: str = ""
    op: str = ""                # the autograd or losses function certified

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


def _run_row(row: Row, seed):
    rng = np.random.default_rng([seed, *row.tag])
    args = [row.build(rng, seed)] if row.build else []
    tensors = [(name, Var(draw(rng))) for name, draw in row.inputs]
    args += [v for _, v in tensors] + [draw(rng) for draw in row.consts]
    if row.build:
        tensors += [(v.name, v) for v in args[0].params()]
    out = lambda: row.call(*args)
    loss_fn = out
    loss = out()
    if loss.data.shape:  # a 0-d output is already the probe scalar
        r = _rand(rng, loss.data.shape)
        loss_fn = lambda: _project(out(), r)
        loss = _project(loss, r)
    ag.zero_grads([v for _, v in tensors])
    ag.run_backward(loss)

    def f(_buf):
        with ag.no_grad():
            return float(loss_fn().data)

    if row.sample:
        return _run_sampled(row, f, [v for _, v in tensors], seed)
    return [compare_grads(row.name, name, _grad(v),
                          finite_diff_grad(f, v.data, row.h), row.tol,
                          row.note)
            for name, v in tensors]


def _grad(var):
    return var.grad if var.grad is not None else np.zeros_like(var.data)


def _run_sampled(row: Row, f, params, seed):
    """Probe `row.sample` coordinates drawn across params by their sizes."""
    rng = np.random.default_rng([seed, 0x5A])
    sizes = np.array([p.data.size for p in params], dtype=np.float64)
    probs = sizes / sizes.sum()
    # Probe every coordinate at two step sizes.  On a smooth stretch the two
    # estimates agree to truncation error; a pooling argmax flip or a ReLU
    # crossing inside the probe window makes them disagree by the size of
    # the slope jump.  Those coordinates are genuinely non-differentiable
    # points of the sampled loss, where no difference scheme measures the
    # analytic one-sided gradient, so they are resampled — the coordinate
    # analogue of the op-level generators nudging inputs away from kinks.
    picks, tried, skipped, attempts = {}, set(), 0, 0
    while len(tried) - skipped < row.sample:
        if attempts == 50 * row.sample:
            raise FloatingPointError(f"{row.name}: could not find "
                                     f"{row.sample} smooth coordinates to "
                                     f"probe in {attempts} draws")
        attempts += 1
        ti = int(rng.choice(len(params), p=probs))
        ci = int(rng.integers(params[ti].data.size))
        if (ti, ci) in tried:
            continue
        tried.add((ti, ci))
        data = params[ti].data
        n1 = _probe(f, data, data.reshape(-1), ci, row.h)
        n2 = _probe(f, data, data.reshape(-1), ci, row.h / 2)
        if abs(n1 - n2) > max(ABS_FLOOR,
                              (row.tol / 3.0) * max(abs(n1), abs(n2))):
            skipped += 1
        else:
            picks.setdefault(ti, {})[ci] = n2

    suffix = f", {skipped} kink probes resampled" if skipped else ""
    reports = []
    for ti in sorted(picks):
        coords = sorted(picks[ti])
        analytic = _grad(params[ti]).reshape(-1)[coords]
        numeric = np.array([picks[ti][c] for c in coords])
        reports.append(compare_grads(
            row.name, params[ti].name, analytic, numeric, row.tol,
            note=f"sampled {len(coords)} coords{suffix}"))
    return reports


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
            lambda x, w, b, op=op, spec=spec: getattr(ag, op)(x, w, b, spec),
            op=op))
    return rows


def _window_attention(rng, _seed):
    block = WindowAttention3d("wa", 2, (2, 2, 2), rng, dtype=np.float64)
    block.gamma.data[...] = 0.7  # zero gamma would null the param grads
    return block


_X = (1, 2, 4, 4, 4)
_X3 = (1, 2, 3, 3, 3)
_P = (1, 1, 4, 4, 4)  # loss probabilities and mask
_F64 = np.float64
_MICRO = {"stage_channels": [2, 4, 8, 16], "input_geometry": (1, 16, 16, 16)}
# Batch 4: the deepest stages collapse to one voxel per channel, and a batch
# norm over fewer samples degenerates (one sample maps everything to its
# offset; two behave like a sign function), leaving nothing but structurally
# dead gradients to sample.  The probe scalar is a random projection of the
# output probabilities: smooth everywhere, unlike the clamped cross-entropy,
# whose clamp boundary is a kink that random init can land on.  The loss
# backwards have their own checks.
_NET_X = (4, 1, 16, 16, 16)


def _lung_net(_rng, seed):
    return build_network("lung", NetworkConfig(**_MICRO), seed, dtype=_F64)


def _nodule_net(_rng, seed):
    net = build_network("nodule", NetworkConfig(
        **_MICRO, attn_window=(1, 1, 1), dropout_rate=0.0), seed, dtype=_F64)
    net.attn.gamma.data[...] = 0.5  # zero gamma would null the attn grads
    return net


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
          consts=(_normal((3,), 0.1), _uniform(0.5, 1.5, (3,))),
          op="batchnorm")
      for i, mode in enumerate(("train", "eval"))),
    Row("relu", (0xA0,), (("x", _off_kink(_X)),), lambda x: ag.relu(x),
        op="relu", note="inputs within 0.05 of zero nudged by 0.1"),
    Row("sigmoid", (0xA1,), (("x", _normal(_X)),), lambda x: ag.sigmoid(x),
        op="sigmoid"),
    Row("softmax", (0xA2,), (("x", _normal((2, 3, 5, 7))),),
        lambda x: ag.softmax_lastdim(x), op="softmax_lastdim"),
    Row("maxpool3d", (0xA3,), (("x", _normal((1, 2, 4, 4, 6))),),
        lambda x: ag.maxpool(x, (2, 2, 2)), op="maxpool"),
    # A mask seed drawn as a constant keeps the mask fixed across probes.
    Row("dropout[train]", (0xA4,), (("x", _normal(_X)),),
        lambda x, s: ag.dropout(x, 0.3, "train", np.random.default_rng(s)),
        consts=(lambda rng: rng.integers(2 ** 63),), op="dropout",
        note="mask fixed via seeded rng"),
    Row("dropout[eval]", (0xA5,), (("x", _normal(_X)),),
        lambda x: ag.dropout(x, 0.3, "eval", None), op="dropout"),
    Row("concat", (0xA6,), (("a", _normal(_X3)),
                            ("b", _normal((1, 3, 3, 3, 3)))),
        lambda a, b: ag.concat(a, b), op="concat"),
    Row("slice_channels", (0xA7,), (("x", _normal((1, 6, 3, 3, 3))),),
        lambda x: ag.slice_channels(x, 2, 4), op="slice_channels"),
    Row("center_crop", (0xA8,), (("x", _normal((1, 2, 6, 7, 6))),),
        lambda x: ag.center_crop(x, (3, 4, 4)), op="center_crop"),
    Row("pad", (0xA9,), (("x", _normal(_X3)),),
        lambda x: ag.pad(x, ((1, 2), (0, 1), (2, 0))), op="pad"),
    Row("add", (0xAA,), (("a", _normal(_X3)), ("b", _normal(_X3))),
        lambda a, b: ag.add(a, b), op="add"),
    Row("scale_by", (0xAB,), (("x", _normal(_X3)),
                              ("scale", lambda rng: np.asarray(0.7))),
        lambda x, s: ag.scale_by(x, s), op="scale_by"),
    Row("const_mul", (0xAC,), (("x", _normal(_X3)),),
        lambda x: ag.const_mul(x, 0.37), op="const_mul"),
    Row("channel_scale", (0xAD,),
        (("x", _normal((1, 3, 3, 3, 3))),
         ("scale_map", _uniform(0.1, 0.9, (1, 1, 3, 3, 3)))),
        lambda x, s: ag.channel_scale(x, s), op="channel_scale"),
    Row("unfold", (0xAE,), (("x", _normal((1, 3, 4, 4, 4))),),
        lambda x: ag.unfold(x, (2, 2, 2)), op="unfold"),
    Row("fold", (0xAF,), (("tokens", _normal((1, 8, 8, 3))),),
        lambda t: ag.fold(t, (2, 2, 2), (4, 4, 4)), op="fold"),
    Row("matmul_qk", (0xB1,), (("q", _normal((1, 3, 4, 2))),
                               ("k", _normal((1, 3, 4, 2)))),
        lambda q, k: ag.matmul_qk(q, k), op="matmul_qk"),
    Row("matmul_av", (0xB2,), (("attn", _normal((1, 3, 4, 4))),
                               ("v", _normal((1, 3, 4, 2)))),
        lambda a, v: ag.matmul_av(a, v), op="matmul_av"),
    Row("bce_loss", (0xBE,), (("p", _uniform(0.05, 0.95, _P)),),
        lambda p, m: losses.bce_term(p, m), consts=(_mask(_P),), tol=1e-6,
        op="bce_term"),
    Row("dice_loss", (0xD1,), (("p", _uniform(0.05, 0.95, _P)),),
        lambda p, m: losses.dice_term(p, m), consts=(_mask(_P),), tol=1e-6,
        op="dice_term"),
    Row("combined_loss", (0xC2,), (("p", _uniform(0.05, 0.95, _P)),),
        lambda p, m: losses.combined_term(p, m), consts=(_mask(_P),),
        tol=1e-6, op="combined_term"),
    *(Row(f"residual_block[s{s}]", (0xE0, s), (("x", _normal(_X)),),
          lambda blk, x: blk.forward(x, "train"), h=H_DEEP,
          build=lambda rng, _, s=s: ResidualBlock3d("rb", 2, 3, s, rng,
                                                    dtype=_F64))
      for s in (1, 2)),
    Row("attention_gate", (0xE1,),
        (("x_enc", _normal(_X)), ("g_dec", _normal((1, 3, 2, 2, 2)))),
        lambda blk, x, g: blk.forward(x, g), h=H_DEEP,
        build=lambda rng, _: AttentionGate3d("gate", 2, 3, rng, dtype=_F64)),
    Row("window_attention", (0xE2,), (("x", _normal(_X)),),
        lambda blk, x: blk.forward(x), build=_window_attention, h=H_DEEP),
    Row("conv_block", (0xE3,), (("x", _normal(_X)),),
        lambda blk, x: blk.forward(x, "train", None), h=H_DEEP,
        build=lambda rng, _: DoubleConvBlock3d("cb", 2, 3, 0.0, rng,
                                               dtype=_F64),
        note="dropout rate 0"),
    # Whole networks need a small probe step: at h=1e-4 the loss along a deep
    # parameter is no longer locally linear (curvature compounds through the
    # batch-norm statistic chains), so central differences misreport the
    # slope even though every constituent op and block verifies cleanly. The
    # lung net is built from the residual blocks and gates that need H_DEEP
    # themselves: at 1e-5 probes straddle ReLU kinks (enc4.conv2.weight and
    # up4.weight fail at seed 2).
    Row("lung_net", (0xF0,), (),
        lambda net, x: net.forward(Var(x), "train"), consts=(_normal(_NET_X),),
        build=_lung_net, h=H_DEEP, tol=TOL_NETWORK, sample=60),
    # Odd extents, as at the paper geometry, run through the net's pad and
    # crop: 13x20x18 pads to 16x32x32, 4 voxels a sample at the deepest stage.
    Row("lung_net", (0xF2,), (),
        lambda net, x: net.forward(Var(x), "train"),
        consts=(_normal((2, 1, 13, 20, 18)),), build=_lung_net,
        h=H_DEEP, tol=TOL_NETWORK, sample=60),
    Row("nodule_net", (0xF1,), (),
        lambda net, x: net.forward(Var(x), "train"), consts=(_normal(_NET_X),),
        build=_nodule_net, tol=TOL_NETWORK, sample=60),
)


def _run_target(target, seed):
    return [rep for row in TABLE if row.target == target
            for rep in _run_row(row, seed)]


CHECKS = {row.target: functools.partial(_run_target, row.target)
          for row in TABLE}
# Tape op (autograd/losses function) -> gradcheck target covering it.
TAPE_OP_TARGETS = {row.op: row.target for row in TABLE if row.op}
