"""Composite building blocks: dilated residual block, additive attention
gate, windowed self-attention, and the plain double-conv block.

Each block owns its parameters as autograd Vars and exposes forward methods
taking and returning Vars. Layers, blocks and networks subclass `Module`, so
a layer assigned in `__init__` is trained, checkpointed and gradchecked with
no list to keep. Parameter names are hierarchical dotted strings so
checkpoints can address every tensor individually. The same names key the
`capture` hook, which reads layer and block outputs off an ordinary forward.

Under no_grad, batchnorm, ReLU and the residual adds run in place. The rule
at every `inplace=True`: an op writes only into an array its block made in
this forward, never into the block input, the network input or a skip tap
that is read later; so a BatchNorm3d is only handed its conv's fresh output.

Initialization: fan-in scaled normal weights (gain 2 for the ReLU paths),
zero biases, unit batchnorm gain, zero batchnorm offset, zero attention
residual scale.
"""
from __future__ import annotations

import contextlib
import math

import numpy as np

from . import autograd as ag
from .autograd import Var
from .ops import BatchNormState, ConvSpec


@contextlib.contextmanager
def capture(*names):
    """`with capture("gate1.mask", "enc2") as got:` fills the dict `got`
    with a copy of the last array recorded under each requested name (a
    later in-place op of a no_grad forward overwrites the array itself).
    Every layer and block records its output under its dotted name,
    attention gates their mask as `<gate>.mask`, window attention its
    (B, N, T, T) weights as `<attn>.weights`. A requested name left
    unrecorded raises KeyError."""
    global _capture
    prev, _capture = _capture, (frozenset(names), {})
    wanted, got = _capture
    try:
        yield got
    finally:
        _capture = prev
    missing = wanted - got.keys()
    if missing:
        raise KeyError(f"capture: nothing recorded {sorted(missing)}")


_capture = None  # the innermost active capture's (names, recorded dict)


def _record(name: str, v: Var) -> Var:
    if _capture is not None and name in _capture[0]:
        _capture[1][name] = v.data.copy()
    return v


def fan_in_normal(rng, shape, c_in: int, dtype) -> np.ndarray:
    """Normal init of a conv or tconv weight whose last three axes are the
    kernel, scaled by sqrt(2 / fan_in) with fan_in = c_in * prod(kernel)."""
    std = math.sqrt(2.0 / (c_in * math.prod(shape[2:])))
    return (rng.standard_normal(shape) * std).astype(dtype)


def _walk(value, kind):
    """Depth-first instances of `kind` in value, a Module's attributes in
    assignment order, or a list or tuple; anything else holds none."""
    if isinstance(value, kind):
        yield value
    elif isinstance(value, (Module, list, tuple)):
        items = vars(value).values() if isinstance(value, Module) else value
        for item in items:
            yield from _walk(item, kind)


class Module:
    """Base of layers, blocks and networks: `params()` yields every Var and
    `batchnorms()` every BatchNorm3d set as an attribute, directly or inside
    a list, tuple or nested Module, in the order `__init__` set them."""

    def params(self):
        return _walk(self, Var)

    def batchnorms(self):
        return _walk(self, BatchNorm3d)


class Conv3d(Module):
    """A conv3d layer owning weight/bias Vars, its weight (out, in, *k)."""

    transposed = False

    def __init__(self, name: str, spec: ConvSpec, rng, dtype=np.float32):
        self.name = name
        self.spec = spec
        io = (spec.out_channels, spec.in_channels)
        self.w = Var(fan_in_normal(
            rng, (io[::-1] if self.transposed else io) + spec.kernel,
            spec.in_channels, dtype), name=f"{name}.weight")
        self.b = Var(np.zeros(spec.out_channels, dtype=dtype),
                     name=f"{name}.bias")

    def __call__(self, x: Var) -> Var:
        return _record(self.name, ag.conv(x, self.w, self.b, self.spec))


class TConv3d(Conv3d):
    """A transposed conv3d layer, its weight (in, out, *k)."""

    transposed = True

    def __call__(self, x: Var) -> Var:
        return _record(self.name, ag.tconv(x, self.w, self.b, self.spec))


def upsample2(name: str, c_in: int, c_out: int, rng, dtype) -> TConv3d:
    """The 2x2x2 stride-2 transposed conv that doubles each extent."""
    return TConv3d(name, ConvSpec(c_in, c_out, kernel=(2, 2, 2),
                                  stride=(2, 2, 2)), rng, dtype)


class BatchNorm3d(Module):
    """Batchnorm layer: learnable gain/offset Vars plus running stats. Under
    no_grad it normalizes its input in place."""

    def __init__(self, name: str, channels: int, dtype=np.float32):
        self.name = name
        self.gamma = Var(np.ones(channels, dtype=dtype), name=f"{name}.gamma")
        self.beta = Var(np.zeros(channels, dtype=dtype), name=f"{name}.beta")
        self.state = BatchNormState(
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype))

    def __call__(self, x: Var, mode: str) -> Var:
        return _record(self.name, ag.batchnorm(x, self.gamma, self.beta,
                                               self.state, mode, inplace=True))


def _dilated3(c_in, c_out, stride=1):
    return ConvSpec(c_in, c_out, kernel=(3, 3, 3), stride=stride,
                    dilation=(2, 2, 2), padding=(2, 2, 2))


class ResidualBlock3d(Module):
    """Two dilated 3x3x3 conv+BN layers with a ReLU between, added to a skip.

    The skip is a strided 1x1x1 projection, as every block of both nets
    changes its width or resolution. Output is ReLU(skip(x) + branch(x)).
    """

    def __init__(self, name: str, c_in: int, c_out: int, stride: int, rng,
                 dtype=np.float32):
        self.name = name
        self.conv1 = Conv3d(f"{name}.conv1", _dilated3(c_in, c_out, stride),
                            rng, dtype)
        self.bn1 = BatchNorm3d(f"{name}.bn1", c_out, dtype)
        self.conv2 = Conv3d(f"{name}.conv2", _dilated3(c_out, c_out, 1),
                            rng, dtype)
        self.bn2 = BatchNorm3d(f"{name}.bn2", c_out, dtype)
        self.skip = Conv3d(
            f"{name}.skip",
            ConvSpec(c_in, c_out, kernel=(1, 1, 1), stride=stride), rng, dtype)

    def forward(self, x: Var, mode: str) -> Var:
        f = self.bn1(self.conv1(x), mode)
        f = ag.relu(f, inplace=True)
        f = self.bn2(self.conv2(f), mode)
        return _record(self.name, ag.relu(
            ag.add(self.skip(x), f, inplace=True), inplace=True))


class AttentionGate3d(Module):
    """Additive attention gate over an encoder feature and a coarser gating
    signal at half its spatial resolution.

    The gating path is projected, upsampled by a stride-2 transposed conv and
    added to the projected encoder feature; after a further mixing conv, a
    1-channel sigmoid mask scales a 1x1x1 transform of the encoder feature.
    """

    def __init__(self, name: str, c_x: int, c_g: int, rng, dtype=np.float32):
        self.name = name
        f = max(1, c_x // 2)
        self.enc_proj = Conv3d(f"{name}.enc_proj", _dilated3(c_x, f), rng, dtype)
        self.gate_proj = Conv3d(f"{name}.gate_proj", _dilated3(c_g, f), rng, dtype)
        self.gate_up = upsample2(f"{name}.gate_up", f, f, rng, dtype)
        self.mix = Conv3d(f"{name}.mix", _dilated3(f, f), rng, dtype)
        self.mask_head = Conv3d(f"{name}.mask_head", _dilated3(f, 1), rng, dtype)
        self.input_proj = Conv3d(
            f"{name}.input_proj", ConvSpec(c_x, c_x, kernel=(1, 1, 1)),
            rng, dtype)

    def forward(self, x_enc: Var, g_dec: Var) -> Var:
        xs = x_enc.data.shape[2:]
        gs = g_dec.data.shape[2:]
        if tuple(gs) != tuple(d // 2 for d in xs) or any(d % 2 for d in xs):
            raise ValueError(
                f"gating signal spatial {tuple(gs)} must be half of encoder "
                f"feature spatial {tuple(xs)}")
        a = ag.relu(ag.add(self.enc_proj(x_enc),
                           self.gate_up(self.gate_proj(g_dec)), inplace=True),
                    inplace=True)
        j = ag.relu(self.mix(a), inplace=True)
        z0 = _record(f"{self.name}.mask", ag.sigmoid(self.mask_head(j)))
        return _record(self.name,
                       ag.channel_scale(self.input_proj(x_enc), z0))


class WindowAttention3d(Module):
    """Single-head self-attention inside non-overlapping windows, added back
    to the input through a learnable scalar that starts at zero.

    Pipeline: 1x1x1 conv to 3C channels, split into q/k/v, partition into
    windows, per-window softmax(q k^T / sqrt(C)) v, merge windows, 1x1x1
    projection, then out = x + gamma * projected.
    """

    def __init__(self, name: str, channels: int, window, rng, dtype=np.float32):
        self.name = name
        self.channels = channels
        self.window = tuple(int(w) for w in window)
        self.qkv = Conv3d(f"{name}.qkv",
                          ConvSpec(channels, 3 * channels, kernel=(1, 1, 1)),
                          rng, dtype)
        self.proj = Conv3d(f"{name}.proj",
                           ConvSpec(channels, channels, kernel=(1, 1, 1)),
                           rng, dtype)
        self.gamma = Var(np.zeros((), dtype=dtype), name=f"{name}.gamma")

    def forward(self, x: Var) -> Var:
        c = self.channels
        t = self.qkv(x)
        q = ag.unfold(ag.slice_channels(t, 0, c), self.window)
        k = ag.unfold(ag.slice_channels(t, c, 2 * c), self.window)
        v = ag.unfold(ag.slice_channels(t, 2 * c, 3 * c), self.window)
        scores = ag.const_mul(ag.matmul_qk(q, k), 1.0 / math.sqrt(c))
        attn = _record(f"{self.name}.weights", ag.softmax_lastdim(scores))
        o = ag.fold(ag.matmul_av(attn, v), self.window, x.data.shape[2:])
        return _record(self.name, ag.add(
            x, ag.scale_by(self.proj(o), self.gamma), inplace=True))


class DoubleConvBlock3d(Module):
    """conv-BN-ReLU-dropout twice, no skip connection."""

    def __init__(self, name: str, c_in: int, c_out: int, dropout_rate: float,
                 rng, dtype=np.float32):
        self.name = name
        self.dropout_rate = float(dropout_rate)
        plain = dict(kernel=(3, 3, 3), stride=(1, 1, 1), padding=(1, 1, 1))
        self.conv1 = Conv3d(f"{name}.conv1", ConvSpec(c_in, c_out, **plain),
                            rng, dtype)
        self.bn1 = BatchNorm3d(f"{name}.bn1", c_out, dtype)
        self.conv2 = Conv3d(f"{name}.conv2", ConvSpec(c_out, c_out, **plain),
                            rng, dtype)
        self.bn2 = BatchNorm3d(f"{name}.bn2", c_out, dtype)

    def forward(self, x: Var, mode: str, rng=None) -> Var:
        h = ag.relu(self.bn1(self.conv1(x), mode), inplace=True)
        h = ag.dropout(h, self.dropout_rate, mode, rng)
        h = ag.relu(self.bn2(self.conv2(h), mode), inplace=True)
        return _record(self.name,
                       ag.dropout(h, self.dropout_rate, mode, rng))
