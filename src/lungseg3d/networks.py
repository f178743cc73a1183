"""The two segmentation networks.

GatedResidualUNet3d (lung parenchyma): four stride-2 dilated residual encoder
stages, a residual bottleneck, and four decoder stages that upsample, gate a
skip feature with an additive attention gate, concatenate, and refine with a
residual block. The nominal 23x300x300 geometry is not divisible by 2^4, so
the input is zero-padded to the next multiple of 16 per axis and the head
center-crops back before two final mixing convs and the sigmoid.

WindowAttentionUNet3d (nodule): a plain UNet over 64^3 blocks, double-conv
encoder stages with 2^3 max pooling, windowed self-attention on the
bottleneck, transposed-conv upsampling with skip concatenation, and a 1x1x1
sigmoid head.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Var
from .blocks import (AttentionGate3d, Conv3d, DoubleConvBlock3d, Module,
                     ResidualBlock3d, WindowAttention3d, upsample2)
from .ops import ConvSpec
from .tensor import Tensor5

DOWN_FACTOR = 16  # four stride-2 stages

# The last logit layer starts with a negative bias so initial predictions sit
# near the background prior instead of 0.5.  Segmentation foregrounds are
# sparse, and with a mean-reduced cross entropy a fresh net otherwise spends
# its first epochs pushing the vast background toward zero.
HEAD_BIAS_INIT = -3.0


@dataclass
class NetworkConfig:
    """Widths and geometry shared by both network builders.

    stage_channels are the four encoder widths; the bottleneck doubles the
    last. attn_window and dropout_rate only affect the nodule net.
    """

    stage_channels: list
    input_geometry: tuple
    attn_window: tuple = (2, 2, 2)
    dropout_rate: float = 0.2

    def __post_init__(self):
        for name, n in (("stage_channels", 4), ("input_geometry", 4),
                        ("attn_window", 3)):
            kind = list if name == "stage_channels" else tuple
            vals = kind(int(v) for v in getattr(self, name))
            if len(vals) != n or min(vals) < 1:
                raise ValueError(f"{name} must be {n} positive ints")
            setattr(self, name, vals)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")


def lung_default_config() -> NetworkConfig:
    return NetworkConfig(stage_channels=[32, 64, 128, 256],
                         input_geometry=(1, 23, 300, 300))


def nodule_default_config() -> NetworkConfig:
    return NetworkConfig(stage_channels=[16, 32, 64, 128],
                         input_geometry=(1, 64, 64, 64))


def _pad_plan(spatial, multiple: int):
    """Symmetric zero-pad amounts taking each dim to the next multiple."""
    plan = []
    for x in spatial:
        target = -(-x // multiple) * multiple
        lo = (target - x) // 2
        plan.append((lo, target - x - lo))
    return tuple(plan)


class GatedResidualUNet3d(Module):
    """Residual UNet with attention-gated skip connections."""

    def __init__(self, config: NetworkConfig, rng, dtype=np.float32):
        self.config = config
        c_in = config.input_geometry[0]
        c1, c2, c3, c4 = config.stage_channels
        cb = 2 * c4

        self.enc1 = ResidualBlock3d("enc1", c_in, c1, 2, rng, dtype)
        self.enc2 = ResidualBlock3d("enc2", c1, c2, 2, rng, dtype)
        self.enc3 = ResidualBlock3d("enc3", c2, c3, 2, rng, dtype)
        self.enc4 = ResidualBlock3d("enc4", c3, c4, 2, rng, dtype)
        self.bottleneck = ResidualBlock3d("bottleneck", c4, cb, 1, rng, dtype)

        def mix(name, c):
            return Conv3d(name, ConvSpec(c, c, kernel=(3, 3, 3),
                                         padding=(1, 1, 1)), rng, dtype)

        # Decoder stage i, an (up, mix, gate, dec) tuple, upsamples to the
        # resolution of tap_i and gates that tap with the pre-upsample state.
        # Taps run e3, e2, e1, padded input.
        tap_ch = (c3, c2, c1, c_in)
        gate_ch = (cb, c4, c3, c2)
        up_io = ((cb, c4), (c4, c3), (c3, c2), (c2, c1))
        self.decoder = [
            (upsample2(f"up{s}", ui, uo, rng, dtype), mix(f"mix{s}", uo),
             AttentionGate3d(f"gate{s}", tc, gc, rng, dtype),
             ResidualBlock3d(f"dec{s}", tc + uo, uo, 1, rng, dtype))
            for s, (ui, uo), tc, gc in zip((4, 3, 2, 1), up_io, tap_ch, gate_ch)]

        self.head = Conv3d("head", ConvSpec(c1, 1, kernel=(3, 3, 3),
                                            padding=(1, 1, 1)), rng, dtype)
        self.post1 = Conv3d("post1", ConvSpec(1, 1, kernel=(3, 3, 3),
                                              padding=(1, 1, 1)), rng, dtype)
        self.post2 = Conv3d("post2", ConvSpec(1, 1, kernel=(3, 3, 3),
                                              padding=(1, 1, 1)), rng, dtype)
        self.post2.b.data[...] = HEAD_BIAS_INIT

    def forward(self, x: Var, mode: str, rng=None) -> Var:
        """Probability volume with the input's spatial shape. The net has no
        dropout, so rng is unused; it keeps one signature for both nets."""
        c_in = self.config.input_geometry[0]
        if x.data.shape[1] != c_in:
            raise ValueError(f"input has {x.data.shape[1]} channels, "
                             f"network expects {c_in}")
        spatial = x.data.shape[2:]
        # Only this list and the call in progress hold a tap or a decoder
        # array: each goes once it is used, so a no_grad forward frees it
        # before the next block runs. Taps run padded input, e1, e2, e3.
        taps = [ag.pad(x, _pad_plan(spatial, DOWN_FACTOR))]
        for enc in (self.enc1, self.enc2, self.enc3):
            taps.append(enc.forward(taps[-1], mode))
        state = self.bottleneck.forward(self.enc4.forward(taps[-1], mode),
                                        mode)
        for upl, mixl, gate, dec in self.decoder:
            d_i = mixl(upl(state))
            a_i = gate.forward(taps.pop(), state)
            state = ag.concat(a_i, d_i)
            del a_i, d_i
            state = dec.forward(state, mode)

        h = self.head(state)
        del state  # freed before the crop makes its copy
        h = self.post2(self.post1(ag.center_crop(h, spatial)))
        return ag.sigmoid(h)


class WindowAttentionUNet3d(Module):
    """Plain UNet with windowed self-attention on the bottleneck."""

    def __init__(self, config: NetworkConfig, rng, dtype=np.float32):
        self.config = config
        c_in, d, h, w = config.input_geometry
        if d % DOWN_FACTOR or h % DOWN_FACTOR or w % DOWN_FACTOR:
            raise ValueError(f"input spatial {(d, h, w)} must be divisible "
                             f"by {DOWN_FACTOR}")
        bd, bh, bw = d // DOWN_FACTOR, h // DOWN_FACTOR, w // DOWN_FACTOR
        wd, wh, ww = config.attn_window
        if bd % wd or bh % wh or bw % ww:
            raise ValueError(f"bottleneck spatial {(bd, bh, bw)} not divisible "
                             f"by attention window {config.attn_window}")
        n1, n2, n3, n4 = config.stage_channels
        nb = 2 * n4
        rate = config.dropout_rate

        self.enc1 = DoubleConvBlock3d("enc1", c_in, n1, rate, rng, dtype)
        self.enc2 = DoubleConvBlock3d("enc2", n1, n2, rate, rng, dtype)
        self.enc3 = DoubleConvBlock3d("enc3", n2, n3, rate, rng, dtype)
        self.enc4 = DoubleConvBlock3d("enc4", n3, n4, rate, rng, dtype)
        self.bottleneck = DoubleConvBlock3d("bottleneck", n4, nb, rate, rng,
                                            dtype)
        self.attn = WindowAttention3d("attn", nb, config.attn_window, rng,
                                      dtype)

        # Every up is built before every dec: the order of the RNG draws
        # fixes the initial weights. The decoder pairs them by stage.
        ups = [upsample2(f"up{s}", ci, co, rng, dtype) for s, ci, co in
               ((4, nb, n4), (3, n4, n3), (2, n3, n2), (1, n2, n1))]
        self.decoder = list(zip(ups, [
            DoubleConvBlock3d(f"dec{s}", 2 * n, n, rate, rng, dtype)
            for s, n in ((4, n4), (3, n3), (2, n2), (1, n1))]))
        self.head = Conv3d("head", ConvSpec(n1, 1, kernel=(1, 1, 1)), rng,
                           dtype)
        self.head.b.data[...] = HEAD_BIAS_INIT

    def forward(self, x: Var, mode: str, rng=None) -> Var:
        spatial = x.data.shape[2:]
        if any(s % DOWN_FACTOR for s in spatial):
            raise ValueError(f"input spatial {tuple(spatial)} must be "
                             f"divisible by {DOWN_FACTOR}")
        # skips is popped and h rebound as soon as each is used, so a
        # no_grad forward frees them before the next block runs
        skips = []
        h = x
        for enc in (self.enc1, self.enc2, self.enc3, self.enc4):
            skips.append(enc.forward(h, mode, rng))
            h = ag.maxpool(skips[-1], (2, 2, 2))
        h = self.bottleneck.forward(h, mode, rng)
        h = self.attn.forward(h)
        for upl, dec in self.decoder:
            h = ag.concat(skips.pop(), upl(h))
            h = dec.forward(h, mode, rng)
        return ag.sigmoid(self.head(h))


def build_network(kind: str, config: NetworkConfig, seed: int,
                  dtype=np.float32):
    """Construct a network with deterministic initialization."""
    rng = np.random.default_rng([int(seed), 0xB10C])
    if kind == "lung":
        return GatedResidualUNet3d(config, rng, dtype)
    if kind == "nodule":
        return WindowAttentionUNet3d(config, rng, dtype)
    raise ValueError(f"unknown network kind {kind!r}")


def check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold {threshold} outside (0, 1)")


def predict_volume(net, volume, threshold: float = 0.5) -> Tensor5:
    """Threshold the probability forward pass into a binary mask."""
    check_threshold(threshold)
    arr = volume.data if isinstance(volume, Tensor5) else np.asarray(volume)
    with ag.no_grad():
        prob = net.forward(Var(arr), "eval")
    mask = (prob.data >= threshold).astype(arr.dtype)
    return Tensor5(mask)
