"""Composite blocks: residual, attention gate, window attention, double conv."""

import numpy as np
import pytest

from lungseg3d import autograd as ag
from lungseg3d.autograd import Var
from lungseg3d.blocks import (AttentionGate3d, BatchNorm3d, Conv3d,
                              DoubleConvBlock3d, ResidualBlock3d, TConv3d,
                              WindowAttention3d, capture)
from lungseg3d.ops import BN_EPS, ConvSpec, softmax_lastdim


def _rng(*key):
    return np.random.default_rng(list(key))


# ---------------------------------------------------------------------------
# layer wrappers
# ---------------------------------------------------------------------------

def test_conv_layer_names_and_zero_bias():
    layer = Conv3d("enc1.conv1", ConvSpec(2, 3, kernel=(3, 3, 3),
                                          padding=(1, 1, 1)), _rng(0))
    assert layer.w.name == "enc1.conv1.weight"
    assert layer.b.name == "enc1.conv1.bias"
    assert not layer.b.data.any()
    y = layer(Var(np.zeros((1, 2, 4, 4, 4), dtype=np.float32)))
    assert y.shape == (1, 3, 4, 4, 4)


def test_tconv_layer_weight_layout():
    layer = TConv3d("up", ConvSpec(4, 2, kernel=(2, 2, 2), stride=(2, 2, 2)),
                    _rng(1))
    assert layer.w.data.shape == (4, 2, 2, 2, 2)  # (C_in, C_out, k...)
    y = layer(Var(np.zeros((1, 4, 3, 3, 3), dtype=np.float32)))
    assert y.shape == (1, 2, 6, 6, 6)


def test_batchnorm_layer_shares_buffers_with_vars():
    bn = BatchNorm3d("b", 3, dtype=np.float64)
    names = [p.name for p in bn.params()]
    assert names == ["b.gamma", "b.beta"]
    # the next forward sees an in-place optimizer update of a Var and a
    # replaced buffer (as a checkpoint load does) alike
    bn.gamma.data = np.full(3, 2.0)
    bn.beta.data[...] = 0.5
    x = Var(_rng(1).standard_normal((2, 3, 2, 2, 2)))
    y = bn(x, "eval")
    assert np.allclose(y.data, 2.0 * x.data / np.sqrt(1.0 + BN_EPS) + 0.5)


# ---------------------------------------------------------------------------
# residual block
# ---------------------------------------------------------------------------

def test_residual_block_zero_weights_is_relu_of_skip():
    blk = ResidualBlock3d("r", 2, 3, 1, _rng(2), dtype=np.float64)
    for layer in (blk.conv1, blk.conv2):
        layer.w.data[...] = 0.0
    x = Var(_rng(3).standard_normal((1, 2, 4, 4, 4)))
    skip = blk.skip(x).data
    y = blk.forward(x, "train")
    # zeroed branch contributes exactly 0 (BN of a constant stays 0),
    # so the block collapses to ReLU of its 1x1x1 projection skip
    assert np.array_equal(y.data, np.maximum(skip, 0.0))


def test_residual_block_strided_halves_spatial():
    blk = ResidualBlock3d("r", 2, 4, 2, _rng(4))
    assert blk.skip is not None
    assert blk.skip.spec.kernel == (1, 1, 1)
    assert blk.skip.spec.stride == (2, 2, 2)
    x = Var(_rng(5).standard_normal((1, 2, 8, 8, 8)).astype(np.float32))
    y = blk.forward(x, "train")
    assert y.shape == (1, 4, 4, 4, 4)
    assert np.all(y.data >= 0.0)  # final ReLU


def test_residual_block_projection_skip_on_channel_change():
    blk = ResidualBlock3d("r", 2, 5, 1, _rng(6))
    assert blk.skip.spec == ConvSpec(2, 5, kernel=(1, 1, 1))
    assert len(list(blk.params())) == 10  # 2 convs + 2 bns + skip, w/b pairs
    # the skip is always a projection: no block of either net keeps both
    # its width and its resolution (test_networks walks them)
    assert len(list(ResidualBlock3d("r", 3, 3, 1, _rng(7)).params())) == 10


def test_residual_block_params_in_assignment_order():
    names = [p.name for p in ResidualBlock3d("r", 2, 5, 1, _rng(6)).params()]
    assert names == ["r.conv1.weight", "r.conv1.bias", "r.bn1.gamma",
                     "r.bn1.beta", "r.conv2.weight", "r.conv2.bias",
                     "r.bn2.gamma", "r.bn2.beta", "r.skip.weight",
                     "r.skip.bias"]


def test_layer_added_after_build_is_found():
    """A layer set as a new attribute is trained and checkpointed with no
    list to update: params() and batchnorms() find it by attribute."""
    blk = ResidualBlock3d("r", 2, 2, 1, _rng(9))
    blk.extra = Conv3d("r.extra", ConvSpec(2, 2, kernel=(1, 1, 1)), _rng(10))
    blk.extra_bn = BatchNorm3d("r.extra_bn", 2)
    names = [p.name for p in blk.params()]
    assert names[-4:] == ["r.extra.weight", "r.extra.bias",
                          "r.extra_bn.gamma", "r.extra_bn.beta"]
    assert [bn.name for bn in blk.batchnorms()] == ["r.bn1", "r.bn2",
                                                    "r.extra_bn"]


def test_residual_block_dilated_geometry():
    blk = ResidualBlock3d("r", 1, 1, 1, _rng(8))
    for conv in (blk.conv1, blk.conv2):
        assert conv.spec.dilation == (2, 2, 2)
        assert conv.spec.padding == (2, 2, 2)
        assert conv.spec.kernel == (3, 3, 3)


# ---------------------------------------------------------------------------
# attention gate
# ---------------------------------------------------------------------------

def test_attention_gate_shapes_and_mask_range():
    gate = AttentionGate3d("g", 4, 8, _rng(9), dtype=np.float64)
    x = Var(_rng(10).standard_normal((2, 4, 8, 8, 8)))
    g = Var(_rng(11).standard_normal((2, 8, 4, 4, 4)))
    with capture("g.mask") as got:
        out = gate.forward(x, g)
    assert out.shape == (2, 4, 8, 8, 8)
    mask = got["g.mask"]
    assert mask.shape == (2, 1, 8, 8, 8)
    assert mask.min() > 0.0 and mask.max() < 1.0


def test_attention_gate_output_is_masked_projection():
    gate = AttentionGate3d("g", 3, 6, _rng(12), dtype=np.float64)
    x = Var(_rng(13).standard_normal((1, 3, 4, 4, 4)))
    g = Var(_rng(14).standard_normal((1, 6, 2, 2, 2)))
    with capture("g.mask", "g.input_proj") as got:
        out = gate.forward(x, g)
    assert np.allclose(out.data, got["g.input_proj"] * got["g.mask"])


def test_attention_gate_rejects_bad_gating_resolution():
    gate = AttentionGate3d("g", 2, 2, _rng(15))
    x = Var(np.zeros((1, 2, 8, 8, 8), dtype=np.float32))
    same = Var(np.zeros((1, 2, 8, 8, 8), dtype=np.float32))
    with pytest.raises(ValueError):
        gate.forward(x, same)  # not half resolution
    odd = Var(np.zeros((1, 2, 7, 7, 7), dtype=np.float32))
    half = Var(np.zeros((1, 2, 3, 3, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        gate.forward(odd, half)  # odd encoder dims can't halve exactly


# ---------------------------------------------------------------------------
# window attention
# ---------------------------------------------------------------------------

def test_window_attention_zero_scale_is_identity():
    blk = WindowAttention3d("a", 4, (2, 2, 2), _rng(16))
    assert blk.gamma.data == 0.0
    x = Var(_rng(17).standard_normal((1, 4, 4, 4, 4)).astype(np.float32))
    y = blk.forward(x)
    assert np.array_equal(y.data, x.data)  # bit-exact passthrough


def test_window_attention_rows_sum_to_one():
    blk = WindowAttention3d("a", 3, (2, 2, 2), _rng(18), dtype=np.float64)
    x = Var(_rng(19).standard_normal((2, 3, 4, 4, 4)))
    with capture("a.weights") as got:
        blk.forward(x)
    amap = got["a.weights"]
    assert amap.shape == (2, 8, 8, 8)  # (B, windows, tokens, tokens)
    assert np.abs(amap.sum(axis=-1) - 1.0).max() <= 1e-6
    assert amap.min() > 0.0 and amap.max() < 1.0


def test_window_attention_matches_dense_oracle_single_window():
    # One window covering the whole volume must equal straight dense
    # attention over all voxel tokens, computed independently with numpy.
    c, dims = 3, (2, 2, 2)
    blk = WindowAttention3d("a", c, dims, _rng(20), dtype=np.float64)
    blk.gamma.data = np.asarray(0.8)
    x = _rng(21).standard_normal((1, c) + dims)

    t = np.einsum("oc,bcdhw->bodhw", blk.qkv.w.data[:, :, 0, 0, 0], x) \
        + blk.qkv.b.data[None, :, None, None, None]
    tok = t.reshape(1, 3 * c, -1).transpose(0, 2, 1)  # (B, T, 3C)
    q, k, v = tok[:, :, :c], tok[:, :, c:2 * c], tok[:, :, 2 * c:]
    attn = softmax_lastdim(q @ k.transpose(0, 2, 1) / np.sqrt(c))
    o = (attn @ v).transpose(0, 2, 1).reshape(1, c, *dims)
    proj = np.einsum("oc,bcdhw->bodhw", blk.proj.w.data[:, :, 0, 0, 0], o) \
        + blk.proj.b.data[None, :, None, None, None]
    want = x + 0.8 * proj

    with capture("a.weights") as inner:
        got = blk.forward(Var(x)).data
    assert np.abs(got - want).max() <= 1e-6 * max(1.0, np.abs(want).max())

    amap = inner["a.weights"]
    assert amap.shape == (1, 1, 8, 8)
    assert np.abs(amap[:, 0] - attn).max() <= 1e-6


def test_window_attention_windows_do_not_mix():
    # Tokens only attend within their window: perturbing one window leaves
    # the attended update of every other window unchanged.
    c = 2
    blk = WindowAttention3d("a", c, (2, 2, 2), _rng(22), dtype=np.float64)
    blk.gamma.data = np.asarray(1.0)
    x = _rng(23).standard_normal((1, c, 4, 4, 4))
    base = blk.forward(Var(x)).data - x  # attention contribution only
    x2 = x.copy()
    x2[:, :, :2, :2, :2] += 5.0  # hits exactly the first window
    pert = blk.forward(Var(x2)).data - x2
    assert not np.allclose(pert[:, :, :2, :2, :2], base[:, :, :2, :2, :2])
    assert np.array_equal(pert[:, :, 2:, :, :], base[:, :, 2:, :, :])
    assert np.array_equal(pert[:, :, :2, 2:, :], base[:, :, :2, 2:, :])
    assert np.array_equal(pert[:, :, :2, :2, 2:], base[:, :, :2, :2, 2:])


def test_window_attention_gradient_reaches_gamma():
    blk = WindowAttention3d("a", 2, (2, 2, 2), _rng(24), dtype=np.float64)
    x = Var(_rng(25).standard_normal((1, 2, 2, 2, 2)))
    y = blk.forward(x)
    ag.run_backward(y, np.ones(y.shape))
    assert blk.gamma.grad is not None and blk.gamma.grad.shape == ()
    names = [p.name for p in blk.params()]
    assert names == ["a.qkv.weight", "a.qkv.bias", "a.proj.weight",
                     "a.proj.bias", "a.gamma"]


# ---------------------------------------------------------------------------
# double conv block
# ---------------------------------------------------------------------------

def test_double_conv_zero_weights_gives_zero_output():
    blk = DoubleConvBlock3d("d", 2, 3, 0.0, _rng(26), dtype=np.float64)
    blk.conv1.w.data[...] = 0.0
    blk.conv2.w.data[...] = 0.0
    x = Var(_rng(27).standard_normal((1, 2, 4, 4, 4)))
    y = blk.forward(x, "train")
    assert not y.data.any()


def test_double_conv_shapes_and_eval_determinism():
    blk = DoubleConvBlock3d("d", 1, 4, 0.5, _rng(28))
    x = Var(_rng(29).standard_normal((1, 1, 4, 4, 4)).astype(np.float32))
    blk.forward(x, "train", np.random.default_rng(0))  # sets running stats
    y1 = blk.forward(x, "eval")
    y2 = blk.forward(x, "eval")
    assert np.array_equal(y1.data, y2.data)  # dropout off in eval
    assert y1.shape == (1, 4, 4, 4, 4)


def test_double_conv_train_dropout_reproducible_by_stream():
    blk = DoubleConvBlock3d("d", 1, 2, 0.5, _rng(30), dtype=np.float64)
    x = Var(_rng(31).standard_normal((1, 1, 4, 4, 4)))
    y1 = blk.forward(x, "train", np.random.default_rng(7))
    y2 = blk.forward(x, "train", np.random.default_rng(7))
    y3 = blk.forward(x, "train", np.random.default_rng(8))
    assert np.array_equal(y1.data, y2.data)
    assert not np.array_equal(y1.data, y3.data)
