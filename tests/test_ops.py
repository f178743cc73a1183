"""Forward/backward kernels: shapes, pinned values, and local gradients."""

import tracemalloc

import numpy as np
import pytest

from lungseg3d import ops
from lungseg3d.ops import (BN_EPS, BN_MOMENTUM, BatchNormState, ConvSpec,
                           LayerParams, batchnorm3d, batchnorm3d_backward,
                           center_crop3d,
                           center_crop3d_backward, channel_scale,
                           channel_scale_backward, concat_channels,
                           concat_channels_backward, conv3d, conv3d_backward,
                           dropout, dropout_backward, fold_windows,
                           maxpool3d, maxpool3d_backward,
                           pad3d, pad3d_backward, relu, relu_backward,
                           sigmoid, sigmoid_backward, softmax_lastdim,
                           softmax_lastdim_backward, tconv3d, tconv3d_backward,
                           unfold_windows, _block_cols, _phases, _tap_group,
                           _tap_plan)


def _params(rng, spec):
    w = rng.standard_normal((spec.out_channels, spec.in_channels)
                            + spec.kernel)
    b = rng.standard_normal(spec.out_channels)
    return LayerParams(w, b, spec)


# ---------------------------------------------------------------------------
# conv3d
# ---------------------------------------------------------------------------

def test_conv_shape_formula_dilated_strided():
    spec = ConvSpec(1, 3, kernel=(3, 3, 3), stride=(2, 2, 2),
                    dilation=(2, 2, 2), padding=(2, 2, 2))
    x = np.zeros((1, 1, 8, 8, 8))
    assert conv3d(x, _params(np.random.default_rng(0), spec)).shape == \
        (1, 3, 4, 4, 4)


def test_conv_shape_formula_general():
    for i in range(20):
        r = np.random.default_rng([1, i])
        k = tuple(int(r.integers(1, 4)) for _ in range(3))
        s = tuple(int(r.integers(1, 3)) for _ in range(3))
        d = tuple(int(r.integers(1, 3)) for _ in range(3))
        p = tuple(int(r.integers(0, 3)) for _ in range(3))
        dims = tuple(int(r.integers(4, 9)) for _ in range(3))
        spec = ConvSpec(2, 1, kernel=k, stride=s, dilation=d, padding=p)
        want = tuple(
            (x + 2 * pp - dd * (kk - 1) - 1) // ss + 1
            for x, pp, dd, kk, ss in zip(dims, p, d, k, s))
        if min(want) < 1:
            continue
        assert spec.out_dims(dims) == want
        y = conv3d(r.standard_normal((1, 2) + dims), _params(r, spec))
        assert y.shape == (1, 1) + want


def test_conv_single_voxel_scalar_chain():
    spec = ConvSpec(1, 1, kernel=(1, 1, 1))
    x = np.full((1, 1, 1, 1, 1), 3.0)
    p = LayerParams(np.full((1, 1, 1, 1, 1), 2.0), np.zeros(1), spec)
    assert conv3d(x, p)[0, 0, 0, 0, 0] == 6.0
    g = np.full((1, 1, 1, 1, 1), 5.0)
    gx, gw, gb = conv3d_backward(x, p, g)
    assert gw[0, 0, 0, 0, 0] == 15.0   # x * grad_out
    assert gx[0, 0, 0, 0, 0] == 10.0   # w * grad_out
    assert gb[0] == 5.0


def test_conv_zero_grad_out_gives_zero_grads():
    rng = np.random.default_rng(2)
    spec = ConvSpec(2, 3, kernel=(3, 3, 3), padding=(1, 1, 1))
    x = rng.standard_normal((1, 2, 4, 4, 4))
    p = _params(rng, spec)
    gx, gw, gb = conv3d_backward(x, p, np.zeros((1, 3, 4, 4, 4)))
    assert not gx.any() and not gw.any() and not gb.any()


def test_conv_rejects_channel_mismatch():
    spec = ConvSpec(2, 3, kernel=(3, 3, 3))
    with pytest.raises(ValueError):
        conv3d(np.zeros((1, 1, 5, 5, 5)),
               _params(np.random.default_rng(0), spec))


def test_conv_rejects_collapsed_output():
    spec = ConvSpec(1, 1, kernel=(5, 5, 5))
    with pytest.raises(ValueError):
        conv3d(np.zeros((1, 1, 3, 3, 3)),
               _params(np.random.default_rng(0), spec))


# ---------------------------------------------------------------------------
# tconv3d
# ---------------------------------------------------------------------------

def test_tconv_shape_formula():
    spec = ConvSpec(3, 2, kernel=(2, 2, 2), stride=(2, 2, 2))
    rng = np.random.default_rng(3)
    w = rng.standard_normal((3, 2, 2, 2, 2))
    y = tconv3d(rng.standard_normal((1, 3, 4, 5, 6)),
                LayerParams(w, np.zeros(2), spec))
    assert y.shape == (1, 2, 8, 10, 12)
    assert spec.tconv_out_dims((4, 5, 6)) == (8, 10, 12)


def test_tconv_is_conv_adjoint():
    # <conv(x), y> == <x, tconv(y)> with the same weight buffer, on
    # exact-fit input dims X = (o-1)s + d(k-1) + 1 - 2p.
    checked = 0
    for i in range(40):
        r = np.random.default_rng([4, i])
        k = tuple(int(r.integers(1, 4)) for _ in range(3))
        s = tuple(int(r.integers(1, 3)) for _ in range(3))
        d = tuple(int(r.integers(1, 3)) for _ in range(3))
        p = tuple(int(r.integers(0, 2)) for _ in range(3))
        o = tuple(int(r.integers(1, 4)) for _ in range(3))
        dims = tuple((oo - 1) * ss + dd * (kk - 1) + 1 - 2 * pp
                     for oo, ss, kk, dd, pp in zip(o, s, k, d, p))
        if min(dims) < 1:
            continue
        cin, cout = int(r.integers(1, 4)), int(r.integers(1, 4))
        fwd = ConvSpec(cin, cout, kernel=k, stride=s, dilation=d, padding=p)
        back = ConvSpec(cout, cin, kernel=k, stride=s, dilation=d, padding=p)
        w = r.standard_normal((cout, cin) + k)
        x = r.standard_normal((2, cin) + dims)
        y = r.standard_normal((2, cout) + o)
        lhs = float((conv3d(x, LayerParams(w, np.zeros(cout), fwd)) * y).sum())
        rhs = float((x * tconv3d(y, LayerParams(w, np.zeros(cin), back))).sum())
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)
        checked += 1
    assert checked >= 10


def test_tconv_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    spec = ConvSpec(2, 3, kernel=(2, 2, 2), stride=(2, 2, 2))
    x = rng.standard_normal((1, 2, 3, 3, 3))
    # tconv weight axes are (in_channels, out_channels, kd, kh, kw)
    p = LayerParams(rng.standard_normal((2, 3, 2, 2, 2)),
                    rng.standard_normal(3), spec)
    g = rng.standard_normal((1, 3, 6, 6, 6))
    gx, gw, gb = tconv3d_backward(x, p, g)

    def loss():
        return float((tconv3d(x, p) * g).sum())

    h = 1e-6
    for arr, grad in ((x, gx), (p.weight, gw), (p.bias, gb)):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(0, flat.size, max(1, flat.size // 7)):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss()
            flat[idx] = orig - h
            dn = loss()
            flat[idx] = orig
            num = (up - dn) / (2 * h)
            assert abs(num - gflat[idx]) <= 1e-6 * max(1.0, abs(num))


# ---------------------------------------------------------------------------
# conv family against a direct-sum reference
# ---------------------------------------------------------------------------

# (label, kind, c_in, c_out, kernel, stride, dilation, padding, batch,
#  input dims, dtype, some conv input voxel is read by no output)
CONV_TABLE = [
    ("mixed-stride", "conv", 2, 3, 3, (1, 2, 3), 1, 1, 1, (5, 7, 10),
     np.float64, False),
    # dilation 2 with stride 2 reads only even voxels
    ("lung-encoder", "conv", 2, 3, 3, 2, 2, 2, 2, (8, 9, 7), np.float64,
     True),
    ("skip-1x1x1-s2", "conv", 3, 2, 1, 2, 1, 0, 2, (6, 7, 5), np.float64,
     True),
    ("trailing-voxels", "conv", 2, 2, 3, 2, 1, 0, 1, (8, 9, 10), np.float64,
     True),
    ("mixed-dilation", "conv", 2, 3, (3, 2, 1), (3, 1, 2), (2, 1, 3),
     (2, 0, 1), 2, (11, 6, 9), np.float64, True),
    ("lung-encoder-f32", "conv", 2, 3, 3, 2, 2, 2, 1, (8, 8, 8), np.float32,
     True),
    ("up-2x2x2-s2", "tconv", 3, 2, 2, 2, 1, 0, 2, (3, 4, 5), np.float64,
     False),
    ("tconv-dilated", "tconv", 2, 2, 3, 1, 2, 2, 1, (4, 5, 6), np.float64,
     False),
    ("tconv-mixed-stride", "tconv", 2, 3, 3, (1, 2, 3), 1, 1, 2, (3, 4, 3),
     np.float64, False),
    ("up-2x2x2-s2-f32", "tconv", 3, 2, 2, 2, 1, 0, 1, (3, 3, 3), np.float32,
     False),
    # "-blocks" rows span at least three column blocks in each GEMM loop,
    # the last one partial (test_conv_block_rows_span_three_blocks)
    ("dilated-blocks", "conv", 4, 4, 3, 1, 2, 2, 1, (10, 40, 50), np.float64,
     False),
    ("dilated-blocks-f32", "conv", 4, 4, 3, 1, 2, 2, 1, (10, 40, 50),
     np.float32, False),
    ("lung-encoder-blocks", "conv", 4, 4, 3, 2, 2, 2, 1, (24, 90, 90),
     np.float64, True),
    ("lung-encoder-blocks-f32", "conv", 4, 4, 3, 2, 2, 2, 1, (24, 90, 90),
     np.float32, True),
    ("up-2x2x2-s2-blocks", "tconv", 8, 3, 2, 2, 1, 0, 1, (10, 60, 120),
     np.float64, False),
    ("up-2x2x2-s2-blocks-f32", "tconv", 8, 3, 2, 2, 1, 0, 1, (10, 60, 120),
     np.float32, False),
    # thin-channel rows: the forward shift-GEMM stacks taps into groups, three
    # groups of 9 taps at one input channel, groups of 4 and a last group of
    # 3 at two; the tconv with one output channel stacks in its input
    # gradient
    ("thin-c1-blocks", "conv", 1, 2, 3, 1, 2, 2, 1, (14, 60, 80),
     np.float64, False),
    ("thin-c1-blocks-f32", "conv", 1, 2, 3, 1, 2, 2, 1, (14, 60, 80),
     np.float32, False),
    ("thin-c2-blocks", "conv", 2, 3, 3, 1, 1, 1, 2, (8, 50, 60), np.float64,
     False),
    ("thin-c2-blocks-f32", "conv", 2, 3, 3, 1, 1, 1, 2, (8, 50, 60),
     np.float32, False),
    ("tconv-out1-blocks", "tconv", 2, 1, 3, 1, 1, 1, 1, (12, 70, 80),
     np.float64, False),
    ("tconv-out1-blocks-f32", "tconv", 2, 1, 3, 1, 1, 1, 1, (12, 70, 80),
     np.float32, False),
    # one conv output channel: the input gradient stacks taps, nine to a GEMM
    ("out1-blocks", "conv", 8, 1, 3, 1, 1, 1, 1, (10, 50, 60), np.float64,
     False),
    ("out1-blocks-f32", "conv", 8, 1, 3, 1, 1, 1, 1, (10, 50, 60),
     np.float32, False),
    ("out1-dilated-blocks", "conv", 4, 1, 3, 1, 2, 2, 1, (10, 60, 80),
     np.float64, False),
    ("out1-dilated-blocks-f32", "conv", 4, 1, 3, 1, 2, 2, 1, (10, 60, 80),
     np.float32, False),
    # "-small" rows take the one-GEMM path in every loop, the input
    # gradient's once per read phase
    # (test_conv_one_gemm_path_is_taken_by_small_rows_only)
    ("s1-small", "conv", 3, 4, 3, 1, 1, 1, 1, (5, 6, 7), np.float64, False),
    ("s1-small-f32", "conv", 3, 4, 3, 1, 1, 1, 1, (5, 6, 7), np.float32,
     False),
    ("lung-encoder-small", "conv", 2, 3, 3, 2, 2, 2, 2, (8, 9, 7),
     np.float64, True),
    ("lung-encoder-small-f32", "conv", 2, 3, 3, 2, 2, 2, 2, (8, 9, 7),
     np.float32, True),
    ("c1-small", "conv", 1, 3, 3, 1, 2, 2, 1, (6, 7, 8), np.float64, False),
    ("c1-small-f32", "conv", 1, 3, 3, 1, 2, 2, 1, (6, 7, 8), np.float32,
     False),
    ("c6-small", "conv", 6, 5, 3, 1, 1, 1, 2, (4, 5, 6), np.float64, False),
    ("c6-small-f32", "conv", 6, 5, 3, 1, 1, 1, 2, (4, 5, 6), np.float32,
     False),
    # one tap: the stack is the phase slice, read in place
    ("proj-1x1x1-small", "conv", 4, 2, 1, 1, 1, 0, 1, (4, 5, 6),
     np.float64, False),
    ("proj-1x1x1-small-f32", "conv", 4, 2, 1, 1, 1, 0, 1, (4, 5, 6),
     np.float32, False),
    ("up-2x2x2-s2-small", "tconv", 3, 2, 2, 2, 1, 0, 2, (2, 2, 2),
     np.float64, False),
    ("up-2x2x2-s2-small-f32", "tconv", 3, 2, 2, 2, 1, 0, 2, (2, 2, 2),
     np.float32, False),
    ("out1-small", "conv", 8, 1, 3, 1, 1, 1, 1, (4, 5, 6), np.float64,
     False),
    ("out1-small-f32", "conv", 8, 1, 3, 1, 1, 1, 1, (4, 5, 6), np.float32,
     False),
    ("out1-dilated-small", "conv", 4, 1, 3, 1, 2, 2, 1, (5, 6, 7),
     np.float64, False),
    ("out1-dilated-small-f32", "conv", 4, 1, 3, 1, 2, 2, 1, (5, 6, 7),
     np.float32, False),
]


def _direct_sum(kind, spec, x, w, b, gy):
    """f64 reference for (y, gx, gw, gb) plus the read-voxel mask.

    Conv output voxel o and tap t meet conv input voxel s*o + d*t - p. conv3d
    maps the input side to the output side with W_t; tconv3d, with the conv
    input side as its output, maps back with W_t^T. Each tap is summed over
    all output voxels at once; within one tap, o -> s*o + d*t - p is one to
    one, so fancy-indexed += adds every term.
    """
    x, w, b, gy = (a.astype(np.float64) for a in (x, w, b, gy))
    conv_in, conv_out = (x.shape[2:], gy.shape[2:]) if kind == "conv" \
        else (gy.shape[2:], x.shape[2:])
    y, gx, gw = np.zeros(gy.shape), np.zeros(x.shape), np.zeros(w.shape)
    read = np.zeros(conv_in, dtype=bool)
    for t in np.ndindex(*spec.kernel):
        src = [s * np.arange(n) + d * tt - p for n, tt, s, d, p in
               zip(conv_out, t, spec.stride, spec.dilation, spec.padding)]
        ok = [(i >= 0) & (i < n) for i, n in zip(src, conv_in)]
        o = np.ix_(*[np.flatnonzero(k) for k in ok])
        i = np.ix_(*[si[k] for si, k in zip(src, ok)])
        read[i] = True
        xi, yi = (i, o) if kind == "conv" else (o, i)
        xi, yi = (..., *xi), (..., *yi)
        m = w[(..., *t)].T if kind == "conv" else w[(..., *t)]
        y[yi] += np.einsum("bc...,cd->bd...", x[xi], m)
        gx[xi] += np.einsum("bd...,cd->bc...", gy[yi], m)
        gm = np.tensordot(x[xi], gy[yi], axes=([0, 2, 3, 4], [0, 2, 3, 4]))
        gw[(..., *t)] += gm.T if kind == "conv" else gm
    return y + b[None, :, None, None, None], gx, gw, gy.sum(axis=(0, 2, 3, 4)), read


def _row_case(row):
    """(forward, backward, x, params, grad_out) of one CONV_TABLE row."""
    label, kind, ci, co, k, s, d, pad, batch, dims, dtype, unread = row
    spec = ConvSpec(ci, co, kernel=k, stride=s, dilation=d, padding=pad)
    rng = np.random.default_rng([7, CONV_TABLE.index(row)])
    if kind == "conv":
        fwd, bwd = conv3d, conv3d_backward
        w_shape, out = (co, ci) + spec.kernel, spec.out_dims(dims)
    else:
        fwd, bwd = tconv3d, tconv3d_backward
        w_shape, out = (ci, co) + spec.kernel, spec.tconv_out_dims(dims)
    x = rng.standard_normal((batch, ci) + dims).astype(dtype)
    p = LayerParams(rng.standard_normal(w_shape).astype(dtype),
                    rng.standard_normal(co).astype(dtype), spec)
    gy = rng.standard_normal((batch, co) + out).astype(dtype)
    return fwd, bwd, x, p, gy


@pytest.mark.parametrize("row", CONV_TABLE, ids=[r[0] for r in CONV_TABLE])
def test_conv_family_matches_direct_sum(row):
    label, kind, *_, dtype, unread = row
    fwd, bwd, x, p, gy = _row_case(row)
    spec = p.spec
    got = (fwd(x, p),) + tuple(bwd(x, p, gy))
    # a second call on the same input gives the same bytes
    again = (fwd(x, p),) + tuple(bwd(x, p, gy))
    for name, g, h in zip(("y", "gx", "gw", "gb"), got, again):
        assert g.tobytes() == h.tobytes(), name
    *want, read = _direct_sum(kind, spec, x, p.weight, p.bias, gy)
    rtol = 1e-12 if dtype == np.float64 else 1e-5
    for name, g, r in zip(("y", "gx", "gw", "gb"), got, want):
        assert g.dtype == dtype and g.shape == r.shape, name
        np.testing.assert_allclose(g, r, rtol=rtol,
                                   atol=rtol * np.abs(r).max(), err_msg=name)
    if kind == "conv":
        assert (~read).any() == unread
        # voxels no output reads get an exact zero, not round-off
        assert not got[1][:, :, ~read].any()


def _conv_plan(row):
    """The conv plan of a CONV_TABLE row, with the conv's (O, C) channels."""
    _, kind, ci, co, k, s, d, pad, _, dims, _, _ = row
    spec = ConvSpec(ci, co, kernel=k, stride=s, dilation=d, padding=pad)
    if kind == "conv":
        return _tap_plan(spec, dims), co, ci
    return _tap_plan(spec, spec.tconv_out_dims(dims)), ci, co


@pytest.mark.parametrize("row", [r for r in CONV_TABLE if "-blocks" in r[0]],
                         ids=lambda r: r[0])
def test_conv_block_rows_span_three_blocks(row):
    """Each GEMM loop of a "-blocks" row runs over at least three column
    blocks, and the last block is partial: the forward shift-GEMM and the
    weight gradient over the L pitched columns, and the input gradient over
    the span of each read phase."""
    label, batch, dtype = row[0], row[8], row[10]
    plan, O, C = _conv_plan(row)
    size = np.dtype(dtype).itemsize
    # (columns, accumulator rows, input rows); the shift-GEMM's input rows
    # are its stacked operand's, the weight gradient's are the phase slices'
    loops = [(plan.L, O, _tap_group(C, O) * C), (plan.L, O, C)]
    loops += [(e - a, C, _tap_group(O, C) * O)
              for _, _, a, e, _ in plan.reads]
    for cols, acc, inp in loops:
        nb = _block_cols(batch * acc, batch * inp, size)
        assert cols > 2 * nb and cols % nb, (label, cols, nb)


@pytest.mark.parametrize(
    "row", [r for r in CONV_TABLE if "-small" in r[0] or "-blocks" in r[0]],
    ids=lambda r: r[0])
def test_conv_one_gemm_path_is_taken_by_small_rows_only(row, monkeypatch):
    """The forward and the weight gradient decide once for or against the
    one-GEMM path, and the input gradient once per read phase. Every decision
    of a "-small" row takes it and runs one GEMM; no "-blocks" row takes it."""
    fwd, bwd, x, p, gy = _row_case(row)
    rule, real_rule = [], ops._one_gemm
    gemms, real_matmul = [], np.matmul

    def spy_rule(*args):
        rule.append(real_rule(*args))
        return rule[-1]

    def spy_matmul(*args, **kwargs):
        gemms.append(args[0].shape)
        return real_matmul(*args, **kwargs)

    monkeypatch.setattr(ops, "_one_gemm", spy_rule)
    monkeypatch.setattr(np, "matmul", spy_matmul)
    fwd(x, p)
    bwd(x, p, gy)
    monkeypatch.undo()
    small = "-small" in row[0]
    assert rule == [small] * (2 + len(_conv_plan(row)[0].reads)), rule
    assert (len(gemms) == len(rule)) == small, gemms


def test_conv_workspace_stays_within_three_and_a_half_outputs():
    """The traced allocations of an 8->8, 3^3, padding-1 conv3d peak at no
    more than 3.5 times its output: the padded phase buffer, the pitched
    output and one block of GEMM scratch, not a second output-sized one."""
    spec = ConvSpec(8, 8, kernel=(3, 3, 3), padding=(1, 1, 1))
    rng = np.random.default_rng(26)
    x = rng.standard_normal((1, 8, 32, 64, 64)).astype(np.float32)
    p = LayerParams(rng.standard_normal((8, 8, 3, 3, 3)).astype(np.float32),
                    np.zeros(8, np.float32), spec)
    conv3d(x, p)  # builds and caches the tap plan
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = conv3d(x, p)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * y.nbytes, peak / y.nbytes


def test_phases_match_np_pad_byte_for_byte():
    """The phase buffers are those of np.pad followed by strided copies, over
    strides 1-2, paddings 0-2 and odd and even extents."""
    rng = np.random.default_rng(19)
    checked = 0
    for stride in ((1, 1, 1), (2, 2, 2), (1, 2, 2), (2, 1, 2)):
        for pad in ((0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 2)):
            for dims in ((5, 6, 7), (4, 8, 6), (7, 3, 4)):
                for dtype in (np.float64, np.float32):
                    spec = ConvSpec(2, 1, kernel=3, stride=stride,
                                    padding=pad)
                    plan = _tap_plan(spec, dims)
                    if min(plan.out) < 1:
                        continue
                    x = rng.standard_normal((2, 2) + dims).astype(dtype)
                    xq = np.pad(x, [(0, 0), (0, 0)] + [
                        (p, m * s - n - p) for n, p, s, m in
                        zip(dims, pad, stride, plan.M)])
                    sd, sh, sw = stride
                    got = _phases(x, spec, plan)
                    assert len(got) == sd * sh * sw
                    for r, ph in got.items():
                        want = np.ascontiguousarray(
                            xq[:, :, r[0]::sd, r[1]::sh, r[2]::sw])
                        assert ph.dtype == dtype
                        assert ph.shape == (2, 2, want[0, 0].size)
                        assert ph.tobytes() == want.tobytes(), (stride, pad)
                    checked += 1
    assert checked >= 80


# ---------------------------------------------------------------------------
# maxpool3d
# ---------------------------------------------------------------------------

def test_maxpool_forward_and_tie_break():
    x = np.zeros((1, 1, 2, 2, 2))
    x[0, 0] = np.arange(8).reshape(2, 2, 2)
    y, idx = maxpool3d(x, (2, 2, 2))
    assert y.shape == (1, 1, 1, 1, 1) and y[0, 0, 0, 0, 0] == 7.0

    tied = np.full((1, 1, 2, 2, 2), 4.0)
    _, tidx = maxpool3d(tied, (2, 2, 2))
    g = maxpool3d_backward(tidx, tied.shape, (2, 2, 2),
                           np.ones((1, 1, 1, 1, 1)))
    # first voxel in (d, h, w) scan order receives the whole gradient
    assert g[0, 0, 0, 0, 0] == 1.0 and g.sum() == 1.0


def test_maxpool_backward_routes_to_argmax():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 4, 4, 6))
    y, idx = maxpool3d(x, (2, 2, 2))
    g = rng.standard_normal(y.shape)
    gx = maxpool3d_backward(idx, x.shape, (2, 2, 2), g)
    assert gx.shape == x.shape
    assert np.count_nonzero(gx) == y.size
    # re-windowing the input gradient recovers grad_out at each argmax slot
    B, C = 2, 3
    flat = (gx.reshape(B, C, 2, 2, 2, 2, 3, 2)
            .transpose(0, 1, 2, 4, 6, 3, 5, 7)
            .reshape(B, C, 2, 2, 3, 8))
    assert np.array_equal(
        np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], g)


_NOT_TILED = r"^spatial dims \(3, 4, 4\) not divisible by window \(2, 2, 2\)$"


def test_maxpool_rejects_indivisible():
    with pytest.raises(ValueError, match=_NOT_TILED):
        maxpool3d(np.zeros((1, 1, 3, 4, 4)), (2, 2, 2))


# ---------------------------------------------------------------------------
# batchnorm3d
# ---------------------------------------------------------------------------

def _bn(c):
    """Unit gain, zero offset and (0, 1) running stats, as a fresh layer."""
    state = BatchNormState(running_mean=np.zeros(c), running_var=np.ones(c))
    return np.ones(c), np.zeros(c), state


def test_batchnorm_train_normalizes():
    rng = np.random.default_rng(7)
    gamma, beta, bn = _bn(2)
    x = rng.standard_normal((2, 2, 4, 4, 4)) * 3.0 + 1.5
    y, _ = batchnorm3d(x, gamma, beta, bn, "train")
    assert np.abs(y.mean(axis=(0, 2, 3, 4))).max() <= 1e-6
    assert np.abs(y.var(axis=(0, 2, 3, 4)) - 1.0).max() <= 1e-4


def test_batchnorm_constant_input_maps_to_zero():
    gamma, beta, bn = _bn(1)
    x = np.full((1, 1, 3, 3, 3), 4.2)
    y, _ = batchnorm3d(x, gamma, beta, bn, "train")
    assert np.abs(y).max() <= 1e-3  # 0 / sqrt(eps) stays tiny


def test_batchnorm_eval_uses_running_stats():
    rng = np.random.default_rng(8)
    gamma, beta, bn = _bn(2)
    x = rng.standard_normal((1, 2, 4, 4, 4))
    batchnorm3d(x, gamma, beta, bn, "train")
    # running stats moved by momentum 0.1 away from the (0, 1) init
    assert BN_MOMENTUM == 0.1
    bmean = x.mean(axis=(0, 2, 3, 4))
    bvar = x.var(axis=(0, 2, 3, 4))
    assert np.allclose(bn.running_mean, 0.1 * bmean)
    assert np.allclose(bn.running_var, 0.9 + 0.1 * bvar)
    y, _ = batchnorm3d(x, gamma, beta, bn, "eval")
    want = (x - bn.running_mean[None, :, None, None, None]) / np.sqrt(
        bn.running_var[None, :, None, None, None] + BN_EPS)
    assert np.allclose(y, want)


def test_batchnorm_rejects_channel_mismatch_and_bad_mode():
    gamma, beta, bn = _bn(2)
    with pytest.raises(ValueError):
        batchnorm3d(np.zeros((1, 3, 2, 2, 2)), gamma, beta, bn, "train")
    with pytest.raises(ValueError):
        batchnorm3d(np.zeros((1, 2, 2, 2, 2)), gamma, beta, bn, "predict")


def test_batchnorm_backward_matches_finite_differences():
    rng = np.random.default_rng(9)
    gamma, beta, bn = _bn(2)
    x = rng.standard_normal((2, 2, 3, 3, 3))
    g = rng.standard_normal(x.shape)
    _, cache = batchnorm3d(x, gamma, beta, bn, "train")
    gx, dgamma, dbeta = batchnorm3d_backward(cache, g)

    h = 1e-6

    def loss():
        out, _ = batchnorm3d(x, gamma, beta, bn, "train")
        return float((out * g).sum())

    flat = x.reshape(-1)
    gflat = gx.reshape(-1)
    for idx in range(0, flat.size, 11):
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss()
        flat[idx] = orig - h
        dn = loss()
        flat[idx] = orig
        num = (up - dn) / (2 * h)
        assert abs(num - gflat[idx]) <= 1e-5 * max(1.0, abs(num))
    xhat = cache[0]
    assert np.allclose(dbeta, g.sum(axis=(0, 2, 3, 4)))
    assert np.allclose(dgamma, (g * xhat).sum(axis=(0, 2, 3, 4)))


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def test_relu_and_backward():
    x = np.array([-2.0, 0.0, 3.0]).reshape(1, 1, 1, 1, 3)
    assert np.array_equal(relu(x).reshape(-1), [0.0, 0.0, 3.0])
    g = np.ones_like(x)
    assert np.array_equal(relu_backward(x, g).reshape(-1), [0.0, 0.0, 1.0])


def test_sigmoid_is_stable_at_extremes():
    with np.errstate(over="raise"):
        y = sigmoid(np.array([-800.0, 0.0, 800.0]).reshape(1, 1, 1, 1, 3))
    assert np.all(np.isfinite(y))
    assert y.reshape(-1)[1] == 0.5
    assert 0.0 <= y.min() and y.max() <= 1.0
    g = sigmoid_backward(y, np.ones_like(y))
    assert np.isclose(g.reshape(-1)[1], 0.25)


def test_softmax_rows_sum_to_one_and_backward():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 3, 4, 5)) * 30.0
    y = softmax_lastdim(x)
    assert np.abs(y.sum(axis=-1) - 1.0).max() <= 1e-6
    assert y.min() > 0.0 and y.max() < 1.0

    g = rng.standard_normal(y.shape)
    gx = softmax_lastdim_backward(y, g)
    h = 1e-6
    flat = x.reshape(-1)
    for idx in range(0, flat.size, 17):
        orig = flat[idx]
        flat[idx] = orig + h
        up = float((softmax_lastdim(x) * g).sum())
        flat[idx] = orig - h
        dn = float((softmax_lastdim(x) * g).sum())
        flat[idx] = orig
        num = (up - dn) / (2 * h)
        assert abs(num - gx.reshape(-1)[idx]) <= 1e-5 * max(1.0, abs(num))


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def test_dropout_eval_is_identity():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((1, 2, 3, 3, 3))
    y, keep = dropout(x, 0.5, "eval", None)
    assert keep is None and np.array_equal(y, x)
    assert np.array_equal(dropout_backward(None, 0.5, x), x)


def test_dropout_rate_zero_is_identity():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((1, 2, 3, 3, 3))
    y, keep = dropout(x, 0.0, "train", np.random.default_rng(0))
    assert keep is None and np.array_equal(y, x)


def test_dropout_train_scales_survivors():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((1, 1, 8, 8, 8))
    y, keep = dropout(x, 0.25, "train", np.random.default_rng(42))
    assert 0 < keep.sum() < keep.size  # both outcomes present
    assert np.allclose(y[keep], x[keep] / 0.75)
    assert np.all(y[~keep] == 0.0)
    y2, _ = dropout(x, 0.25, "train", np.random.default_rng(42))
    assert np.array_equal(y, y2)  # same stream, same mask
    g = rng.standard_normal(x.shape)
    gx = dropout_backward(keep, 0.25, g)
    assert np.allclose(gx[keep], g[keep] / 0.75)
    assert np.all(gx[~keep] == 0.0)


def test_dropout_rejects_bad_rate():
    with pytest.raises(ValueError):
        dropout(np.zeros((1, 1, 2, 2, 2)), 1.0, "train",
                np.random.default_rng(0))


# ---------------------------------------------------------------------------
# shape plumbing: concat, crop, pad, channel_scale
# ---------------------------------------------------------------------------

def test_concat_channels_and_backward():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((1, 2, 3, 3, 3))
    b = rng.standard_normal((1, 4, 3, 3, 3))
    y = concat_channels(a, b)
    assert y.shape == (1, 6, 3, 3, 3)
    assert np.array_equal(y[:, :2], a) and np.array_equal(y[:, 2:], b)
    ga, gb = concat_channels_backward(2, y)
    assert np.array_equal(ga, a) and np.array_equal(gb, b)
    with pytest.raises(ValueError):
        concat_channels(a, rng.standard_normal((1, 4, 2, 3, 3)))


def test_center_crop_drops_high_side_on_odd_margin():
    x = np.arange(5 * 5 * 5, dtype=np.float64).reshape(1, 1, 5, 5, 5)
    y = center_crop3d(x, (2, 2, 2))
    assert np.array_equal(y, x[:, :, 1:3, 1:3, 1:3])
    g = np.ones((1, 1, 2, 2, 2))
    gx = center_crop3d_backward(x.shape, (2, 2, 2), g)
    assert gx.sum() == 8.0 and gx[0, 0, 1, 1, 1] == 1.0
    assert gx[0, 0, 0, 0, 0] == 0.0
    with pytest.raises(ValueError):
        center_crop3d(x, (6, 2, 2))


def test_pad3d_round_trip():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((1, 2, 3, 4, 5))
    pads = ((1, 2), (0, 1), (2, 0))
    y = pad3d(x, pads)
    assert y.shape == (1, 2, 6, 5, 7)
    assert np.array_equal(y[:, :, 1:4, 0:4, 2:7], x)
    assert np.array_equal(pad3d_backward(pads, y), x)


def test_channel_scale_broadcasts_one_channel_map():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((1, 3, 2, 2, 2))
    s = rng.random((1, 1, 2, 2, 2))
    assert np.allclose(channel_scale(x, s), x * s)
    g = rng.standard_normal(x.shape)
    gx, gs = channel_scale_backward(x, s, g)
    assert np.allclose(gx, g * s)
    assert np.allclose(gs, (g * x).sum(axis=1, keepdims=True))
    with pytest.raises(ValueError):
        channel_scale(x, rng.random((1, 2, 2, 2, 2)))


# ---------------------------------------------------------------------------
# unfold / fold
# ---------------------------------------------------------------------------

def test_unfold_token_order_pinned():
    x = np.arange(1, 9, dtype=np.float64).reshape(1, 1, 2, 2, 2)
    t = unfold_windows(x, (2, 2, 2))
    assert t.shape == (1, 1, 8, 1)
    assert np.array_equal(t[0, 0, :, 0], np.arange(1, 9))


def test_unfold_4cubed_into_eight_windows():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 3, 4, 4, 4))
    t = unfold_windows(x, (2, 2, 2))
    assert t.shape == (2, 8, 8, 3)
    # first window is the low-corner block, channels last
    corner = x[:, :, :2, :2, :2].reshape(2, 3, 8)
    assert np.array_equal(t[:, 0], np.transpose(corner, (0, 2, 1)))


def test_fold_unfold_bit_exact_random_pairs():
    for i in range(12):
        r = np.random.default_rng([18, i])
        wd = tuple(int(r.integers(1, 4)) for _ in range(3))
        sp = tuple(int(w * r.integers(1, 4)) for w in wd)
        x = r.standard_normal((int(r.integers(1, 3)), int(r.integers(1, 4)))
                              + sp)
        t = unfold_windows(x, wd)
        assert np.array_equal(fold_windows(t, wd, sp), x)
        t2 = r.standard_normal(t.shape)
        assert np.array_equal(unfold_windows(fold_windows(t2, wd, sp), wd),
                              t2)


def test_unfold_rejects_indivisible():
    with pytest.raises(ValueError, match=_NOT_TILED):
        unfold_windows(np.zeros((1, 1, 3, 4, 4)), (2, 2, 2))
    with pytest.raises(ValueError, match=_NOT_TILED):
        fold_windows(np.zeros((1, 4, 8, 1)), (2, 2, 2), (3, 4, 4))
    with pytest.raises(ValueError):
        fold_windows(np.zeros((1, 7, 8, 2)), (2, 2, 2), (4, 4, 4))
