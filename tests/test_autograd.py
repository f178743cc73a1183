"""Tape mechanics: accumulation, topological order, no_grad, op routing."""

import numpy as np
import pytest

from lungseg3d import autograd as ag
from lungseg3d.autograd import Var
from lungseg3d.ops import ConvSpec


def _var(rng, shape):
    return Var(rng.standard_normal(shape))


def test_var_basics():
    v = Var(np.ones((1, 1, 2, 2, 2)), name="x")
    assert v.shape == (1, 1, 2, 2, 2)
    assert v.grad is None
    assert "x" in repr(v)
    d = v.detach()
    assert np.shares_memory(d.data, v.data) or np.array_equal(d.data, v.data)
    assert d._parents == () and d._backward is None


def test_backward_accumulates_shared_input():
    x = Var(np.full((1, 1, 1, 1, 2), 3.0))
    y = ag.add(x, x)  # dy/dx = 2
    y.backward()
    assert np.array_equal(x.grad, np.full(x.shape, 2.0))


def test_backward_diamond_graph_single_visit():
    # x feeds two branches that rejoin; each node's backward must run once,
    # after all its consumers have deposited gradient.
    x = Var(np.array([2.0]))
    a = ag.const_mul(x, 3.0)
    b = ag.const_mul(a, 5.0)
    c = ag.const_mul(a, 7.0)
    y = ag.add(b, c)
    y.backward()
    assert x.grad[0] == 3.0 * (5.0 + 7.0)


def test_accumulate_never_writes_into_a_shared_gradient():
    # add() hands one gradient to both parents; a later gradient summed into
    # one parent must leave the other's untouched
    a = Var(np.zeros(3, dtype=np.float32))
    b = Var(np.zeros(3, dtype=np.float32))
    y = ag.add(a, b)
    g = np.asarray([1.0, 2.0, 3.0], dtype=np.float32)
    y._backward(g)
    ag.accumulate(a, np.full(3, 10.0, dtype=np.float32))
    assert np.array_equal(b.grad, [1.0, 2.0, 3.0])
    assert np.array_equal(g, [1.0, 2.0, 3.0])
    assert np.array_equal(a.grad, [11.0, 12.0, 13.0])
    # a gradient of another dtype or a broadcast shape lands in v.data's
    # dtype and shape, first or later
    c = Var(np.zeros((2, 3), dtype=np.float32))
    ag.accumulate(c, np.ones(3))
    ag.accumulate(c, np.ones((2, 3)))
    assert c.grad.dtype == np.float32 and c.grad.shape == (2, 3)
    assert np.array_equal(c.grad, np.full((2, 3), 2.0))
    d = Var(np.zeros(3, dtype=np.float32))
    ag.accumulate(d, np.ones(3, dtype=np.float32))
    ag.accumulate(d, np.ones(3))
    assert d.grad.dtype == np.float32


def test_backward_seed_shape_checked():
    x = Var(np.zeros((1, 1, 2, 2, 2)))
    y = ag.relu(x)
    with pytest.raises(ValueError):
        ag.run_backward(y, np.zeros((1, 1, 2, 2, 3)))


def test_backward_custom_seed():
    x = Var(np.array([1.0, 2.0]))
    y = ag.const_mul(x, 4.0)
    ag.run_backward(y, np.array([10.0, 100.0]))
    assert np.array_equal(x.grad, [40.0, 400.0])


def test_no_grad_detaches_results():
    assert ag.grad_on()
    x = Var(np.ones((1, 1, 2, 2, 2)))
    with ag.no_grad():
        assert not ag.grad_on()
        y = ag.relu(x)
    assert ag.grad_on()
    assert y._parents == () and y._backward is None
    y.backward()           # no-op apart from seeding y itself
    assert x.grad is None


def test_zero_grads_resets():
    x = Var(np.ones(3))
    y = ag.const_mul(x, 2.0)
    y.backward()
    assert x.grad is not None
    ag.zero_grads([x])
    assert x.grad is None


def test_detach_blocks_gradient_flow():
    x = Var(np.array([5.0]))
    y = ag.const_mul(x.detach(), 2.0)
    y.backward()
    assert x.grad is None


def test_add_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ag.add(Var(np.zeros(2)), Var(np.zeros(3)))


def test_scale_by_scalar_gradients():
    rng = np.random.default_rng(0)
    x = _var(rng, (1, 2, 2, 2, 2))
    s = Var(np.asarray(0.7))
    y = ag.scale_by(x, s)
    g = rng.standard_normal(y.shape)
    ag.run_backward(y, g)
    assert np.allclose(x.grad, g * 0.7)
    assert np.allclose(s.grad, (g * x.data).sum())
    assert s.grad.shape == s.data.shape


def test_conv_tconv_ops_route_three_gradients():
    rng = np.random.default_rng(1)
    spec = ConvSpec(2, 3, kernel=(3, 3, 3), padding=(1, 1, 1))
    x = _var(rng, (1, 2, 4, 4, 4))
    w = _var(rng, (3, 2, 3, 3, 3))
    b = _var(rng, (3,))
    y = ag.conv(x, w, b, spec)
    assert y.shape == (1, 3, 4, 4, 4)
    ag.run_backward(y, np.ones(y.shape))
    assert x.grad.shape == x.shape
    assert w.grad.shape == w.shape
    assert np.allclose(b.grad, 4 ** 3)  # each bias hits every output voxel

    up = ConvSpec(3, 2, kernel=(2, 2, 2), stride=(2, 2, 2))
    wt = _var(rng, (3, 2, 2, 2, 2))
    bt = _var(rng, (2,))
    z = ag.tconv(y.detach(), wt, bt, up)
    assert z.shape == (1, 2, 8, 8, 8)
    ag.run_backward(z, np.ones(z.shape))
    assert wt.grad.shape == wt.shape and bt.grad.shape == bt.shape


def test_concat_and_slice_channels_split_gradient():
    rng = np.random.default_rng(2)
    a = _var(rng, (1, 2, 2, 2, 2))
    b = _var(rng, (1, 3, 2, 2, 2))
    y = ag.concat(a, b)
    assert y.shape == (1, 5, 2, 2, 2)
    g = rng.standard_normal(y.shape)
    ag.run_backward(y, g)
    assert np.array_equal(a.grad, g[:, :2])
    assert np.array_equal(b.grad, g[:, 2:])

    x = _var(rng, (1, 6, 2, 2, 2))
    s = ag.slice_channels(x, 1, 4)
    assert np.array_equal(s.data, x.data[:, 1:4])
    gs = rng.standard_normal(s.shape)
    ag.run_backward(s, gs)
    assert np.array_equal(x.grad[:, 1:4], gs)
    assert not x.grad[:, :1].any() and not x.grad[:, 4:].any()


def test_pad_crop_are_gradient_inverses():
    rng = np.random.default_rng(3)
    x = _var(rng, (1, 1, 3, 3, 3))
    pads = ((1, 1), (2, 0), (0, 2))
    y = ag.pad(x, pads)
    assert y.shape == (1, 1, 5, 5, 5)
    g = rng.standard_normal(y.shape)
    ag.run_backward(y, g)
    assert np.array_equal(x.grad, g[:, :, 1:4, 2:5, 0:3])

    z = _var(rng, (1, 1, 5, 5, 5))
    c = ag.center_crop(z, (3, 3, 3))
    gc = rng.standard_normal(c.shape)
    ag.run_backward(c, gc)
    assert np.array_equal(z.grad[:, :, 1:4, 1:4, 1:4], gc)
    assert np.count_nonzero(z.grad) == gc.size


def test_unfold_fold_gradients_are_inverse_rearrangements():
    rng = np.random.default_rng(4)
    x = _var(rng, (1, 2, 4, 4, 4))
    t = ag.unfold(x, (2, 2, 2))
    g = rng.standard_normal(t.shape)
    ag.run_backward(t, g)
    from lungseg3d.ops import fold_windows, unfold_windows
    assert np.array_equal(x.grad, fold_windows(g, (2, 2, 2), (4, 4, 4)))

    tk = _var(rng, (1, 8, 8, 2))
    v = ag.fold(tk, (2, 2, 2), (4, 4, 4))
    gv = rng.standard_normal(v.shape)
    ag.run_backward(v, gv)
    assert np.array_equal(tk.grad, unfold_windows(gv, (2, 2, 2)))


def _fd_check(build, vars_, h=1e-6, tol=1e-5):
    """Central-difference check of d(sum(out*g))/d(var) for each var."""
    rng = np.random.default_rng(99)
    out = build()
    g = rng.standard_normal(out.shape)
    ag.zero_grads(vars_)
    ag.run_backward(out, g)
    for v in vars_:
        flat = v.data.reshape(-1)
        gflat = v.grad.reshape(-1)
        for idx in range(0, flat.size, max(1, flat.size // 5)):
            orig = flat[idx]
            flat[idx] = orig + h
            up = float((build().data * g).sum())
            flat[idx] = orig - h
            dn = float((build().data * g).sum())
            flat[idx] = orig
            num = (up - dn) / (2 * h)
            assert abs(num - gflat[idx]) <= tol * max(1.0, abs(num))


def test_matmul_qk_av_gradients():
    rng = np.random.default_rng(5)
    q = _var(rng, (1, 2, 4, 3))
    k = _var(rng, (1, 2, 4, 3))
    _fd_check(lambda: ag.matmul_qk(q, k), [q, k])

    a = _var(rng, (1, 2, 4, 4))
    v = _var(rng, (1, 2, 4, 3))
    _fd_check(lambda: ag.matmul_av(a, v), [a, v])


def test_channel_scale_and_softmax_gradients():
    rng = np.random.default_rng(6)
    x = _var(rng, (1, 3, 2, 2, 2))
    s = _var(rng, (1, 1, 2, 2, 2))
    _fd_check(lambda: ag.channel_scale(x, s), [x, s])

    z = _var(rng, (1, 2, 3, 5))
    _fd_check(lambda: ag.softmax_lastdim(z), [z])


def test_batchnorm_op_routes_gamma_beta():
    from lungseg3d.ops import BatchNormState
    rng = np.random.default_rng(7)
    bn = BatchNormState(running_mean=np.zeros(2), running_var=np.ones(2))
    x = _var(rng, (2, 2, 3, 3, 3))
    gamma = Var(np.ones(2), name="g")
    beta = Var(np.zeros(2), name="b")
    y = ag.batchnorm(x, gamma, beta, bn, "train")
    ag.run_backward(y, np.ones(y.shape))
    # beta enters additively: its gradient is the per-channel grad sum
    assert np.allclose(beta.grad, np.ones(y.shape).sum(axis=(0, 2, 3, 4)))
    assert gamma.grad.shape == (2,) and x.grad.shape == x.shape


def test_maxpool_and_dropout_ops():
    rng = np.random.default_rng(8)
    x = _var(rng, (1, 1, 4, 4, 4))
    y = ag.maxpool(x, (2, 2, 2))
    ag.run_backward(y, np.ones(y.shape))
    assert np.count_nonzero(x.grad) == y.data.size

    z = _var(rng, (1, 1, 6, 6, 6))
    d = ag.dropout(z, 0.5, "train", np.random.default_rng(0))
    ag.run_backward(d, np.ones(d.shape))
    dropped = d.data == 0.0
    assert np.all(z.grad[dropped] == 0.0)
    assert np.allclose(z.grad[~dropped], 2.0)  # 1 / (1 - rate)

    e = ag.dropout(z.detach(), 0.5, "eval", None)
    assert np.array_equal(e.data, z.data)
