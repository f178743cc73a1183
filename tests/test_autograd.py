"""Tape mechanics: accumulation, topological order, no_grad, op routing."""

import re
import weakref

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
    assert v.grad is None and v.name == "x"
    assert v._parents == () and v._backward is None  # a leaf
    d = Var(v.data)  # a detached view of v
    assert np.shares_memory(d.data, v.data)
    assert d._parents == () and d._backward is None


def test_backward_accumulates_shared_input():
    x = Var(np.full((1, 1, 1, 1, 2), 3.0))
    y = ag.add(x, x)  # dy/dx = 2
    ag.run_backward(y)
    assert np.array_equal(x.grad, np.full(x.shape, 2.0))


def test_backward_diamond_graph_single_visit():
    # x feeds two branches that rejoin; each node's backward must run once,
    # after all its consumers have deposited gradient.
    x = Var(np.array([2.0]))
    a = ag.const_mul(x, 3.0)
    b = ag.const_mul(a, 5.0)
    c = ag.const_mul(a, 7.0)
    y = ag.add(b, c)
    ag.run_backward(y)
    assert x.grad[0] == 3.0 * (5.0 + 7.0)


def test_accumulate_never_writes_into_a_shared_gradient():
    # add() hands one gradient to both parents; a later gradient summed into
    # one parent must leave the other's untouched
    a = Var(np.zeros(3, dtype=np.float32))
    b = Var(np.zeros(3, dtype=np.float32))
    y = ag.add(a, b)
    g = np.asarray([1.0, 2.0, 3.0], dtype=np.float32)
    ag.run_backward(y, g)
    ag.accumulate(a, np.full(3, 10.0, dtype=np.float32))
    assert np.array_equal(b.grad, [1.0, 2.0, 3.0])
    assert np.array_equal(g, [1.0, 2.0, 3.0])
    assert np.array_equal(a.grad, [11.0, 12.0, 13.0])


@pytest.mark.parametrize("g,named", [
    (np.ones(3, dtype=np.float32), "(3,) float32"),
    (np.ones((2, 3)), "(2, 3) float64"),
    (np.ones((1, 3), dtype=np.float32), "(1, 3) float32"),
    ([[1.0] * 3] * 2, "(2, 3) list"),
    (1.0, "() float"),
], ids=["shape", "dtype", "broadcastable", "list", "python-float"])
@pytest.mark.parametrize("first", [True, False], ids=["first", "later"])
def test_accumulate_rejects_a_gradient_that_does_not_match(g, named, first):
    # no gradient is cast or broadcast: a mismatch names both sides and
    # leaves v.grad as it was, whether or not v already had one
    v = Var(np.zeros((2, 3), dtype=np.float32), name="w")
    before = None if first else np.ones((2, 3), dtype=np.float32)
    if before is not None:
        ag.accumulate(v, before)
    with pytest.raises(ValueError, match=re.escape(
            f"gradient {named} does not match w (2, 3) float32")):
        ag.accumulate(v, g)
    assert v.grad is before
    if before is not None:
        assert np.array_equal(before, np.ones((2, 3)))


def test_zero_d_graph_backpropagates():
    # NumPy returns a scalar, not an array, for a 0-d operand: a gradient of
    # the right shape and dtype is accepted in that form too
    x = Var(np.array(2.0))
    ag.run_backward(ag.sigmoid(ag.relu(ag.const_mul(x, 3.0))))
    s = 1.0 / (1.0 + np.exp(-6.0))
    assert np.isclose(x.grad, 3.0 * s * (1.0 - s)) and x.grad.shape == ()


@pytest.mark.parametrize("backward", [lambda g: (g,), lambda g: g],
                         ids=["one-tuple", "bare-array"])
def test_closure_must_return_one_gradient_per_parent(backward):
    # run_backward routes what a closure returns; a count that does not
    # match the parents must fail, not leave a parent without gradient; a
    # bare array is one gradient even when its first axis has two entries
    a, b = Var(np.zeros(2)), Var(np.zeros(2))
    y = ag.from_op(np.zeros(2), (a, b), backward)
    with pytest.raises(ValueError):
        ag.run_backward(y)


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
    x = Var(np.ones((1, 1, 2, 2, 2)))
    with ag.no_grad():
        y = ag.relu(x)
        with ag.no_grad():
            pass
        z = ag.relu(x)  # leaving a nested block keeps recording off
    assert y._parents == () and y._backward is None
    assert z._parents == () and z._backward is None
    assert ag.relu(x)._parents == (x,)  # and leaving the outer one restores it
    ag.run_backward(y)     # no-op apart from seeding y itself
    assert x.grad is None


def test_second_backward_over_a_used_graph_raises():
    x = Var(np.array([1.0, 2.0]))
    y = ag.const_mul(ag.add(x, x), 3.0)
    ag.run_backward(y)
    assert np.array_equal(x.grad, [6.0, 6.0])
    with pytest.raises(RuntimeError, match="already backpropagated"):
        ag.run_backward(y)
    assert np.array_equal(x.grad, [6.0, 6.0])
    # a new graph over a used node fails before adding into any leaf
    w = Var(np.array([1.0, 1.0]))
    with pytest.raises(RuntimeError, match="already backpropagated"):
        ag.run_backward(ag.add(y, w))
    assert w.grad is None and np.array_equal(x.grad, [6.0, 6.0])


def test_backward_frees_interior_nodes():
    # once y's closure has run, nothing holds a: its array dies while the
    # caller still holds y (Var has __slots__, so watch a.data, an ndarray)
    x = Var(np.array([1.0, 2.0]))
    a = ag.const_mul(x, 2.0)
    y = ag.const_mul(a, 3.0)
    freed = weakref.ref(a.data)
    del a
    assert freed() is not None
    ag.run_backward(y)
    assert freed() is None
    assert np.array_equal(x.grad, [6.0, 6.0])


def test_zero_grads_resets():
    x = Var(np.ones(3))
    y = ag.const_mul(x, 2.0)
    ag.run_backward(y)
    assert x.grad is not None
    ag.zero_grads([x])
    assert x.grad is None


def test_detach_blocks_gradient_flow():
    x = Var(np.array([5.0]))
    y = ag.const_mul(Var(x.data), 2.0)
    ag.run_backward(y)
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
    z = ag.tconv(Var(y.data), wt, bt, up)
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


def _bn_args(rng, mode):
    from lungseg3d.ops import BatchNormState
    bn = BatchNormState(running_mean=rng.normal(size=2),
                        running_var=rng.uniform(0.5, 2.0, 2))
    return (_var(rng, (2, 2, 3, 3, 3)), _var(rng, (2,)), _var(rng, (2,)), bn,
            mode)


IN_PLACE_OPS = {
    "add": lambda rng: (_var(rng, (1, 2, 3, 3, 3)), _var(rng, (1, 2, 3, 3, 3))),
    "relu": lambda rng: (_var(rng, (1, 2, 3, 3, 3)),),
    "batchnorm[train]": lambda rng: _bn_args(rng, "train"),
    "batchnorm[eval]": lambda rng: _bn_args(rng, "eval"),
}


@pytest.mark.parametrize("op", sorted(IN_PLACE_OPS))
def test_ops_write_into_an_operand_only_when_opted_in_under_no_grad(op):
    # gradcheck's finite-difference probes call these ops under no_grad on
    # the check's own tensors, so by default no operand may change
    fn = getattr(ag, op.split("[")[0])
    rng = np.random.default_rng(11)
    args = IN_PLACE_OPS[op](rng)
    target = args[1] if op == "add" else args[0]   # add writes into b
    vars_ = [a for a in args if isinstance(a, Var)]
    before = [v.data.copy() for v in vars_]
    kept = lambda: all(v.data.tobytes() == b.tobytes()
                       for v, b in zip(vars_, before))
    with ag.no_grad():
        y = fn(*args)
    assert kept() and not np.shares_memory(y.data, target.data)
    y = fn(*args, inplace=True)   # recording on: the opt-in is ignored
    assert kept() and not np.shares_memory(y.data, target.data)
    with ag.no_grad():
        z = fn(*args, inplace=True)
    assert z.data is target.data
    assert z.data.tobytes() == y.data.tobytes()


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

    e = ag.dropout(Var(z.data), 0.5, "eval", None)
    assert np.array_equal(e.data, z.data)
