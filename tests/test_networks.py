"""Network assemblies: geometry contracts, determinism, config validation."""

import hashlib
from contextlib import nullcontext

import numpy as np
import pytest

from lungseg3d import autograd as ag
from lungseg3d import blocks, gradcheck
from lungseg3d.autograd import Var
from lungseg3d.blocks import (AttentionGate3d, DoubleConvBlock3d,
                              ResidualBlock3d, WindowAttention3d, capture)
from lungseg3d.networks import (NetworkConfig, build_network,
                                lung_default_config, nodule_default_config,
                                predict_volume)

MICRO = [2, 4, 8, 16]


def _lung(geometry=(1, 7, 12, 10), seed=0):
    cfg = NetworkConfig(stage_channels=MICRO, input_geometry=geometry)
    return build_network("lung", cfg, seed)


def _nodule(geometry=(1, 16, 16, 16), seed=0, window=(1, 1, 1), rate=0.2):
    cfg = NetworkConfig(stage_channels=MICRO, input_geometry=geometry,
                        attn_window=window, dropout_rate=rate)
    return build_network("nodule", cfg, seed)


def test_build_network_rejects_unknown_kind():
    cfg = NetworkConfig(stage_channels=MICRO, input_geometry=(1, 16, 16, 16))
    with pytest.raises(ValueError):
        build_network("liver", cfg, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(stage_channels=[2, 4, 8], input_geometry=(1, 16, 16, 16))
    with pytest.raises(ValueError):
        NetworkConfig(stage_channels=MICRO, input_geometry=(16, 16, 16))
    with pytest.raises(ValueError):
        NetworkConfig(stage_channels=MICRO, input_geometry=(1, 16, 16, 16),
                      attn_window=(0, 1, 1))
    with pytest.raises(ValueError):
        NetworkConfig(stage_channels=MICRO, input_geometry=(1, 16, 16, 16),
                      dropout_rate=1.0)


def test_default_configs():
    lung = lung_default_config()
    assert lung.stage_channels == [32, 64, 128, 256]
    assert lung.input_geometry == (1, 23, 300, 300)
    nod = nodule_default_config()
    assert nod.stage_channels == [16, 32, 64, 128]
    assert nod.input_geometry == (1, 64, 64, 64)


@pytest.mark.parametrize("kind", ["lung", "nodule"])
@pytest.mark.parametrize("widths", [None, [8, 16, 32, 64]],
                         ids=["default", "desk"])
def test_every_residual_block_changes_width_or_resolution(kind, widths):
    # so a residual block's skip is always its strided 1x1x1 projection
    base = lung_default_config() if kind == "lung" else nodule_default_config()
    net = build_network(kind, NetworkConfig(
        stage_channels=widths or base.stage_channels,
        input_geometry=base.input_geometry), 0)
    found = list(blocks._walk(net, ResidualBlock3d))
    assert len(found) == (9 if kind == "lung" else 0)
    for blk in found:
        spec = blk.conv1.spec
        assert (spec.in_channels != spec.out_channels
                or spec.stride != (1, 1, 1)), blk.name


# ---------------------------------------------------------------------------
# lung network
# ---------------------------------------------------------------------------

def test_lung_round_trips_awkward_geometry():
    # 7x12x10 is not divisible by 16; the net pads to 16^3 internally and
    # crops back, so output spatial dims equal input spatial dims.
    net = _lung()
    x = Var(np.random.default_rng(0).standard_normal(
        (2, 1, 7, 12, 10)).astype(np.float32))
    encs = ["enc1", "enc2", "enc3", "enc4"]
    decs = ["dec4", "dec3", "dec2", "dec1"]
    gates = ["gate4", "gate3", "gate2", "gate1"]
    with capture(*encs, "bottleneck", *decs, *gates) as got:
        p = net.forward(x, "train")
    assert p.shape == (2, 1, 7, 12, 10)
    assert p.data.min() > 0.0 and p.data.max() < 1.0
    spatial = lambda names: [got[n].shape[2:] for n in names]
    # four stride-2 encoders halve the padded 16^3 grid each time
    assert spatial(encs) == [(8, 8, 8), (4, 4, 4), (2, 2, 2), (1, 1, 1)]
    assert got["bottleneck"].shape[2:] == (1, 1, 1)
    assert spatial(decs) == [(2, 2, 2), (4, 4, 4), (8, 8, 8), (16, 16, 16)]
    # each gate keeps the resolution of the skip feature it gates
    assert spatial(gates) == spatial(decs)


def test_lung_eval_forward_deterministic():
    net = _lung()
    x = Var(np.random.default_rng(1).standard_normal(
        (1, 1, 7, 12, 10)).astype(np.float32))
    net.forward(x, "train")  # populate running stats
    p1 = net.forward(x, "eval")
    p2 = net.forward(x, "eval")
    assert np.array_equal(p1.data, p2.data)


def test_lung_rejects_channel_mismatch():
    net = _lung()
    with pytest.raises(ValueError):
        net.forward(Var(np.zeros((1, 2, 7, 12, 10), dtype=np.float32)),
                    "train")


def test_lung_param_count_independent_of_spatial_size():
    count = lambda net: sum(p.data.size for p in net.params())
    a = _lung(geometry=(1, 7, 12, 10))
    b = _lung(geometry=(1, 23, 48, 48))
    assert count(a) == count(b)


@pytest.mark.parametrize("kind,geometry,count,sha", [
    ("lung", (1, 16, 64, 64), 160,
     "df364a7d500c2ed04bc23c483c32b1e32f908e10dc3069fe5574d641e70d8928"),
    ("nodule", (1, 32, 32, 32), 87,
     "839d2bfa2f195318c330ba413b2e57b0fa58af72ccaf2417be50a278bc92da6f"),
])
def test_fresh_network_parameter_bytes_are_pinned(kind, geometry, count, sha):
    """A fresh net at seed 0 and desk widths: every parameter's name, dtype,
    shape and bytes in params() order. The layer constructors draw the init
    from one RNG, so a changed draw order or axis order shows here."""
    cfg = NetworkConfig(stage_channels=[8, 16, 32, 64],
                        input_geometry=geometry)
    h = hashlib.sha256()
    params = list(build_network(kind, cfg, 0).params())
    for p in params:
        h.update(p.name.encode())
        h.update(str(p.data.dtype).encode())
        h.update(repr(p.data.shape).encode())
        h.update(p.data.tobytes())
    assert (len(params), h.hexdigest()) == (count, sha)


def test_lung_param_names_unique():
    names = [p.name for p in _lung().params()]
    assert len(names) == len(set(names))
    assert all(name for name in names)


def test_fresh_nets_start_near_background_prior():
    # heads are biased negative at init so untrained output is mostly
    # background instead of p = 0.5 everywhere
    net = _lung()
    x = Var(np.random.default_rng(2).standard_normal(
        (1, 1, 7, 12, 10)).astype(np.float32))
    p = net.forward(x, "train")
    assert float(p.data.mean()) < 0.35

    nod = _nodule()
    xn = Var(np.random.default_rng(3).standard_normal(
        (1, 1, 16, 16, 16)).astype(np.float32))
    pn = nod.forward(xn, "train", np.random.default_rng(0))
    assert float(pn.data.mean()) < 0.35


# ---------------------------------------------------------------------------
# nodule network
# ---------------------------------------------------------------------------

def test_nodule_shape_contract_and_range():
    net = _nodule()
    x = Var(np.random.default_rng(4).standard_normal(
        (2, 1, 16, 16, 16)).astype(np.float32))
    p = net.forward(x, "train", np.random.default_rng(0))
    assert p.shape == (2, 1, 16, 16, 16)
    assert p.data.min() > 0.0 and p.data.max() < 1.0


def test_nodule_rejects_indivisible_geometry():
    with pytest.raises(ValueError):
        _nodule(geometry=(1, 24, 24, 24))  # 24 % 16 != 0
    net = _nodule()
    with pytest.raises(ValueError):
        net.forward(Var(np.zeros((1, 1, 24, 24, 24), dtype=np.float32)),
                    "train", np.random.default_rng(0))


def test_nodule_rejects_window_not_dividing_bottleneck():
    # 32^3 input gives a 2^3 bottleneck; a 4-wide window cannot tile it
    with pytest.raises(ValueError):
        _nodule(geometry=(1, 32, 32, 32), window=(4, 4, 4))


def test_nodule_eval_forward_deterministic():
    net = _nodule(rate=0.5)
    x = Var(np.random.default_rng(5).standard_normal(
        (1, 1, 16, 16, 16)).astype(np.float32))
    net.forward(x, "train", np.random.default_rng(0))
    p1 = net.forward(x, "eval")
    p2 = net.forward(x, "eval")
    assert np.array_equal(p1.data, p2.data)


def test_nodule_param_names_unique():
    names = [p.name for p in _nodule().params()]
    assert len(names) == len(set(names))


def test_nodule_batchnorms_enumerated():
    net = _nodule()
    bns = list(net.batchnorms())
    # 5 double-conv encoder/bottleneck blocks + 4 decoder blocks, 2 BNs each
    assert len(bns) == 18
    assert len({bn.name for bn in bns}) == 18


# ---------------------------------------------------------------------------
# parameter and batchnorm enumeration
# ---------------------------------------------------------------------------

def _prefixes(names):
    """First dotted component of each name, consecutive repeats merged."""
    out = []
    for name in names:
        head = name.split(".")[0]
        if not out or out[-1] != head:
            out.append(head)
    return out


def _gc_net(kind):
    """A network as the gradcheck builds it."""
    row = next(r for r in gradcheck.TABLE if r.name == f"{kind}_net")
    return row.build(None, 0)


ENCODER = ["enc1", "enc2", "enc3", "enc4", "bottleneck"]


@pytest.mark.parametrize("kind,params,bns", [
    ("lung",
     ENCODER + [f"{layer}{s}" for s in (4, 3, 2, 1)
                for layer in ("up", "mix", "gate", "dec")]
     + ["head", "post1", "post2"],
     ENCODER + ["dec4", "dec3", "dec2", "dec1"]),
    ("nodule",
     ENCODER + ["attn"] + [f"{layer}{s}" for s in (4, 3, 2, 1)
                           for layer in ("up", "dec")] + ["head"],
     ENCODER + ["dec4", "dec3", "dec2", "dec1"]),
])
def test_params_and_batchnorms_order_is_pinned(kind, params, bns):
    """The network gradcheck samples params()[i], so this order decides
    which coordinates it probes."""
    net = _gc_net(kind)
    assert _prefixes(p.name for p in net.params()) == params
    assert _prefixes(bn.name for bn in net.batchnorms()) == bns


def _tape_leaves(out):
    """Named parentless Vars reachable from out through the tape."""
    leaves, seen, stack = set(), set(), [out]
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if not v._parents and v.name:
            leaves.add(v)
        stack.extend(v._parents)
    return leaves


def _x(*shape):
    return Var(np.random.default_rng(0).standard_normal(shape))


def _f64(cls, *args):
    return cls(*args, rng=np.random.default_rng(4), dtype=np.float64)


X = (1, 2, 4, 4, 4)
# case -> (build the module, run a train-mode forward of it)
TAPE_CASES = {
    "residual": (lambda: _f64(ResidualBlock3d, "r", 2, 2, 1),
                 lambda m: m.forward(_x(*X), "train")),
    "residual_strided": (lambda: _f64(ResidualBlock3d, "r", 2, 3, 2),
                         lambda m: m.forward(_x(*X), "train")),
    "attention_gate": (lambda: _f64(AttentionGate3d, "g", 2, 3),
                       lambda m: m.forward(_x(*X), _x(1, 3, 2, 2, 2))),
    "window_attention": (lambda: _f64(WindowAttention3d, "a", 2, (2, 2, 2)),
                         lambda m: m.forward(_x(*X))),
    "double_conv": (lambda: _f64(DoubleConvBlock3d, "d", 2, 3, 0.5),
                    lambda m: m.forward(_x(*X), "train",
                                        np.random.default_rng(0))),
    "lung_net": (lambda: _gc_net("lung"),
                 lambda m: m.forward(_x(1, 1, 16, 16, 16), "train")),
    "nodule_net": (lambda: _gc_net("nodule"),
                   lambda m: m.forward(_x(1, 1, 16, 16, 16), "train")),
}


@pytest.mark.parametrize("case", TAPE_CASES)
def test_tape_leaves_are_the_params(case):
    """A train-mode forward reaches exactly the Vars params() yields: no
    layer runs untrained, and none is trained without running. Found
    through the tape, independently of how params() finds them."""
    build, forward = TAPE_CASES[case]
    module = build()
    assert _tape_leaves(forward(module)) == set(module.params())


# ---------------------------------------------------------------------------
# capture hook
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,shape,names", [
    ("lung", (1, 1, 7, 12, 10), ("enc2", "gate1.mask", "dec1.conv2")),
    ("nodule", (1, 1, 16, 16, 16), ("attn.weights", "up4", "dec1")),
], ids=["lung", "nodule"])
def test_capture_leaves_forward_unchanged(kind, shape, names):
    net = _lung() if kind == "lung" else _nodule()
    x = Var(np.random.default_rng(9).standard_normal(shape).astype(np.float32))
    plain = net.forward(x, "eval").data
    with capture(*names) as got:
        seen = net.forward(x, "eval").data
    assert seen.tobytes() == plain.tobytes()
    assert sorted(got) == sorted(names)
    with pytest.raises(KeyError, match="no.such"):
        with capture("no.such"):
            net.forward(x, "eval")


# ---------------------------------------------------------------------------
# no_grad forwards run batchnorm, ReLU and the residual adds in place
# ---------------------------------------------------------------------------

DESK = [8, 16, 32, 64]


def _desk_net(kind, spatial, seed=4):
    """A desk-width net with batchnorm stats and affine terms drawn away
    from their init, so eval batchnorm is no plain rescale."""
    cfg = NetworkConfig(stage_channels=DESK, input_geometry=(1,) + spatial)
    net = build_network(kind, cfg, seed)
    rng = np.random.default_rng([seed, 0xB4])
    for bn in net.batchnorms():
        c = bn.gamma.data.shape
        bn.state.running_mean = rng.normal(0, 0.5, c).astype(np.float32)
        bn.state.running_var = rng.uniform(0.5, 2.0, c).astype(np.float32)
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, c)
        bn.beta.data[...] = rng.normal(0, 0.2, c)
    if kind == "nodule":
        net.attn.gamma.data[...] = 0.7
    x = rng.standard_normal((1, 1) + spatial).astype(np.float32)
    return net, x


def _forward(net, x, mode, grad):
    """Output of one forward; the nodule net's dropout is reseeded for each
    call so both sides drop the same voxels."""
    with nullcontext() if grad else ag.no_grad():
        return net.forward(Var(x), mode, np.random.default_rng(5)).data


@pytest.mark.parametrize("kind,spatial,mode", [
    ("lung", (16, 64, 64), "eval"),
    ("lung", (13, 37, 41), "eval"),     # odd: padded and cropped
    ("lung", (13, 37, 41), "train"),
    ("nodule", (32, 32, 32), "eval"),
    ("nodule", (32, 32, 32), "train"),
])
def test_no_grad_forward_is_byte_identical_to_the_recorded_one(kind, spatial,
                                                               mode):
    net, x = _desk_net(kind, spatial)
    before = x.copy()
    recorded = _forward(net, x, mode, grad=True)
    assert np.array_equal(x, before)
    in_place = _forward(net, x, mode, grad=False)
    assert in_place.tobytes() == recorded.tobytes()
    assert x.tobytes() == before.tobytes()   # the caller's input is untouched


def _recorded_names(net, x):
    names = []
    orig = blocks._record
    blocks._record = lambda name, v: names.append(name) or orig(name, v)
    try:
        _forward(net, x, "eval", grad=False)
    finally:
        blocks._record = orig
    return names


@pytest.mark.parametrize("kind,spatial", [
    ("lung", (13, 37, 41)), ("nodule", (32, 32, 32))], ids=["lung", "nodule"])
def test_capture_under_no_grad_returns_the_recorded_bytes(kind, spatial):
    # A later in-place op overwrites the array a layer recorded (the ReLU
    # after enc1.bn1, the batchnorm after dec1.conv1); capture keeps a copy.
    net, x = _desk_net(kind, spatial)
    names = _recorded_names(net, x)
    assert {"enc1.bn1", "dec1.conv1", "enc1", "head"} <= set(names)
    with capture(*names) as recorded:
        _forward(net, x, "eval", grad=True)
    with capture(*names) as in_place:
        _forward(net, x, "eval", grad=False)
    changed = [n for n in names
               if in_place[n].tobytes() != recorded[n].tobytes()]
    assert changed == []


def test_predict_volume_leaves_its_volume_unchanged():
    net, x = _desk_net("lung", (13, 37, 41))
    before = x.copy()
    mask = predict_volume(net, x)
    assert x.tobytes() == before.tobytes()
    prob = _forward(net, before, "eval", grad=True)
    assert np.array_equal(mask.data, (prob >= 0.5).astype(np.float32))


# ---------------------------------------------------------------------------
# predict_volume
# ---------------------------------------------------------------------------

def test_predict_volume_threshold_semantics():
    net = _nodule()
    x = np.random.default_rng(6).standard_normal(
        (1, 1, 16, 16, 16)).astype(np.float32)
    mask = predict_volume(net, x, 0.5)
    vals = np.unique(mask.data)
    assert set(vals.tolist()) <= {0.0, 1.0}
    prob = net.forward(Var(x), "eval").data
    assert np.array_equal(mask.data, (prob >= 0.5).astype(np.float32))


def test_predict_volume_threshold_monotonic():
    net = _lung()
    x = np.random.default_rng(7).standard_normal(
        (1, 1, 7, 12, 10)).astype(np.float32)
    lo = predict_volume(net, x, 0.05).data
    hi = predict_volume(net, x, 0.6).data
    # raising the threshold never adds foreground voxels
    assert np.all(hi <= lo)


def test_predict_volume_rejects_bad_threshold():
    net = _nodule()
    x = np.zeros((1, 1, 16, 16, 16), dtype=np.float32)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            predict_volume(net, x, bad)


def test_predict_volume_leaves_no_graph():
    net = _nodule()
    x = np.zeros((1, 1, 16, 16, 16), dtype=np.float32)
    predict_volume(net, x, 0.5)
    y = ag.relu(Var(x))
    assert y._parents and y._backward  # context manager restored recording
