"""Acceptance gate: ten product-level criteria, one test per criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line with the measured
values before asserting, so a failing run shows exactly which bound broke.
The two training criteria (6 and 7) and the full-size forward (9) dominate
the runtime; the whole module is sized for a desktop CPU.
"""

import math
import os
import time

import numpy as np

from lungseg3d import gradcheck
from lungseg3d.autograd import Var, no_grad
from lungseg3d.blocks import WindowAttention3d, capture
from lungseg3d.data import (crop_about_median, load_mhd, load_sample,
                            make_phantom, save_sample, split_dataset,
                            write_mhd)
from lungseg3d.losses import (bce_loss, combined_loss, dice_loss, seg_metrics)
from lungseg3d.networks import (NetworkConfig, build_network,
                                lung_default_config, nodule_default_config,
                                predict_volume)
from lungseg3d.ops import (ConvSpec, LayerParams, conv3d, fold_windows,
                           tconv3d, unfold_windows)
from lungseg3d.tensor import Tensor5
from lungseg3d.train import AdamState, evaluate, train, train_step

DESK_CHANNELS = [8, 16, 32, 64]


def _line(num, title, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {title} — {detail}")
    assert ok, f"criterion {num} ({title}): {detail}"


# ---------------------------------------------------------------------------
# 1. gradient certification
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_certification():
    t0 = time.monotonic()
    oracle = gradcheck.oracle_selftest(seed=0)
    reports = gradcheck.check_gradients("all", seed=0)
    elapsed = time.monotonic() - t0

    failures = [r.as_dict() for r in oracle + reports if not r.passed]
    network_ops = set(gradcheck.NETWORK_TARGETS)
    tol_ok = all((r.tol <= 1e-3 if r.op_name in network_ops else
                  r.tol <= 1e-4) for r in reports)
    sampled = {name: 0 for name in network_ops}
    for r in reports:
        if r.op_name in sampled and r.note.startswith("sampled "):
            sampled[r.op_name] += int(r.note.split()[1])
    coverage_ok = (set(gradcheck.TAPE_OP_TARGETS.values())
                   | set(gradcheck.BLOCK_TARGETS) | network_ops
                   == set(gradcheck.CHECKS))
    ok = (not failures and tol_ok and coverage_ok and elapsed < 300.0
          and all(n >= 50 for n in sampled.values()))
    _line(1, "gradient certification", ok,
          f"{len(reports)} reports, failures={failures[:3]}, "
          f"network coords sampled={sampled}, {elapsed:.1f}s (< 300s)")


# ---------------------------------------------------------------------------
# 2. windowed attention: zero-scale identity, dense oracle, row sums
# ---------------------------------------------------------------------------

def test_criterion_02_attention_identity_and_oracle():
    rng = np.random.default_rng([2, 0xACC])
    blk32 = WindowAttention3d("a", 4, (2, 2, 2), rng)
    x32 = rng.standard_normal((1, 4, 4, 4, 4)).astype(np.float32)
    identity_ok = np.array_equal(blk32.forward(Var(x32)).data, x32)

    # one window spanning the whole volume == dense attention over every
    # voxel token, recomputed here from the raw weights with plain numpy
    c, dims = 3, (2, 2, 2)
    blk = WindowAttention3d("a", c, dims, rng, dtype=np.float64)
    blk.gamma.data = np.asarray(0.9)
    x = rng.standard_normal((1, c) + dims)
    t = np.einsum("oc,bcdhw->bodhw", blk.qkv.w.data[:, :, 0, 0, 0], x) \
        + blk.qkv.b.data[None, :, None, None, None]
    tok = t.reshape(1, 3 * c, -1).transpose(0, 2, 1)
    q, k, v = tok[:, :, :c], tok[:, :, c:2 * c], tok[:, :, 2 * c:]
    z = q @ k.transpose(0, 2, 1) / math.sqrt(c)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    o = (attn @ v).transpose(0, 2, 1).reshape(1, c, *dims)
    proj = np.einsum("oc,bcdhw->bodhw", blk.proj.w.data[:, :, 0, 0, 0], o) \
        + blk.proj.b.data[None, :, None, None, None]
    want = x + 0.9 * proj
    got = blk.forward(Var(x)).data
    oracle_rel = float(np.abs(got - want).max()
                       / max(1.0, np.abs(want).max()))

    with capture("a.weights") as got:
        blk.forward(Var(rng.standard_normal((2, c, 4, 4, 4))))
    amap = got["a.weights"]
    row_err = float(np.abs(amap.sum(axis=-1) - 1.0).max())

    ok = identity_ok and oracle_rel <= 1e-6 and row_err <= 1e-6
    _line(2, "attention identity and dense oracle", ok,
          f"zero-scale identity bit-exact={identity_ok}, "
          f"oracle rel err={oracle_rel:.2e} (<= 1e-6), "
          f"row-sum err={row_err:.2e} (<= 1e-6)")


# ---------------------------------------------------------------------------
# 3. window partition exactness
# ---------------------------------------------------------------------------

def test_criterion_03_window_partition_exactness():
    rng = np.random.default_rng([3, 0xACC])
    x = rng.standard_normal((1, 2, 4, 4, 4))
    tok = unfold_windows(x, (2, 2, 2))
    eight_ok = tok.shape == (1, 8, 8, 2)  # eight 2x2x2 windows of 8 tokens
    pairs_ok = 0
    checked = [(x, (2, 2, 2))]
    while len(checked) < 12:
        w = tuple(int(v) for v in rng.integers(1, 4, size=3))
        mult = tuple(int(v) for v in rng.integers(1, 4, size=3))
        dims = tuple(wi * mi for wi, mi in zip(w, mult))
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 4))) + dims
        checked.append((rng.standard_normal(shape), w))
    for vol, w in checked:
        t = unfold_windows(vol, w)
        back = fold_windows(t, w, vol.shape[2:])
        if np.array_equal(back, vol) and \
                np.array_equal(unfold_windows(back, w), t):
            pairs_ok += 1
    ok = eight_ok and pairs_ok == len(checked)
    _line(3, "window partition exactness", ok,
          f"4^3 -> {tok.shape} (eight 2x2x2 windows), "
          f"{pairs_ok}/{len(checked)} round trips bit-exact")


# ---------------------------------------------------------------------------
# 4. conv/tconv adjointness
# ---------------------------------------------------------------------------

def test_criterion_04_conv_tconv_adjointness():
    rng = np.random.default_rng([4, 0xACC])
    worst = 0.0
    done = 0
    while done < 10:
        ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = tuple(int(v) for v in rng.integers(1, 4, size=3))
        s = tuple(int(v) for v in rng.integers(1, 3, size=3))
        d = tuple(int(v) for v in rng.integers(1, 3, size=3))
        p = tuple(int(v) for v in rng.integers(0, 2, size=3))
        out = tuple(int(v) for v in rng.integers(1, 4, size=3))
        x_dims = tuple((o - 1) * si + di * (ki - 1) + 1 - 2 * pi
                       for o, si, di, ki, pi in zip(out, s, d, k, p))
        if min(x_dims) < 1:
            continue
        spec = ConvSpec(ci, co, k, s, d, p)
        if spec.out_dims(x_dims) != out:
            continue
        w = rng.standard_normal((co, ci) + k)
        x = rng.standard_normal((2, ci) + x_dims)
        y = rng.standard_normal((2, co) + out)
        a = float((conv3d(x, LayerParams(w, np.zeros(co), spec)) * y).sum())
        tspec = ConvSpec(co, ci, k, s, d, p)
        xt = tconv3d(y, LayerParams(w, np.zeros(ci), tspec))
        assert xt.shape == x.shape
        b = float((x * xt).sum())
        den = max(abs(a), abs(b))
        if den == 0.0:
            continue  # kernel never touches real voxels; uninformative
        worst = max(worst, abs(a - b) / den)
        done += 1
    ok = worst <= 1e-10
    _line(4, "conv/tconv adjointness", ok,
          f"10 random specs, worst rel err={worst:.2e} (<= 1e-10)")


# ---------------------------------------------------------------------------
# 5. loss identities
# ---------------------------------------------------------------------------

def test_criterion_05_loss_identities():
    rng = np.random.default_rng([5, 0xACC])
    m = (rng.random((2, 1, 3, 4, 5)) < 0.4).astype(np.float64)
    half = np.full_like(m, 0.5)
    bce_err = abs(bce_loss(half, m) - math.log(2.0))

    dice_err = 0.0
    for _ in range(5):
        p = (rng.random((1, 1, 4, 4, 4)) < 0.5).astype(np.float64)
        t = (rng.random((1, 1, 4, 4, 4)) < 0.5).astype(np.float64)
        metric = seg_metrics(p, t).dice_score
        dice_err = max(dice_err, abs(dice_loss(p, t) - (1.0 - metric)))

    p = rng.random((1, 1, 4, 4, 4))
    t = (rng.random((1, 1, 4, 4, 4)) < 0.5).astype(np.float64)
    lv = combined_loss(p, t)
    total_exact = (lv.total == lv.bce + lv.dice
                   and lv.bce == bce_loss(p, t)
                   and lv.dice == dice_loss(p, t))

    ok = bce_err <= 1e-9 and dice_err <= 1e-5 and total_exact
    _line(5, "loss identities", ok,
          f"|BCE(0.5)-ln2|={bce_err:.2e} (<= 1e-9), "
          f"binary |dice_loss-(1-dice)|={dice_err:.2e} (<= 1e-5), "
          f"total==bce+dice exactly={total_exact}")


# ---------------------------------------------------------------------------
# 6. overfit a single phantom
# ---------------------------------------------------------------------------

def _overfit(kind, config, sample, seed, max_steps=300, probe_every=25):
    net = build_network(kind, config, seed=seed)
    params = list(net.params())
    adam = AdamState(lr=1e-4)
    losses = []
    for step in range(max_steps):
        drop = np.random.default_rng([seed, 0xD409, 0, step])
        losses.append(train_step(net, params, sample, adam, drop))
        if (step + 1) % probe_every == 0:
            pred = predict_volume(net, sample.image)
            dice = seg_metrics(pred, sample.mask).dice_score
            if dice >= 0.95:
                return step + 1, dice, losses
    pred = predict_volume(net, sample.image)
    return max_steps, seg_metrics(pred, sample.mask).dice_score, losses


def test_criterion_06_overfit_single_phantom():
    t0 = time.monotonic()
    runs = {}
    for kind, config, sample in (
        ("lung",
         NetworkConfig(stage_channels=DESK_CHANNELS,
                       input_geometry=(1, 16, 64, 64)),
         make_phantom("lung", (16, 64, 64), 0)),
        ("nodule",
         NetworkConfig(stage_channels=DESK_CHANNELS,
                       input_geometry=(1, 32, 32, 32), dropout_rate=0.0),
         make_phantom("nodule", 32, 0)),
    ):
        steps, dice, losses = _overfit(kind, config, sample, seed=0)
        _, _, replay = _overfit(kind, config, sample, seed=0,
                                max_steps=10, probe_every=10 ** 6)
        runs[kind] = (steps, dice, losses[:10] == replay)
    elapsed = time.monotonic() - t0

    ok = (elapsed < 600.0
          and all(d >= 0.95 and s <= 300 and det
                  for s, d, det in runs.values()))
    detail = ", ".join(f"{k}: dice={d:.4f} (>= 0.95) in {s} steps (<= 300), "
                       f"replay bit-identical={det}"
                       for k, (s, d, det) in runs.items())
    _line(6, "overfit single phantom", ok,
          f"{detail}, {elapsed:.0f}s (< 600s)")


# ---------------------------------------------------------------------------
# 7. desk-scale generalization smoke
# ---------------------------------------------------------------------------

def test_criterion_07_generalization_smoke(tmp_path):
    samples = tmp_path / "samples"
    ids = []
    for i in range(8):
        s = make_phantom("nodule", 32, i)
        save_sample(s, samples)
        ids.append(s.id)
    config = NetworkConfig(stage_channels=DESK_CHANNELS,
                           input_geometry=(1, 32, 32, 32))

    results = []
    for seed in (0, 1, 2):
        man = split_dataset(ids, seed)
        state = train("nodule", man, samples, tmp_path / f"run{seed}",
                      config, epochs=30, lr=1e-4, seed=seed)
        agg, _ = evaluate(state.net, man.test, samples)
        base = []
        for sid in man.test:
            smp = load_sample(samples, sid)
            zeros = Tensor5(np.zeros_like(smp.mask.data))
            base.append(seg_metrics(zeros, smp.mask).dice_score)
        results.append((seed, agg.dice_score, float(np.mean(base))))

    ok = all(d >= 0.80 and d > b for _, d, b in results)
    _line(7, "desk-scale generalization smoke", ok,
          "; ".join(f"seed {s}: test dice={d:.4f} (>= 0.80), "
                    f"all-background={b:.4f}" for s, d, b in results))


# ---------------------------------------------------------------------------
# 8. pipeline exactness
# ---------------------------------------------------------------------------

def test_criterion_08_pipeline_exactness(tmp_path):
    rng = np.random.default_rng([8, 0xACC])
    crop_ok = True
    for depth in (23, 24, 40, 301):
        vol = rng.standard_normal((1, 1, depth, 6, 7)).astype(np.float32)
        out = crop_about_median(vol)
        med = (depth - 1) // 2
        crop_ok &= (out.shape == (1, 1, 23, 6, 7)
                    and np.array_equal(out,
                                       vol[:, :, med - 11: med + 12]))

    man = split_dataset([f"scan-{i:04d}" for i in range(888)], seed=0)
    sizes = (len(man.train), len(man.val), len(man.test))
    split_ok = (sizes == (534, 177, 177)
                and len(set(man.train) | set(man.val) | set(man.test)) == 888)

    vol = rng.integers(-1024, 3072, (1, 1, 5, 7, 6)).astype(np.float32)
    path = tmp_path / "vol.mhd"
    write_mhd(path, Tensor5(vol), spacing=(0.7, 0.7, 1.25),
              origin=(-100.0, -100.0, 50.0), element_type="MET_SHORT")
    back, meta = load_mhd(path)
    mhd_ok = (np.array_equal(back.data, vol)
              and meta.spacing == (0.7, 0.7, 1.25)
              and meta.origin == (-100.0, -100.0, 50.0)
              and meta.element_type == "MET_SHORT")

    ok = crop_ok and split_ok and mhd_ok
    _line(8, "pipeline exactness", ok,
          f"median crop 23 slices={crop_ok}, 888 -> {sizes} "
          f"(== (534,177,177)), MetaImage bit-exact={mhd_ok}")


# ---------------------------------------------------------------------------
# 9. shape contracts at full scale
# ---------------------------------------------------------------------------

def test_criterion_09_shape_contracts():
    rng = np.random.default_rng([9, 0xACC])
    results = []
    for kind, config in (("lung", lung_default_config()),
                         ("nodule", nodule_default_config())):
        net = build_network(kind, config, seed=0)
        shape = (1,) + tuple(config.input_geometry)
        x = Var(rng.random(shape, dtype=np.float32))
        t0 = time.monotonic()
        with no_grad():
            prob = net.forward(x, "eval")
        dt = time.monotonic() - t0
        arr = prob.data
        results.append((kind, shape, arr.shape == shape,
                        float(arr.min()), float(arr.max()), dt))

    ok = all(same and 0.0 < lo and hi < 1.0
             for _, _, same, lo, hi, _ in results)
    _line(9, "shape contracts", ok,
          "; ".join(f"{k}: {s} -> same={same}, outputs in "
                    f"({lo:.2e}, {hi:.6f}) strict, {dt:.0f}s"
                    for k, s, same, lo, hi, dt in results))


# ---------------------------------------------------------------------------
# 10. training determinism
# ---------------------------------------------------------------------------

def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            full = os.path.join(dirpath, f)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


def test_criterion_10_training_determinism(tmp_path):
    from lungseg3d.data import SplitManifest
    samples = tmp_path / "samples"
    ids = []
    for i in range(3):
        s = make_phantom("nodule", 32, i)
        save_sample(s, samples)
        ids.append(s.id)
    man = SplitManifest(train=ids[:2], val=[ids[2]], test=[], seed=0)
    config = NetworkConfig(stage_channels=[2, 4, 8, 16],
                           input_geometry=(1, 32, 32, 32))
    for run in ("a", "b"):
        train("nodule", man, samples, tmp_path / run, config,
              epochs=2, lr=1e-4, seed=11)
    fa, fb = _tree_bytes(tmp_path / "a"), _tree_bytes(tmp_path / "b")
    names_ok = fa.keys() == fb.keys()
    diff = [n for n in fa if names_ok and fa[n] != fb[n]]
    ok = names_ok and not diff
    _line(10, "training determinism", ok,
          f"{len(fa)} files compared (log + both checkpoints), "
          f"byte-identical={ok}, differing={diff[:5]}")
