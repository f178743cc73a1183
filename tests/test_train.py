"""Optimizer, checkpointing, evaluation, and the sequential training loop."""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from lungseg3d.autograd import Var
from lungseg3d.cli import main
from lungseg3d.data import (SplitManifest, load_sample, make_phantom,
                            save_manifest, save_sample)
from lungseg3d.networks import NetworkConfig, build_network
from lungseg3d.train import (LOG_HEADER, AdamState, NonFiniteError,
                             TrainState, adam_step, evaluate, load_checkpoint,
                             save_checkpoint, train, train_step, _ADAM_CHUNK,
                             _epoch_order)
from lungseg3d.tensor import load_array, save_array

MICRO = [2, 4, 8, 16]


def _nodule_config(dims=(32, 32, 32)):
    return NetworkConfig(stage_channels=MICRO, input_geometry=(1,) + dims)


def _phantom_dir(tmp_path, seeds=(0, 1, 2, 3), dims=(32, 32, 32)):
    d = tmp_path / "samples"
    ids = []
    for seed in seeds:
        s = make_phantom("nodule", dims, seed)
        save_sample(s, d)
        ids.append(s.id)
    return d, ids


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_matches_hand_rolled_recurrence():
    # drive one parameter through 10 steps of g = 2x on f(x) = x^2 and
    # compare against an independently coded Adam recurrence
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    p = Var(np.asarray([1.5]), name="x")
    st = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)

    x = 1.5
    m = v = 0.0
    for t in range(1, 11):
        g = 2.0 * float(p.data[0])
        adam_step([p], [np.asarray([g])], st)

        gm = 2.0 * x
        m = b1 * m + (1 - b1) * gm
        v = b2 * v + (1 - b2) * gm * gm
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        x = x - lr * mhat / (np.sqrt(vhat) + eps)
        assert abs(float(p.data[0]) - x) <= 1e-12
    assert st.t == 10


def test_adam_first_step_is_lr_sized():
    p = Var(np.asarray([0.0, 0.0]), name="w")
    st = AdamState(lr=1e-4)
    adam_step([p], [np.asarray([3.0, -0.25])], st)
    # bias correction makes |update| = lr/(1 + eps/|g|) on step one
    assert np.allclose(p.data, [-1e-4, 1e-4], atol=1e-8)


def test_adam_none_gradient_means_zero_update():
    p = Var(np.asarray([1.0]), name="w")
    st = AdamState()
    adam_step([p], [None], st)
    assert p.data[0] == 1.0


def test_adam_validates_inputs():
    p = Var(np.zeros(2), name="w")
    with pytest.raises(ValueError):
        adam_step([p], [], AdamState())
    with pytest.raises(ValueError):
        adam_step([p], [np.zeros(3)], AdamState())


def _adam_bytes_match_the_expressions(shapes, steps):
    """Adam on f32 parameters of the given shapes gives, step by step, the
    bytes of the plain expressions, in the parameters and both moments."""
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(11)
    params = [Var(rng.standard_normal(s).astype(np.float32), name=f"p{i}")
              for i, s in enumerate(shapes)]
    ref_p = [v.data.copy() for v in params]
    ref_m = [np.zeros(s, np.float32) for s in shapes]
    ref_v = [np.zeros(s, np.float32) for s in shapes]
    st = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)
    for t in range(1, steps + 1):
        grads = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        adam_step(params, grads, st)
        for p, m, v, g in zip(ref_p, ref_m, ref_v, grads):
            m[...] = b1 * m + (1.0 - b1) * g
            v[...] = b2 * v + (1.0 - b2) * g * g
            mhat = m / (1.0 - b1 ** t)
            vhat = v / (1.0 - b2 ** t)
            p[...] = p - lr * mhat / (np.sqrt(vhat) + eps)
        for var, p, m, v in zip(params, ref_p, ref_m, ref_v):
            assert var.data.dtype == np.float32 and var.data.shape == p.shape
            assert var.data.tobytes() == p.tobytes(), (t, var.name)
            assert st.m[var.name].tobytes() == m.tobytes(), (t, var.name)
            assert st.v[var.name].tobytes() == v.tobytes(), (t, var.name)


def test_adam_f32_bytes_match_the_expressions():
    """The in-place update gives the bytes of the plain expressions, for f32
    parameters of rank 5, 1 and 0."""
    _adam_bytes_match_the_expressions([(8, 4, 3, 3, 3), (5,), ()], steps=5)


def test_adam_chunks_match_the_expressions():
    """A parameter of more than two chunks, the last one partial, updates
    chunk by chunk to the bytes of the whole-array expressions."""
    big = (2, 1, _ADAM_CHUNK + 7)
    assert np.prod(big) > 2 * _ADAM_CHUNK and np.prod(big) % _ADAM_CHUNK
    _adam_bytes_match_the_expressions([big, ()], steps=3)


def test_adam_rejects_a_non_contiguous_parameter():
    p = Var(np.zeros((4, 4))[:, ::2], name="w")
    with pytest.raises(ValueError, match="'w'"):
        adam_step([p], [np.zeros((4, 2))], AdamState())


def test_adam_state_keyed_by_name_across_rebuilds():
    st = AdamState()
    p1 = Var(np.zeros(2), name="w")
    adam_step([p1], [np.ones(2)], st)
    assert "w" in st.m and "w" in st.v
    p2 = Var(p1.data.copy(), name="w")  # rebuilt Var, same name
    adam_step([p2], [np.ones(2)], st)
    assert st.t == 2 and len(st.m) == 1


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = _nodule_config()
    net = build_network("nodule", cfg, seed=3)
    adam = AdamState(lr=2e-4)
    params = list(net.params())
    sample = make_phantom("nodule", (32, 32, 32), 0)
    train_step(net, params, sample, adam, np.random.default_rng(0))

    state = TrainState(net=net, kind="nodule", config=cfg, adam=adam,
                       epoch=4, seed=3, best_val_dice=0.25)
    ck = tmp_path / "ck"
    save_checkpoint(ck, state)
    back = load_checkpoint(ck)

    assert back.kind == "nodule" and back.epoch == 4 and back.seed == 3
    assert back.best_val_dice == 0.25
    assert back.adam.lr == 2e-4 and back.adam.t == 1
    want = {p.name: p.data for p in net.params()}
    got = {p.name: p.data for p in back.net.params()}
    assert want.keys() == got.keys()
    for name in want:
        assert np.array_equal(want[name], got[name]), name
        assert want[name].shape == got[name].shape  # incl. 0-d attn scale
    for name in adam.m:
        assert np.array_equal(adam.m[name], back.adam.m[name])
        assert np.array_equal(adam.v[name], back.adam.v[name])
    for bn_a, bn_b in zip(net.batchnorms(), back.net.batchnorms()):
        assert np.array_equal(bn_a.state.running_mean, bn_b.state.running_mean)
        assert np.array_equal(bn_a.state.running_var, bn_b.state.running_var)


def test_checkpoint_missing_tensor_rejected(tmp_path):
    cfg = _nodule_config()
    net = build_network("nodule", cfg, seed=0)
    state = TrainState(net=net, kind="nodule", config=cfg, adam=AdamState(),
                       epoch=0, seed=0, best_val_dice=0.0)
    ck = tmp_path / "ck"
    save_checkpoint(ck, state)
    manifest = json.loads((ck / "manifest.json").read_text())
    first = next(iter(net.params())).name
    del manifest["tensors"][first]
    (ck / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        load_checkpoint(ck)


# (tensor whose file is replaced, the replacement) in a 2-channel net
MISMATCHED = [
    ("enc1.bn1.running_mean", np.zeros(5, dtype=np.float32)),
    ("enc1.bn1.running_var", np.ones(2, dtype=np.float64)),
    ("adam.m.enc1.conv1.weight", np.zeros((2, 1, 3, 3, 1), np.float32)),
    ("adam.v.head.bias", np.zeros((1, 1), dtype=np.float32)),
    ("adam.m.no.such", np.zeros(2, dtype=np.float32)),
]


@pytest.mark.parametrize("name,arr", MISMATCHED,
                         ids=[name for name, _ in MISMATCHED])
def test_checkpoint_mismatched_tensor_rejected(tmp_path, name, arr):
    cfg = _nodule_config()
    net = build_network("nodule", cfg, seed=0)
    adam = AdamState()
    for var in net.params():
        adam.m[var.name] = np.zeros_like(var.data)
        adam.v[var.name] = np.zeros_like(var.data)
    ck = tmp_path / "ck"
    save_checkpoint(ck, TrainState(net=net, kind="nodule", config=cfg,
                                   adam=adam, epoch=0, seed=0,
                                   best_val_dice=0.0))
    manifest = json.loads((ck / "manifest.json").read_text())
    role = "adam_moment1" if name.startswith("adam.m.") else "running_stat"
    manifest["tensors"].setdefault(name, {"file": name, "role": role})
    (ck / "manifest.json").write_text(json.dumps(manifest))
    save_array(arr, str(ck / name))
    with pytest.raises(ValueError, match=repr(name)):
        load_checkpoint(ck)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_scores_each_id(tmp_path):
    d, ids = _phantom_dir(tmp_path, seeds=(0, 1))
    net = build_network("nodule", _nodule_config(), seed=0)
    agg, rows = evaluate(net, ids, d)
    assert [r["id"] for r in rows] == ids
    for r in rows:
        for key in ("dice", "iou", "precision", "recall"):
            assert 0.0 <= r[key] <= 1.0
    assert agg.dice_score == pytest.approx(
        np.mean([r["dice"] for r in rows]))
    empty_agg, empty_rows = evaluate(net, [], d)
    assert empty_rows == [] and empty_agg.dice_score == 0.0


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_epoch_order_deterministic_and_epoch_sensitive():
    ids = [f"s{i}" for i in range(8)]
    assert _epoch_order(ids, 0, 0) == _epoch_order(ids, 0, 0)
    assert sorted(_epoch_order(ids, 0, 0)) == sorted(ids)
    assert _epoch_order(ids, 0, 0) != _epoch_order(ids, 0, 1)


def test_train_writes_log_and_checkpoints(tmp_path):
    d, ids = _phantom_dir(tmp_path, seeds=(0, 1, 2))
    man = SplitManifest(train=ids[:2], val=[ids[2]], test=[], seed=0)
    out = tmp_path / "run"
    state = train("nodule", man, d, out, _nodule_config(), epochs=2, seed=0)

    log = (out / "log.csv").read_text(encoding="ascii").splitlines()
    assert log[0] == LOG_HEADER == "epoch,train_loss,val_dice,val_iou"
    assert len(log) == 3
    for i, line in enumerate(log[1:]):
        fields = line.split(",")
        assert fields[0] == str(i)
        assert all(np.isfinite(float(v)) for v in fields[1:])
    assert (out / "best" / "manifest.json").exists()
    assert (out / "last" / "manifest.json").exists()
    assert state.epoch == 1
    last = load_checkpoint(out / "last")
    assert last.adam.t == 4  # 2 samples x 2 epochs


def _dir_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            full = os.path.join(dirpath, f)
            out[os.path.relpath(full, root)] = Path(full).read_bytes()
    return out


def test_train_reruns_byte_identical(tmp_path):
    d, ids = _phantom_dir(tmp_path, seeds=(0, 1, 2))
    man = SplitManifest(train=ids[:2], val=[ids[2]], test=[], seed=0)
    a = train("nodule", man, d, tmp_path / "a", _nodule_config(), epochs=1,
              seed=7)
    b = train("nodule", man, d, tmp_path / "b", _nodule_config(), epochs=1,
              seed=7)
    files_a = _dir_bytes(tmp_path / "a")
    files_b = _dir_bytes(tmp_path / "b")
    assert files_a.keys() == files_b.keys()
    for name in files_a:
        assert files_a[name] == files_b[name], name


def test_train_resume_continues_epoch_count(tmp_path):
    d, ids = _phantom_dir(tmp_path, seeds=(0, 1, 2))
    man = SplitManifest(train=ids[:2], val=[ids[2]], test=[], seed=0)
    out = tmp_path / "run"
    train("nodule", man, d, out, _nodule_config(), epochs=1, seed=0)
    state = train("nodule", man, d, out, _nodule_config(), epochs=3, seed=0,
                  resume_from=out / "last")
    assert state.epoch == 2
    log = (out / "log.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in log[1:]] == ["0", "1", "2"]
    with pytest.raises(ValueError):
        train("lung", man, d, out, _nodule_config(), epochs=4, seed=0,
              resume_from=out / "last")


def test_train_resume_from_best_truncates_log(tmp_path):
    d, ids = _phantom_dir(tmp_path, seeds=(0, 1, 2))
    man = SplitManifest(train=ids[:2], val=[ids[2]], test=[], seed=0)
    out = tmp_path / "run"
    train("nodule", man, d, out, _nodule_config(), epochs=1, seed=0)
    shutil.copytree(out / "best", tmp_path / "best0")
    train("nodule", man, d, out, _nodule_config(), epochs=4, seed=0,
          resume_from=out / "last")
    full = (out / "log.csv").read_text()
    # the log already holds epochs 1-3, which the epoch-0 checkpoint never saw
    state = train("nodule", man, d, out, _nodule_config(), epochs=4, seed=0,
                  resume_from=tmp_path / "best0")
    assert state.epoch == 3
    log = (out / "log.csv").read_text()
    assert [line.split(",")[0] for line in log.splitlines()[1:]] == \
        ["0", "1", "2", "3"]
    assert log == full  # epochs 1-3 rerun from the same state


def test_train_missing_sample_raises(tmp_path):
    d, ids = _phantom_dir(tmp_path, seeds=(0,))
    man = SplitManifest(train=["ghost"], val=[], test=[], seed=0)
    with pytest.raises(RuntimeError):
        train("nodule", man, d, tmp_path / "x", _nodule_config(), epochs=1,
              seed=0)


def test_train_stops_on_non_finite_loss(tmp_path, capsys):
    """A NaN in one training image stops the run at that step, before the
    update: the error names epoch, step and sample, and the parameters, the
    Adam moments, the batchnorm running stats and the checkpoints on disk
    are untouched."""
    d, ids = _phantom_dir(tmp_path, seeds=(0, 1, 2))
    man = SplitManifest(train=ids[:2], val=[ids[2]], test=[], seed=0)
    out = tmp_path / "run"
    train("nodule", man, d, out, _nodule_config(), epochs=1, seed=0)
    saved = _dir_bytes(out)
    bad = ids[1]
    image = load_array(str(d / f"{bad}.image"))
    image[0, 0, 16, 16, 16] = np.nan
    save_array(image, str(d / f"{bad}.image"))

    step = _epoch_order(man.train, 0, 1).index(bad)
    with pytest.raises(NonFiniteError,
                       match=f"epoch 1 step {step} sample '{bad}': "
                             f"non-finite loss"):
        train("nodule", man, d, out, _nodule_config(), epochs=2, seed=0,
              resume_from=out / "last")
    assert _dir_bytes(out) == saved

    state = load_checkpoint(out / "last")
    params = list(state.net.params())
    before = [v.data.copy() for v in params]
    moments = {n: m.copy() for n, m in state.adam.m.items()}
    stats = [(bn.state.running_mean.tobytes(), bn.state.running_var.tobytes())
             for bn in state.net.batchnorms()]
    with pytest.raises(NonFiniteError):
        train_step(state.net, params, load_sample(d, bad), state.adam,
                   np.random.default_rng(0))
    assert all(np.array_equal(v.data, b) for v, b in zip(params, before))
    assert stats == [(bn.state.running_mean.tobytes(),
                      bn.state.running_var.tobytes())
                     for bn in state.net.batchnorms()]
    assert state.adam.t == 2 and state.adam.m.keys() == moments.keys()
    assert all(np.array_equal(state.adam.m[n], m) for n, m in moments.items())

    man_path = tmp_path / "split.json"
    save_manifest(man, man_path)
    assert main(["train", "--net", "nodule", "--manifest", str(man_path),
                 "--sample-dir", str(d), "--out", str(tmp_path / "cli"),
                 "--epochs", "1", "--stage-channels", "2,4,8,16",
                 "--input-geometry", "1,32,32,32"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: epoch 0 step "), err
    assert f"sample '{bad}'" in err[0]
