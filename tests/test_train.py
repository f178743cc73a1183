"""Optimizer, checkpointing, evaluation, and the sequential training loop."""

import json
import os
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lungseg3d import autograd as ag
from lungseg3d.autograd import Var
from lungseg3d.cli import main
from lungseg3d.data import (SplitManifest, load_sample, make_phantom,
                            save_manifest, save_sample)
from lungseg3d.losses import combined_term
from lungseg3d.networks import NetworkConfig, build_network
from lungseg3d.train import (LOG_HEADER, AdamState, NonFiniteError,
                             TrainState, adam_step, evaluate, load_checkpoint,
                             save_checkpoint, train, train_step, _epoch_order,
                             _named_tensors)
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
    st = AdamState(lr=lr)

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
    st = AdamState(lr=lr)
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


def test_adam_updates_a_strided_parameter_view_in_place():
    """A parameter that is a strided view of a larger array is updated in
    place, to the bytes of the plain expressions; the rest is untouched."""
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(5)
    whole = rng.standard_normal((4, 4)).astype(np.float32)
    g = rng.standard_normal((4, 2)).astype(np.float32)
    skipped = whole[:, 1::2].copy()
    m = (1.0 - b1) * g
    v = (1.0 - b2) * g * g
    want = whole[:, ::2] - lr * (m / (1.0 - b1)) / (
        np.sqrt(v / (1.0 - b2)) + eps)
    adam_step([Var(whole[:, ::2], name="w")], [g], AdamState(lr=lr))
    assert whole[:, ::2].tobytes() == want.tobytes()
    assert whole[:, 1::2].tobytes() == skipped.tobytes()


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

    state = TrainState(net=net, kind="nodule", adam=adam, epoch=4, seed=3,
                       best_val_dice=0.25)
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
    state = TrainState(net=net, kind="nodule", adam=AdamState(), epoch=0,
                       seed=0, best_val_dice=0.0)
    ck = tmp_path / "ck"
    save_checkpoint(ck, state)
    manifest = json.loads((ck / "manifest.json").read_text())
    first = next(iter(net.params())).name
    manifest["tensors"].remove(first)
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
    save_checkpoint(ck, TrainState(net=net, kind="nodule", adam=adam,
                                   epoch=0, seed=0, best_val_dice=0.0))
    manifest = json.loads((ck / "manifest.json").read_text())
    if name not in manifest["tensors"]:
        manifest["tensors"].append(name)
    (ck / "manifest.json").write_text(json.dumps(manifest))
    save_array(arr, str(ck / name))
    with pytest.raises(ValueError, match=repr(name)):
        load_checkpoint(ck)


def _parent_format(names):
    """The {name: {"file", "role"}} object that a checkpoint manifest held
    in place of its list of tensor names, as the older writer wrote it."""
    def role(name):
        if name.startswith("adam."):
            return f"adam_moment{1 if name[5] == 'm' else 2}"
        return "running_stat" if ".running_" in name else "parameter"
    return {name: {"file": name, "role": role(name)} for name in names}


def test_checkpoint_holds_the_manifest_and_one_pair_per_listed_name(
        tmp_path):
    """The manifest lists each tensor name once, in save order (parameters,
    running stats, Adam's m, then v), and the directory holds it and one
    .raw/.json pair per name, nothing else."""
    net = build_network("nodule", _nodule_config(), seed=0)
    adam = AdamState()
    train_step(net, list(net.params()), make_phantom("nodule", 32, 0), adam,
               np.random.default_rng(0))
    ck = tmp_path / "ck"
    save_checkpoint(ck, TrainState(net=net, kind="nodule", adam=adam,
                                   epoch=0, seed=0, best_val_dice=0.0))
    names = json.loads((ck / "manifest.json").read_text())["tensors"]
    params = [var.name for var in net.params()]
    stats = [f"{bn.name}.running_{s}" for bn in net.batchnorms()
             for s in ("mean", "var")]
    assert names == (params + stats + [f"adam.m.{n}" for n in params]
                     + [f"adam.v.{n}" for n in params])
    assert sorted(os.listdir(ck)) == sorted(
        ["manifest.json"] + [n + ext for n in names for ext in (".raw",
                                                                 ".json")])


@pytest.mark.parametrize("where", ["absolute", "relative"])
def test_older_manifest_cannot_load_a_file_outside_its_checkpoint(tmp_path,
                                                                  where):
    """The older manifest named each tensor's file; that name is ignored, so
    an edited one cannot load an array planted elsewhere on the disk."""
    net = build_network("nodule", _nodule_config(), seed=0)
    ck, elsewhere = tmp_path / "run" / "ck", tmp_path / "run" / "elsewhere"
    save_checkpoint(ck, TrainState(net=net, kind="nodule", adam=AdamState(),
                                   epoch=0, seed=0, best_val_dice=0.0))
    want = {var.name: var.data for var in net.params()}["head.bias"]
    elsewhere.mkdir()
    save_array(np.full_like(want, 42.0), str(elsewhere / "planted"))
    path = ck / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["tensors"] = _parent_format(manifest["tensors"])
    manifest["tensors"]["head.bias"]["file"] = (
        str(elsewhere / "planted") if where == "absolute"
        else "../elsewhere/planted")
    path.write_text(json.dumps(manifest))
    back = load_checkpoint(ck)
    got = {var.name: var.data for var in back.net.params()}["head.bias"]
    assert got.tobytes() == want.tobytes() and 42.0 not in got


def test_parent_format_manifest_loads_bit_exact_and_resumes_the_same(
        tmp_path):
    """A manifest whose tensors are the older {name: {"file", "role"}}
    object loads the arrays the name list loads, and resumes to the bytes
    that the name list resumes to."""
    d, ids = _phantom_dir(tmp_path, seeds=(0, 1, 2))
    man = SplitManifest(train=ids[:2], val=[ids[2]], test=[], seed=0)
    new, old = tmp_path / "new", tmp_path / "old"
    train("nodule", man, d, new, _nodule_config(), epochs=1, seed=0)
    shutil.copytree(new, old)
    path = old / "last" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["tensors"] = _parent_format(manifest["tensors"])
    path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    states = [load_checkpoint(run / "last") for run in (new, old)]
    a, b = ([(name, arr.dtype, arr.shape, arr.tobytes())
             for name, arr in _named_tensors(state)] for state in states)
    assert len(a) == len(manifest["tensors"]) and a == b
    a, b = ((s.kind, s.epoch, s.seed, s.best_val_dice, s.adam.lr, s.adam.t)
            for s in states)
    assert a == b
    for run in (new, old):
        train("nodule", man, d, run, _nodule_config(), epochs=2, seed=0,
              resume_from=run / "last")
    files_new, files_old = _dir_bytes(new), _dir_bytes(old)
    assert files_new.keys() == files_old.keys()
    for name in files_new:
        assert files_new[name] == files_old[name], name


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
    # the threshold is checked before any sample is read, also for no ids
    for sample_ids in ([], ["ghost"]):
        with pytest.raises(ValueError, match=r"threshold 5 outside \(0, 1\)"):
            evaluate(net, sample_ids, d, threshold=5)


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


@pytest.mark.parametrize("change,named", [
    ({"kind": "lung"}, "kind 'nodule', not kind 'lung'"),
    ({"lr": 0.05}, "lr 0.0001, not lr 0.05"),
    ({"seed": 3}, "seed 0, not seed 3"),
    ({"config": NetworkConfig([2, 4, 8, 32], (1, 32, 32, 32))},
     "stage_channels [2, 4, 8, 16], not stage_channels [2, 4, 8, 32]"),
    ({"config": NetworkConfig(MICRO, (1, 32, 32, 32), dropout_rate=0.5),
      "lr": 0.05},
     "lr 0.0001, dropout_rate 0.2, not lr 0.05, dropout_rate 0.5"),
], ids=["kind", "lr", "seed", "stage_channels", "lr+dropout_rate"])
def test_resume_refuses_settings_the_checkpoint_was_not_trained_with(
        tmp_path, change, named):
    """A resumed run keeps training the checkpoint's net at its lr and seed,
    so a kind, network setting, lr or seed that differs is refused with one
    line naming each, before log.csv or a checkpoint is touched."""
    d, ids = _phantom_dir(tmp_path, seeds=(0, 1))
    man = SplitManifest(train=ids[:1], val=ids[1:], test=[], seed=0)
    out = tmp_path / "run"
    train("nodule", man, d, out, _nodule_config(), epochs=1, seed=0)
    before = _dir_bytes(out)
    settings = dict(kind="nodule", config=_nodule_config(), lr=1e-4, seed=0)
    settings.update(change)
    with pytest.raises(ValueError) as err:
        train(settings.pop("kind"), man, d, out, settings.pop("config"),
              epochs=2, resume_from=out / "last", **settings)
    assert str(err.value) == (f"checkpoint {out / 'last'} was trained with "
                              f"{named}")
    assert _dir_bytes(out) == before


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


def test_checkpoint_with_the_retired_keys_loads_and_resumes(tmp_path):
    """A manifest no longer records config.output_channels or Adam's beta1,
    beta2 and eps, which are constants; one that still holds them loads,
    and resumes to the bytes of the same checkpoint without them."""
    d, ids = _phantom_dir(tmp_path, seeds=(0, 1, 2))
    man = SplitManifest(train=ids[:2], val=[ids[2]], test=[], seed=0)
    new, old = tmp_path / "new", tmp_path / "old"
    train("nodule", man, d, new, _nodule_config(), epochs=1, seed=0)
    path = new / "last" / "manifest.json"
    manifest = json.loads(path.read_text())
    assert "output_channels" not in manifest["config"]
    assert sorted(manifest["adam"]) == ["lr", "t"]
    shutil.copytree(new, old)
    manifest["config"]["output_channels"] = 1
    manifest["adam"].update(beta1=0.9, beta2=0.999, eps=1e-8)
    (old / "last" / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    for run in (new, old):
        train("nodule", man, d, run, _nodule_config(), epochs=2, seed=0,
              resume_from=run / "last")
    files_new, files_old = _dir_bytes(new), _dir_bytes(old)
    assert files_new.keys() == files_old.keys()
    for name in files_new:
        assert files_new[name] == files_old[name], name


@pytest.mark.parametrize("stop", [1, 2])
def test_resumed_run_reproduces_the_uninterrupted_run(tmp_path, stop):
    """Training `stop` epochs and then resuming from last/ to 3 epochs
    writes the bytes of an uninterrupted 3-epoch run: log.csv, best/ and
    last/, each checkpoint's tensors listed and saved in the same order."""
    d, ids = _phantom_dir(tmp_path, seeds=(0, 1, 2))
    man = SplitManifest(train=ids[:2], val=[ids[2]], test=[], seed=0)
    whole, parts = tmp_path / "whole", tmp_path / "parts"
    train("nodule", man, d, whole, _nodule_config(), epochs=3, seed=0)
    train("nodule", man, d, parts, _nodule_config(), epochs=stop, seed=0)
    train("nodule", man, d, parts, _nodule_config(), epochs=3, seed=0,
          resume_from=parts / "last")
    files_whole, files_parts = _dir_bytes(whole), _dir_bytes(parts)
    assert files_whole.keys() == files_parts.keys()
    for name in files_whole:
        assert files_whole[name] == files_parts[name], name


def test_fresh_run_overwrites_whatever_log_it_finds(tmp_path):
    """A fresh run starts log.csv over without reading the log already
    there, even one that is not a log."""
    d, ids = _phantom_dir(tmp_path, seeds=(0, 1))
    man = SplitManifest(train=ids[:1], val=ids[1:], test=[], seed=0)
    out = tmp_path / "run"
    out.mkdir()
    (out / "log.csv").write_text("not a log\nx,y\n3,1.0,0.5,0.5\n")
    train("nodule", man, d, out, _nodule_config(), epochs=1, seed=0)
    log = (out / "log.csv").read_text().splitlines()
    assert log[0] == LOG_HEADER and [row.split(",")[0] for row in log[1:]] \
        == ["0"]


def test_train_missing_sample_raises(tmp_path):
    d, ids = _phantom_dir(tmp_path, seeds=(0,))
    man = SplitManifest(train=["ghost"], val=[], test=[], seed=0)
    with pytest.raises(RuntimeError):
        train("nodule", man, d, tmp_path / "x", _nodule_config(), epochs=1,
              seed=0)


def test_backward_peak_stays_near_the_forward_tape():
    """The forward and loss of one train step at the nodule workload's
    geometry, then its backward, under tracemalloc: freeing each node once
    it has run keeps the backward's peak within 1.25x of what the forward
    left live (about 1.08x; 1.97x when every node lives to the end)."""
    config = NetworkConfig(stage_channels=[8, 16, 32, 64],
                           input_geometry=(1, 32, 32, 32))
    net = build_network("nodule", config, 0)
    sample = make_phantom("nodule", 32, 0)
    tracemalloc.start()
    try:
        loss = combined_term(net.forward(Var(sample.image.data), "train",
                                         np.random.default_rng(0)),
                             sample.mask.data)
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ag.run_backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * live, (live, peak)


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
