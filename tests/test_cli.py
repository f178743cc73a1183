"""End-to-end command-line behaviour: exit codes, JSON echo, artifacts."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lungseg3d
from lungseg3d import gradcheck
from lungseg3d.cli import main
from lungseg3d.data import (load_manifest, load_mhd, load_sample,
                            make_phantom, save_sample)
from lungseg3d.networks import NetworkConfig, build_network
from lungseg3d.train import AdamState, TrainState, save_checkpoint

MICRO_FLAGS = ["--stage-channels", "2,4,8,16",
               "--input-geometry", "1,32,32,32"]


def _first_json(capsys):
    out = capsys.readouterr().out
    return json.loads(out.splitlines()[0]), out


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_bad_int_list_flag(capsys):
    assert main(["phantom-gen", "--kind", "nodule", "--out", "x",
                 "--dims", "a,b"]) == 1
    assert "comma-separated ints" in capsys.readouterr().err


def test_gradcheck_subcommand_reports_passes(capsys):
    assert main(["gradcheck", "--target", "relu"]) == 0
    echo, out = _first_json(capsys)
    assert echo["command"] == "gradcheck"
    reports = json.loads(out.split("\n", 1)[1])
    assert reports and all(r["pass"] for r in reports)


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(lungseg3d.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-m", "lungseg3d", "gradcheck",
                          "--target", "relu"], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[0])["command"] == "gradcheck"


def test_gradcheck_non_finite_probe_is_one_line_error(monkeypatch, capsys):
    """A finite-difference probe that meets a NaN ends the command with one
    error line naming the target, not a traceback."""
    def nan_check(seed, tol):
        x = np.ones(3)
        gradcheck.finite_diff_grad(lambda v: float("nan"), x, 1e-6)
        return []

    monkeypatch.setitem(gradcheck.CHECKS, "relu", nan_check)
    assert main(["gradcheck", "--target", "relu"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0] == ("error: gradcheck 'relu': non-finite probe at flat "
                      "index 0")


def test_phantom_gen_writes_samples(tmp_path, capsys):
    out = tmp_path / "samples"
    assert main(["phantom-gen", "--kind", "nodule", "--count", "2",
                 "--dims", "24,24,24", "--out", str(out), "--seed", "5"]) == 0
    _, text = _first_json(capsys)
    ids = json.loads(text.splitlines()[-1])["ids"]
    assert ids == ["nodule-0005", "nodule-0006"]
    for sid in ids:
        sample = load_sample(out, sid)
        assert sample.image.shape == (1, 1, 24, 24, 24)
    assert main(["phantom-gen", "--kind", "nodule", "--count", "0",
                 "--out", str(out)]) == 1


def test_split_subcommand_writes_manifest(tmp_path, capsys):
    man_path = tmp_path / "split.json"
    assert main(["split", "--ids", "a,b,c,d,e", "--out", str(man_path),
                 "--seed", "3"]) == 0
    man = load_manifest(man_path)
    assert len(man.train) == 3 and len(man.val) == 1 and len(man.test) == 1
    assert sorted(man.train + man.val + man.test) == ["a", "b", "c", "d", "e"]


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "epochs": 7}))
    assert main(["gradcheck", "--target", "relu", "--config", str(cfg),
                 "--seed", "9"]) == 0
    echo, _ = _first_json(capsys)
    assert echo["seed"] == 9 and echo["epochs"] == 7

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_knob": 1}))
    assert main(["gradcheck", "--config", str(bad)]) == 1
    assert "unknown key" in capsys.readouterr().err

    notjson = tmp_path / "broken.json"
    notjson.write_text("{nope")
    assert main(["gradcheck", "--config", str(notjson)]) == 1


BAD_CONFIG_VALUES = [("lr", "0.1"), ("threshold", "0.5"),
                     ("dropout_rate", "0.1"), ("lr", True), ("seed", 1.5),
                     ("seed", True), ("seed", -1), ("seed", None),
                     ("epochs", "1"), ("epochs", 1.0), ("net", 1),
                     ("net", "Lung"),
                     ("sample_dir", ["a"]), ("stage_channels", "2,4,8,16"),
                     ("stage_channels", [2, 4.0, 8, 16]),
                     ("input_geometry", [1, 32, 32, True])]


@pytest.fixture(scope="module")
def tiny_split(tmp_path_factory):
    """Two 32^3 nodule phantoms and a manifest that trains on one."""
    root = tmp_path_factory.mktemp("tiny")
    assert main(["phantom-gen", "--kind", "nodule", "--count", "2",
                 "--dims", "32,32,32", "--out", str(root)]) == 0
    man = root / "split.json"
    man.write_text(json.dumps({"train": ["nodule-0000"],
                               "val": ["nodule-0001"], "test": [],
                               "seed": 0}))
    return root, man


@pytest.mark.parametrize("key,val", BAD_CONFIG_VALUES,
                         ids=[f"{k}={json.dumps(v)}"
                              for k, v in BAD_CONFIG_VALUES])
def test_config_value_of_wrong_type_is_one_line_error(tmp_path, capsys,
                                                      tiny_split, key, val):
    """A config value of the wrong type stops the command before any work,
    with one error line naming the key."""
    samples, man = tiny_split
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: val}))
    capsys.readouterr()
    assert main(["train", "--net", "nodule", "--manifest", str(man),
                 "--sample-dir", str(samples), "--out", str(tmp_path / "run"),
                 "--epochs", "1", "--config", str(cfg), *MICRO_FLAGS]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert repr(key) in err[0], err[0]
    assert not captured.out
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--threshold", "1.5", "threshold 1.5 outside (0, 1)"),
    ("--epochs", "-3", "epochs must be at least 1, got -3"),
], ids=["threshold", "epochs"])
def test_bad_train_setting_stops_before_training(tmp_path, capsys, tiny_split,
                                                 flag, value, message):
    """An out-of-range threshold or epoch count is refused before the run
    directory exists, also when no validation volume would use the
    threshold."""
    samples, _ = tiny_split
    man = tmp_path / "split.json"
    man.write_text(json.dumps({"train": ["nodule-0000"], "val": [],
                               "test": [], "seed": 0}))
    run = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--net", "nodule", "--manifest", str(man),
                 "--sample-dir", str(samples), "--out", str(run),
                 "--epochs", "1", *MICRO_FLAGS, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert not run.exists()


def test_negative_seed_flag_is_one_line_error(capsys):
    assert main(["gradcheck", "--target", "relu", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "error: 'seed' must be non-negative, got -1\n"


def test_missing_checkpoint_directory_is_io_error(tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(tmp_path / "nope"),
                 "--manifest", str(tmp_path / "m.json"),
                 "--sample-dir", str(tmp_path)]) == 2


def test_train_requires_manifest(capsys):
    assert main(["train", "--net", "nodule"]) == 1
    assert "manifest" in capsys.readouterr().err


# (file, path of the key removed from a valid one); "sidecar" is the JSON
# sidecar of the checkpoint tensor head.weight, "meta" the .meta.json of the
# sample that predict reads, "train-meta" the same file read by train
MALFORMED = [("split", ("train",)), ("split", ("val",)), ("split", ("test",)),
             ("split", ("seed",)),
             ("checkpoint", ("kind",)), ("checkpoint", ("seed",)),
             ("checkpoint", ("epoch",)), ("checkpoint", ("best_val_dice",)),
             ("checkpoint", ("tensors",)), ("checkpoint", ("adam", "t")),
             ("checkpoint", ("config", "stage_channels")),
             ("sidecar", ("shape",)), ("sidecar", ("dtype",)),
             ("meta", ("id",)), ("meta", ("spacing",)), ("meta", ("origin",)),
             ("train-meta", ("id",))]
# (file, key path, label, the bad value made from the valid one); an empty
# key path replaces the whole file
BAD_VALUES = [
    ("sidecar", ("dtype",), "list", lambda v: [v]),
    ("sidecar", ("shape",), "str", lambda v: "x".join(str(n) for n in v)),
    ("sidecar", ("shape",), "negative", lambda v: [-1] + v[1:]),
    ("sidecar", ("shape",), "float", lambda v: [float(v[0])] + v[1:]),
    ("split", ("train",), "str", lambda v: "abc"),
    ("split", ("train",), "int", lambda v: 5),
    ("split", ("seed",), "str", lambda v: "0"),
    ("checkpoint", ("seed",), "null", lambda v: None),
    ("checkpoint", ("tensors",), "list", lambda v: [v]),
    ("checkpoint", ("config", "stage_channels"), "int", lambda v: 5),
    ("checkpoint", ("adam", "t"), "str", lambda v: "x"),
    ("checkpoint", ("tensors", "head.weight"), "int", lambda v: 5),
    ("meta", ("spacing",), "int", lambda v: 1),
    *[(w, (), "list", lambda v: [1])
      for w in ("split", "checkpoint", "sidecar", "meta")],
]
ROWS = ([(w, k, None, f"{w}-{'.'.join(k)}") for w, k in MALFORMED]
        + [(w, k, bad, f"{w}-{'.'.join(k) or 'file'}-{label}")
           for w, k, label, bad in BAD_VALUES])


@pytest.mark.parametrize("which,key,bad", [r[:3] for r in ROWS],
                         ids=[r[3] for r in ROWS])
def test_malformed_manifest_is_one_line_error(tmp_path, capsys, which, key,
                                              bad):
    """Each row removes a key, or replaces its value v, or the whole file,
    by bad(v)."""
    split = {"train": ["a"], "val": ["b"], "test": ["c"], "seed": 0}
    save_sample(replace(make_phantom("nodule", 32, 0), id="a"), tmp_path)
    ckpt = tmp_path / "ckpt"
    config = NetworkConfig(stage_channels=[2, 4, 8, 16],
                           input_geometry=(1, 32, 32, 32))
    save_checkpoint(ckpt, TrainState(
        net=build_network("nodule", config, 0), kind="nodule", config=config,
        adam=AdamState(), epoch=0, seed=0, best_val_dice=0.0))
    split_path = tmp_path / "split.json"
    split_path.write_text(json.dumps(split))
    path = {"split": split_path, "checkpoint": ckpt / "manifest.json",
            "sidecar": ckpt / "head.weight.json",
            "meta": tmp_path / "a.meta.json",
            "train-meta": tmp_path / "a.meta.json"}[which]
    payload = json.loads(path.read_text())
    node = payload
    for k in key[:-1]:
        node = node[k]
    if not key:
        payload = bad(payload)
    elif bad is None:
        del node[key[-1]]
    else:
        node[key[-1]] = bad(node[key[-1]])
    path.write_text(json.dumps(payload))
    if which in ("split", "train-meta"):
        argv = ["train", "--net", "nodule", "--manifest", str(split_path),
                "--sample-dir", str(tmp_path), "--out", str(tmp_path / "run"),
                *MICRO_FLAGS]
    elif which == "meta":
        argv = ["predict", "--checkpoint", str(ckpt), "--id", "a",
                "--sample-dir", str(tmp_path),
                "--out", str(tmp_path / "pred.mhd")]
    else:
        argv = ["eval", "--checkpoint", str(ckpt), "--manifest",
                str(split_path), "--sample-dir", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    named = repr(key[-1]) if key else "expected a JSON object"
    assert str(path) in err[0] and named in err[0], err[0]


def test_missing_training_sample_is_io_error(tmp_path, capsys):
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"train": ["ghost"], "val": [], "test": [],
                                 "seed": 0}))
    assert main(["train", "--net", "nodule", "--manifest", str(split),
                 "--sample-dir", str(tmp_path), "--out", str(tmp_path / "run"),
                 *MICRO_FLAGS]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "failed to load sample 'ghost'" in err[0], err


def test_pipeline_train_eval_predict_heatmap(tmp_path, capsys):
    samples = tmp_path / "samples"
    assert main(["phantom-gen", "--kind", "nodule", "--count", "5",
                 "--dims", "32,32,32", "--out", str(samples)]) == 0
    ids = json.loads(capsys.readouterr().out.splitlines()[-1])["ids"]

    man_path = tmp_path / "split.json"
    assert main(["split", "--ids", ",".join(ids), "--out", str(man_path),
                 "--seed", "0"]) == 0
    man = load_manifest(man_path)

    run = tmp_path / "run"
    assert main(["train", "--net", "nodule", "--manifest", str(man_path),
                 "--sample-dir", str(samples), "--out", str(run),
                 "--epochs", "1", *MICRO_FLAGS]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["epochs"] == 1
    assert (run / "log.csv").exists()

    report_path = tmp_path / "report.json"
    assert main(["eval", "--checkpoint", str(run / "last"),
                 "--manifest", str(man_path), "--split", "test",
                 "--sample-dir", str(samples),
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["split"] == "test"
    assert [r["id"] for r in report["per_sample"]] == man.test
    assert 0.0 <= report["aggregate"]["dice"] <= 1.0

    pred_path = tmp_path / "pred.mhd"
    assert main(["predict", "--checkpoint", str(run / "last"),
                 "--id", man.test[0], "--sample-dir", str(samples),
                 "--out", str(pred_path)]) == 0
    mask, meta = load_mhd(pred_path)
    assert mask.shape == (1, 1, 32, 32, 32)
    assert meta.element_type == "MET_UCHAR"
    assert set(mask.data.reshape(-1).tolist()) <= {0.0, 1.0}

    heat_path = tmp_path / "mid.pgm"
    assert main(["heatmap", "--checkpoint", str(run / "last"),
                 "--id", man.test[0], "--sample-dir", str(samples),
                 "--slice", "16", "--out", str(heat_path)]) == 0
    assert heat_path.read_bytes().startswith(b"P5\n32 32\n255\n")

    color_path = tmp_path / "mid.ppm"
    assert main(["heatmap", "--checkpoint", str(run / "last"),
                 "--id", man.test[0], "--sample-dir", str(samples),
                 "--slice", "16", "--color", "--out", str(color_path)]) == 0
    assert color_path.read_bytes().startswith(b"P6\n32 32\n255\n")
