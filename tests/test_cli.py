"""End-to-end command-line behaviour: exit codes, JSON echo, artifacts."""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lungseg3d
from lungseg3d import gradcheck
from lungseg3d.cli import build_parser, main
from lungseg3d.data import (load_manifest, load_mhd, load_sample,
                            make_phantom, save_sample)
from lungseg3d.networks import (NetworkConfig, WindowAttentionUNet3d,
                                build_network)
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
    def nan_check(seed):
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


@pytest.mark.parametrize("command", ["split", "train"])
def test_a_sample_named_twice_is_one_line_error(tmp_path, capsys, command):
    """An id list or split manifest that names one sample twice would put
    it in two splits; the command stops with one error line naming it."""
    out = tmp_path / "split.json"
    if command == "split":
        argv = ["split", "--ids", "a,a,b,c,d", "--out", str(out)]
        message = "the id list names sample 'a' twice"
    else:
        out.write_text(json.dumps({"train": ["a", "b"], "val": ["c", "a"],
                                   "test": [], "seed": 0}))
        argv = ["train", "--net", "nodule", "--manifest", str(out),
                "--sample-dir", str(tmp_path), "--out",
                str(tmp_path / "run"), *MICRO_FLAGS]
        message = f"split manifest {out} names sample 'a' twice"
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert command == "train" or not out.exists()
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--target", "relu", "--tol", "1e-3"],
    ["preprocess", "--image", "i.mhd", "--mask", "m.mhd", "--out", "o",
     "--id", "a", "--seed", "1"],
    ["eval", "--seed", "1"],
    ["predict", "--id", "a", "--out", "p.mhd", "--seed", "1"],
    ["heatmap", "--id", "a", "--slice", "0", "--out", "h.pgm", "--seed", "1"],
], ids=["gradcheck-tol", "preprocess-seed", "eval-seed", "predict-seed",
        "heatmap-seed"])
def test_removed_flags_are_usage_errors(capsys, argv):
    """gradcheck checks each row at its own tolerance, and the commands
    that draw nothing random take no seed: the flag, the last two
    arguments, is refused with one error line before any echo."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = [line for line in captured.err.splitlines()
           if line.startswith("error:")]
    assert err == [f"error: unrecognized arguments: {' '.join(argv[-2:])}"]
    assert not captured.out


def test_config_file_with_flag_precedence(tmp_path, capsys):
    """The flag wins over the file; `epochs` is a key only train takes, so
    gradcheck ignores it and its echo has no such key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "epochs": 7}))
    assert main(["gradcheck", "--target", "relu", "--config", str(cfg),
                 "--seed", "9"]) == 0
    echo, _ = _first_json(capsys)
    assert echo["seed"] == 9 and "epochs" not in echo

    # a key is an optional flag's dest: a required flag's is none
    for key in ("no_such_knob", "sample_id", "config"):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({key: "x"}))
        assert main(["gradcheck", "--config", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: config file {bad}: unknown key {key!r}\n")

    notjson = tmp_path / "broken.json"
    notjson.write_text("{nope")
    assert main(["gradcheck", "--config", str(notjson)]) == 1


# command -> (arguments that reach the echo, the options it runs with):
# every flag's dest but --help's and --config's
ECHO_KEYS = {
    "gradcheck": (["--target", "relu"], {"seed", "target"}),
    "phantom-gen": (["--kind", "nodule", "--dims", "8", "--out", "{tmp}"],
                    {"seed", "kind", "count", "dims", "out"}),
    "preprocess": (["--image", "{tmp}/i.mhd", "--mask", "{tmp}/m.mhd",
                    "--out", "{tmp}", "--id", "a"],
                   {"net", "image", "mask", "out", "sample_id", "center",
                    "size", "target"}),
    "split": (["--ids", "a,b,c", "--out", "{tmp}/split.json"],
              {"seed", "sample_dir", "ids", "out"}),
    "train": (["--net", "lung", "--manifest", "{tmp}/none.json"],
              {"seed", "net", "manifest", "sample_dir", "out_dir", "epochs",
               "lr", "threshold", "stage_channels", "input_geometry",
               "attn_window", "dropout_rate", "resume"}),
    "eval": (["--checkpoint", "{tmp}/none", "--manifest", "{tmp}/none.json"],
             {"checkpoint", "manifest", "split", "sample_dir", "threshold",
              "out"}),
    "predict": (["--checkpoint", "{tmp}/none", "--id", "a",
                 "--out", "{tmp}/p.mhd"],
                {"checkpoint", "sample_id", "sample_dir", "threshold",
                 "out"}),
    "heatmap": (["--checkpoint", "{tmp}/none", "--id", "a", "--slice", "0",
                 "--out", "{tmp}/h.pgm"],
                {"checkpoint", "sample_id", "sample_dir", "slice_index",
                 "color", "out"}),
}


@pytest.mark.parametrize("command", list(ECHO_KEYS))
def test_echo_holds_exactly_the_options_the_command_runs_with(tmp_path,
                                                              capsys, command):
    """The echo is the parsed command line and nothing else: eval, predict
    and heatmap show no net, widths or epochs, and train shows the widths,
    geometry and window of the net it builds."""
    argv, keys = ECHO_KEYS[command]
    main([command] + [a.format(tmp=tmp_path) for a in argv])
    echo, _ = _first_json(capsys)
    assert set(echo) == {"command"} | keys
    assert echo["command"] == command
    if command in ("eval", "predict", "heatmap"):
        assert not {"net", "stage_channels", "epochs"} & set(echo)
    if command == "train":
        assert (echo["stage_channels"], echo["input_geometry"],
                echo["attn_window"]) == ([32, 64, 128, 256],
                                         [1, 23, 300, 300], [2, 2, 2])


def test_readme_commands_parse():
    """Every `lungseg3d` line of README's sh blocks parses, so a documented
    flag that no longer exists fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S))
    lines = blocks.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("lungseg3d ")]
    assert len(commands) >= 8
    for argv in commands:
        build_parser().parse_args(argv)


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


@pytest.fixture(scope="module")
def tiny_run(tiny_split, tmp_path_factory):
    """A 1-epoch micro nodule run on tiny_split, and the flags that made it."""
    samples, man = tiny_split
    run = tmp_path_factory.mktemp("run") / "run"
    argv = ["train", "--manifest", str(man), "--sample-dir", str(samples),
            "--out", str(run), "--epochs", "1", *MICRO_FLAGS]
    assert main(argv) == 0
    return run, argv


def test_one_config_file_serves_train_and_eval(tmp_path, tiny_split, capsys):
    """train takes its keys from the file; eval takes its own from the same
    file and ignores train's."""
    samples, man = tiny_split
    run = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "manifest": str(man), "sample_dir": str(samples), "out_dir": str(run),
        "epochs": 1, "stage_channels": [2, 4, 8, 16],
        "input_geometry": [1, 32, 32, 32], "checkpoint": str(run / "last"),
        "split": "val"}))
    assert main(["train", "--config", str(cfg)]) == 0
    assert (run / "log.csv").read_text().count("\n") == 2
    saved = json.loads((run / "last" / "manifest.json").read_text())
    assert saved["config"]["stage_channels"] == [2, 4, 8, 16]
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg)]) == 0
    echo, out = _first_json(capsys)
    assert echo["checkpoint"] == str(run / "last") and echo["split"] == "val"
    assert not {"epochs", "out_dir", "stage_channels"} & set(echo)
    report = json.loads(out.split("\n", 1)[1])
    assert [r["id"] for r in report["per_sample"]] == ["nodule-0001"]


def test_resume_with_another_lr_is_refused_untouched(tiny_run, capsys):
    """A resumed run trains at the checkpoint's lr, so asking for another
    one stops with one error line before log.csv or last/ changes."""
    run, argv = tiny_run
    files = [run / "log.csv", *sorted((run / "last").iterdir())]
    before = [f.read_bytes() for f in files]
    capsys.readouterr()
    assert main(argv + ["--epochs", "2", "--lr", "0.05",
                        "--resume", str(run / "last")]) == 1
    assert capsys.readouterr().err == (
        f"error: checkpoint {run / 'last'} was trained with lr 0.0001, "
        f"not lr 0.05\n")
    assert [f.read_bytes() for f in files] == before


def test_eval_refuses_a_sample_id_outside_the_sample_dir(tiny_run, tmp_path,
                                                         capsys):
    """A split whose id climbs out of --sample-dir is refused with one error
    line, although a sample lies where the id points."""
    run, _ = tiny_run
    save_sample(make_phantom("nodule", 32, 7), tmp_path / "outside")
    (tmp_path / "samples").mkdir()
    man = tmp_path / "split.json"
    man.write_text(json.dumps({"train": [], "val": [], "seed": 0,
                               "test": ["../outside/nodule-0007"]}))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "last"), "--manifest",
                 str(man), "--split", "test", "--sample-dir",
                 str(tmp_path / "samples")]) == 1
    assert capsys.readouterr().err == (
        "error: sample id '../outside/nodule-0007' is not a file name\n")


@pytest.mark.parametrize("row", ["garbage row", "0,1.0"],
                         ids=["no-epoch", "two-fields"])
def test_resume_over_a_malformed_log_row_is_refused_untouched(
        tiny_split, tiny_run, tmp_path, capsys, row):
    """A log.csv row that is not an integer epoch and three floats stops a
    resume with one error line naming the row and log.csv, which is left as
    it was."""
    samples, man = tiny_split
    run = tmp_path / "run"
    shutil.copytree(tiny_run[0], run)
    log = run / "log.csv"
    log.write_text(log.read_text() + row + "\n")
    before = log.read_bytes()
    capsys.readouterr()
    assert main(["train", "--manifest", str(man), "--sample-dir",
                 str(samples), "--out", str(run), "--epochs", "2",
                 *MICRO_FLAGS, "--resume", str(run / "last")]) == 1
    assert capsys.readouterr().err == (
        f"error: malformed row {row!r} in {log}\n")
    assert log.read_bytes() == before


def test_out_of_memory_is_one_line_error(tiny_run, tiny_split, monkeypatch,
                                         capsys):
    """A MemoryError, here from building the checkpoint's network, ends the
    command with one error line and exit code 2, not a traceback."""
    samples, man = tiny_split

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("lungseg3d.train.build_network", no_memory)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tiny_run[0] / "last"),
                 "--manifest", str(man), "--sample-dir", str(samples)]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_eval_threshold_out_of_range_on_an_empty_split(tiny_run, tiny_split,
                                                       tmp_path, capsys):
    """The threshold is refused even when no test volume would use it, and
    no report is written."""
    run, _ = tiny_run
    samples, man = tiny_split
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "last"), "--manifest",
                 str(man), "--split", "test", "--sample-dir", str(samples),
                 "--threshold", "5", "--out", str(report)]) == 1
    assert capsys.readouterr().err == "error: threshold 5.0 outside (0, 1)\n"
    assert not report.exists()


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


def _train_refused(tmp_path, capsys, samples, extra, message):
    """`train` with the `extra` arguments stops with the one error line
    `message` before the run directory exists."""
    man = tmp_path / "split.json"
    man.write_text(json.dumps({"train": ["nodule-0000"], "val": [],
                               "test": [], "seed": 0}))
    run = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--net", "nodule", "--manifest", str(man),
                 "--sample-dir", str(samples), "--out", str(run),
                 "--epochs", "1", *MICRO_FLAGS, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert not run.exists()


LR_MESSAGE = "lr must be a finite number > 0, got "


@pytest.mark.parametrize("flag,value,message", [
    ("--threshold", "1.5", "threshold 1.5 outside (0, 1)"),
    ("--epochs", "-3", "epochs must be at least 1, got -3"),
    ("--lr", "nan", LR_MESSAGE + "nan"),
    ("--lr", "inf", LR_MESSAGE + "inf"),
    ("--lr", "-1", LR_MESSAGE + "-1.0"),
    ("--lr", "0", LR_MESSAGE + "0.0"),
    ("--attn-window", "4,4,4",
     "bottleneck spatial (2, 2, 2) not divisible by attention window "
     "(4, 4, 4)"),
    ("--input-geometry", "1,-32,32,32",
     "input_geometry must be 4 positive ints"),
], ids=["threshold", "epochs", "lr-nan", "lr-inf", "lr-negative", "lr-zero",
        "attn-window", "input-geometry-negative"])
def test_bad_train_setting_stops_before_training(tmp_path, capsys, tiny_split,
                                                 flag, value, message):
    """An out-of-range threshold, epoch count, learning rate or network
    setting is refused before the run directory exists, also when no
    validation volume would use the threshold."""
    _train_refused(tmp_path, capsys, tiny_split[0], [flag, value], message)


@pytest.mark.parametrize("lr", [float("nan"), float("-inf"), -0.5, 0],
                         ids=["nan", "-inf", "negative", "zero"])
def test_unusable_lr_from_a_config_file_stops_before_training(
        tmp_path, capsys, tiny_split, lr):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lr": lr}))
    _train_refused(tmp_path, capsys, tiny_split[0], ["--config", str(cfg)],
                   LR_MESSAGE + repr(lr))


@pytest.mark.parametrize("net,flag,value,message", [
    ("lung", "--target", "300",
     "--target must be 2 positive ints h,w, got 300"),
    ("lung", "--target", "64,64,7",
     "--target must be 2 positive ints h,w, got 64,64,7"),
    ("lung", "--target", "0,64",
     "--target must be 2 positive ints h,w, got 0,64"),
    ("nodule", "--center", "1,2", "--center must be 3 ints d,h,w, got 1,2"),
    ("nodule", "--size", "0", "--size must be a positive int, got 0"),
    ("nodule", "--size", "-4", "--size must be a positive int, got -4"),
])
def test_bad_preprocess_geometry_stops_before_reading(tmp_path, capsys, net,
                                                      flag, value, message):
    # the volumes do not exist: the flag is refused before they are read
    assert main(["preprocess", "--net", net,
                 "--image", str(tmp_path / "i.mhd"),
                 "--mask", str(tmp_path / "m.mhd"), "--out", str(tmp_path),
                 "--id", "a", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"


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
             ("meta", ("spacing",)), ("meta", ("origin",)),
             ("train-meta", ("origin",))]
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
    ("checkpoint", ("adam", "t"), "negative", lambda v: -1),
    *[("checkpoint", ("adam", "lr"), label, lambda v, lr=lr: lr)
      for label, lr in (("nan", float("nan")), ("inf", float("inf")),
                        ("negative", -1e-4), ("zero", 0))],
    ("checkpoint", ("tensors",), "int-name", lambda v: v[:-1] + [5]),
    *[("checkpoint", ("best_val_dice",), label, lambda v, d=d: d)
      for label, d in (("nan", float("nan")), ("above-one", 5.0))],
    ("checkpoint", ("config", "input_geometry"), "negative",
     lambda v: [v[0], -v[1]] + v[2:]),
    ("meta", ("spacing",), "int", lambda v: 1),
    *[("meta", ("spacing",), label, lambda v, s=s: [s] + v[1:])
      for label, s in (("nan", float("nan")), ("negative", -1), ("zero", 0))],
    ("meta", ("origin",), "inf", lambda v: [float("inf")] + v[1:]),
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
        net=build_network("nodule", config, 0), kind="nodule",
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


def test_heatmap_slice_out_of_range_stops_before_the_forward(
        tmp_path, capsys, monkeypatch):
    """A --slice outside the sample's depth is refused before the net runs,
    with the one-line error the heatmap writer gives."""
    save_sample(replace(make_phantom("nodule", 32, 0), id="a"), tmp_path)
    config = NetworkConfig(stage_channels=[2, 4, 8, 16],
                           input_geometry=(1, 32, 32, 32))
    save_checkpoint(tmp_path / "ckpt", TrainState(
        net=build_network("nodule", config, 0), kind="nodule",
        adam=AdamState(), epoch=0, seed=0, best_val_dice=0.0))

    def forward(self, *args, **kwargs):
        raise AssertionError("the forward ran")

    monkeypatch.setattr(WindowAttentionUNet3d, "forward", forward)
    for bad in ("32", "-1"):
        assert main(["heatmap", "--checkpoint", str(tmp_path / "ckpt"),
                     "--id", "a", "--sample-dir", str(tmp_path),
                     "--slice", bad, "--out", str(tmp_path / "h.pgm")]) == 1
        assert capsys.readouterr().err == \
            f"error: slice index {bad} outside [0, 32)\n"
    assert not (tmp_path / "h.pgm").exists()
